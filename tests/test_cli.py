import argparse
import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwsurf import cli
from vdwsurf.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_energy_plane_isotropic_json(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--geometry", "plane", "--isotropic", "1", "--z0", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["energy"] == pytest.approx(-1.0 / 12.0, rel=1e-12)
    assert payload["method"] == "closed_form"
    assert payload["units"] == "reduced"
    assert payload["inputs"]["geometry"] == "plane"
    assert payload["inputs"]["z0"] == 1.0


def test_energy_methods_agree(capsys):
    values = {}
    for method in ("closed", "numeric", "oracle"):
        code, out, _ = run_cli(
            capsys,
            "energy",
            "--geometry",
            "gsphere",
            "--radius",
            "1",
            "--z0",
            "2",
            "--isotropic",
            "1",
            "--method",
            method,
        )
        assert code == 0
        values[method] = json.loads(out)["energy"]
    assert values["closed"] == pytest.approx(-7.0 / 162.0, rel=1e-12)
    assert values["numeric"] == pytest.approx(values["closed"], rel=1e-6)
    assert values["oracle"] == pytest.approx(values["closed"], rel=1e-6)


def test_energy_region_violation_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        "energy",
        "--geometry",
        "bosshat",
        "--radius",
        "1",
        "--isotropic",
        "1",
        "--z0",
        "-0.5",
    )
    assert code == 3
    assert "region" in err


@pytest.mark.parametrize("method", ["closed", "numeric", "oracle"])
def test_every_method_rejects_an_atom_below_the_plane(method, capsys):
    code, out, err = run_cli(capsys, "energy", "--geometry", "plane", "--z0", "-1",
                             "--isotropic", "1", "--method", method)
    assert (code, out) == (3, "")
    assert err.startswith("vdwsurf: region violation: ")


def test_energy_missing_variances_exits_2(capsys):
    code, _, err = run_cli(capsys, "energy", "--geometry", "plane", "--z0", "1")
    assert code == 2
    assert "variances" in err or "isotropic" in err


def test_energy_both_variance_flags_exit_2(capsys):
    code, _, _ = run_cli(
        capsys,
        "energy",
        "--geometry",
        "plane",
        "--z0",
        "1",
        "--isotropic",
        "1",
        "--variances",
        "1,1,1",
    )
    assert code == 2


def test_unknown_geometry_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--geometry", "nosuch", "--z0", "1", "--isotropic", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_anisotropic_closed_sphere_exits_2(capsys):
    code, _, err = run_cli(
        capsys,
        "energy",
        "--geometry",
        "gsphere",
        "--radius",
        "1",
        "--z0",
        "2",
        "--variances",
        "1,0,0",
    )
    assert code == 2
    assert "isotropic" in err


def test_scan_is_byte_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = [
        "scan",
        "--geometry",
        "bosshat",
        "--radius",
        "1",
        "--var",
        "z0",
        "--from",
        "1.05",
        "--to",
        "5",
        "--points",
        "40",
        "--variances",
        "0,0,1",
        "--normalize",
        "R3",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith("x,value,err,method\n")
    assert "\r" not in text
    assert len(text.splitlines()) == 41


def test_scan_rows_ordered_and_parseable(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(
        [
            "scan",
            "--geometry",
            "plane",
            "--var",
            "z0",
            "--from",
            "10",
            "--to",
            "1",
            "--points",
            "10",
            "--isotropic",
            "1",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    xs = [float(r[0]) for r in rows]
    assert xs == sorted(xs)
    values = [float(r[1]) for r in rows]
    # cubic law between consecutive points
    for (x1, v1), (x2, v2) in zip(zip(xs, values), zip(xs[1:], values[1:])):
        assert v1 / v2 == pytest.approx((x2 / x1) ** 3, rel=1e-10)


def test_scan_log_spacing(tmp_path, capsys):
    out = tmp_path / "log.csv"
    code = main(
        [
            "scan",
            "--geometry",
            "plane",
            "--var",
            "z0",
            "--from",
            "1",
            "--to",
            "100",
            "--points",
            "5",
            "--log",
            "--isotropic",
            "1",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    xs = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    ratios = [b / a for a, b in zip(xs, xs[1:])]
    assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)


def test_scan_unwritable_output_exits_4(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "scan",
        "--geometry",
        "plane",
        "--var",
        "z0",
        "--from",
        "1",
        "--to",
        "2",
        "--points",
        "3",
        "--isotropic",
        "1",
        "--out",
        str(tmp_path / "missing-dir" / "x.csv"),
    )
    assert code == 4
    assert "cannot write" in err


def test_scan_normalize_r3_rejected_for_plane(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        "scan",
        "--geometry",
        "plane",
        "--var",
        "z0",
        "--from",
        "1",
        "--to",
        "2",
        "--points",
        "3",
        "--isotropic",
        "1",
        "--normalize",
        "R3",
        "--out",
        str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_scan_normalize_a3_strips_cubic_decay(tmp_path, capsys):
    out = tmp_path / "a3.csv"
    code = main(
        [
            "scan",
            "--geometry",
            "plane",
            "--var",
            "z0",
            "--from",
            "1",
            "--to",
            "9",
            "--points",
            "5",
            "--isotropic",
            "1",
            "--normalize",
            "a3",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert all(v == pytest.approx(-1.0 / 12.0, rel=1e-12) for v in values)


def test_config_file_fills_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# comment\n"
        "geometry=plane\n"
        "var=z0\n"
        "from=1\n"
        "to=2\n"
        "points=4\n"
        "isotropic=1\n"
        f"out={tmp_path / 'from-config.csv'}\n"
    )
    code = main(["scan", "--config", str(cfg)])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "from-config.csv").exists()

    override = tmp_path / "override.csv"
    code = main(["scan", "--config", str(cfg), "--points", "7", "--out", str(override)])
    capsys.readouterr()
    assert code == 0
    assert len(override.read_text().splitlines()) == 8


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("geometry=plane\nwavelength=5\n")
    code, _, err = run_cli(capsys, "scan", "--config", str(cfg))
    assert code == 2
    assert "wavelength" in err


def test_energy_si_units(capsys):
    d2 = 1e-59
    z0 = 5e-9
    code, out, _ = run_cli(
        capsys,
        "energy",
        "--geometry",
        "plane",
        "--isotropic",
        str(d2),
        "--z0",
        str(z0),
        "--units",
        "si",
    )
    assert code == 0
    payload = json.loads(out)
    eps0 = 8.8541878128e-12
    want = -(d2 / 12.0) / (4.0 * math.pi * eps0 * z0**3)
    assert payload["energy"] == pytest.approx(want, rel=1e-10)
    assert payload["units"] == "si"


def test_validate_all_exits_0(capsys):
    code, out, _ = run_cli(capsys, "validate", "--suite", "all", "--seed", "0")
    assert code == 0
    assert "suite bc: PASS" in out
    assert "suite threeway: PASS" in out


def test_validate_single_suite(capsys):
    code, out, _ = run_cli(capsys, "validate", "--suite", "symmetry", "--seed", "3")
    assert code == 0
    assert out.startswith("suite symmetry:")


def test_scan_threads_do_not_change_bytes(tmp_path, capsys, monkeypatch):
    argv = [
        "scan",
        "--geometry",
        "isphere",
        "--radius",
        "1",
        "--var",
        "z0",
        "--from",
        "1.2",
        "--to",
        "3",
        "--points",
        "12",
        "--isotropic",
        "1",
        "--method",
        "numeric",
    ]
    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "threaded.csv"
    monkeypatch.delenv("VDW_THREADS", raising=False)
    assert main(argv + ["--out", str(serial)]) == 0
    monkeypatch.setenv("VDW_THREADS", "4")
    assert main(argv + ["--out", str(threaded)]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == threaded.read_bytes()


def test_scan_expansion3_method(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    code = main(
        [
            "scan",
            "--geometry",
            "gsphere",
            "--radius",
            "1",
            "--var",
            "z0",
            "--from",
            "1.05",
            "--to",
            "1.45",
            "--points",
            "5",
            "--isotropic",
            "1",
            "--method",
            "expansion3",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert all(line.endswith("expansion3") for line in lines[1:])


@pytest.mark.parametrize(
    "argv,needle",
    [
        # the closed form's energy overflows to -inf (its cube, taken at the scaled
        # height, does not underflow to a division by zero); the finite check names it
        (["energy", "--geometry", "plane", "--isotropic", "1e308", "--z0", "1e-300"],
         "at rho0=0.0, z0=1e-300: non-finite energy -inf"),
        # numpy's FloatingPointError in the G_H routes names the point, as a scan does
        (["energy", "--geometry", "isphere", "--radius", "1", "--z0", "1e200", "--isotropic", "1",
          "--method", "numeric"], "at rho0=0.0, z0=1e+200: overflow"),
        (["energy", "--geometry", "isphere", "--radius", "1", "--z0", "1e200", "--isotropic", "1",
          "--method", "oracle"], "at rho0=0.0, z0=1e+200: overflow"),
        (["energy", "--geometry", "gsphere", "--radius", "1e300", "--z0", "1.0000000001e300",
          "--isotropic", "1", "--method", "numeric"], "at rho0=0.0, z0=1.0000000001e+300: overflow"),
        (["energy", "--geometry", "gsphere", "--radius", "1e300", "--z0", "1.0000000001e300",
          "--isotropic", "1", "--method", "oracle"], "at rho0=0.0, z0=1.0000000001e+300: overflow"),
        (["energy", "--geometry", "plane", "--z0", "1e160", "--isotropic", "1",
          "--method", "numeric"], "at rho0=0.0, z0=1e+160: overflow"),
        # ExpansionWindowError, outside the window at the first point
        (
            ["scan", "--geometry", "gsphere", "--radius", "1", "--isotropic", "1",
             "--method", "expansion3", "--from", "2", "--to", "3", "--points", "3"],
            "at z0=2.0: ",
        ),
        # DegenerateSourceError: the squares of 1e-300 underflow to 0
        (["energy", "--geometry", "plane", "--z0", "1e-300", "--isotropic", "1",
          "--method", "numeric"], "coincides with an image location"),
        # the same in a batched scan, which names its first failing point
        (
            ["scan", "--geometry", "plane", "--isotropic", "1", "--method", "numeric",
             "--log", "--from", "1e-300", "--to", "1", "--points", "4"],
            "at z0=1e-300: ",
        ),
        # MemoryError: 2**59 grid points take 4 EiB, more than any address
        # space can map, so numpy's allocation fails and nothing is allocated
        (
            ["scan", "--geometry", "plane", "--isotropic", "1", "--from", "1", "--to", "2",
             "--points", str(2**59)],
            "Unable to allocate",
        ),
        # anisotropic variances: the error names the expansion3 form asked for
        (
            ["scan", "--geometry", "gsphere", "--radius", "1", "--variances", "1,2,3",
             "--method", "expansion3", "--from", "1.01", "--to", "1.2", "--points", "3"],
            "vdwsurf: expansion3 energies of geometry 'gsphere' require isotropic variances",
        ),
        (
            ["scan", "--geometry", "bosshat", "--radius", "1", "--variances", "1,2,3",
             "--method", "expansion3", "--from", "1.01", "--to", "1.2", "--points", "3"],
            "vdwsurf: expansion3 energies of geometry 'bosshat' require isotropic variances",
        ),
        # scan arguments the parser accepts but the scan rejects
        (["scan", "--geometry", "plane", "--isotropic", "1", "--from", "1", "--to", "2",
          "--points", "0"], "vdwsurf: --points must be >= 1\n"),
        (["scan", "--geometry", "plane", "--isotropic", "1", "--var", "rho0", "--from", "0",
          "--to", "1"], "vdwsurf: --z0 is required when sweeping rho0\n"),
        (["scan", "--geometry", "plane", "--isotropic", "1", "--log", "--from", "0", "--to", "1"],
         "vdwsurf: --log needs strictly positive --from/--to\n"),
        (["scan", "--geometry", "plane", "--isotropic", "1", "--method", "expansion3",
          "--from", "1", "--to", "2"], "vdwsurf: --method expansion3 needs geometry gsphere or bosshat\n"),
        (["scan", "--geometry", "isphere", "--radius", "1", "--isotropic", "1",
          "--method", "expansion3", "--from", "1.1", "--to", "1.2"],
         "vdwsurf: --method expansion3 needs geometry gsphere or bosshat\n"),
        # a config line without "="; CONFIG stands for the path of a file holding it
        (["scan", "--config", "CONFIG"], "vdwsurf: CONFIG:1: expected key=value, got 'z0 2'\n"),
    ],
    ids=["closed-overflow", "numeric-isphere-overflow", "oracle-isphere-overflow",
         "numeric-gsphere-overflow", "oracle-gsphere-overflow", "numeric-plane-overflow",
         "expansion-window", "degenerate-source", "scan-names-x",
         "unallocatable-grid", "anisotropic-gsphere-expansion3",
         "anisotropic-bosshat-expansion3", "zero-points", "rho0-sweep-without-z0",
         "log-from-zero", "plane-expansion3", "isphere-expansion3", "config-line-without-equals"],
)
def test_library_and_arithmetic_errors_exit_2(argv, needle, capsys, tmp_path):
    out = tmp_path / "scan.csv"
    config = tmp_path / "bad.cfg"
    config.write_text("z0 2\n")
    argv = [str(config) if a == "CONFIG" else a for a in argv]
    needle = needle.replace("CONFIG", str(config))
    if argv[0] == "scan":
        argv = argv + ["--out", str(out)]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("vdwsurf: ") and err.count("\n") == 1
    assert needle in err
    assert not out.exists()


@pytest.mark.parametrize("geometry", ["gsphere", "isphere"])
def test_sphere_contact_error_names_the_center_distance(geometry, capsys, tmp_path):
    out = tmp_path / "scan.csv"
    # off the axis at z0 = 0: rho0 = -1 is the first grid point on the sphere
    code, _, err = run_cli(
        capsys, "scan", "--geometry", geometry, "--radius", "1", "--isotropic", "1",
        "--var", "rho0", "--z0", "0", "--from", "-2", "--to", "2", "--points", "5",
        "--out", str(out),
    )
    assert code == 3
    assert err == (
        "vdwsurf: region violation: at rho0=-1.0: "
        "atom must sit outside the sphere (distance from its center > R)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("method", ["numeric", "oracle", "closed"])
def test_scan_with_one_point_outside_region_exits_3(method, capsys, tmp_path):
    out = tmp_path / "scan.csv"
    # z0 = 1 lies on the sphere; the other four grid points are outside it
    code, _, err = run_cli(
        capsys, "scan", "--geometry", "gsphere", "--radius", "1", "--isotropic", "1",
        "--method", method, "--from", "1", "--to", "2", "--points", "5", "--out", str(out),
    )
    assert code == 3
    assert "at z0=1.0: " in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--z0", "nan", "--isotropic", "1"],
        ["--z0", "inf", "--isotropic", "1"],
        ["--z0", "1", "--rho0=-inf", "--isotropic", "1"],
        ["--z0", "1", "--radius", "nan", "--isotropic", "1"],
        ["--z0", "1", "--isotropic", "nan"],
        ["--z0", "1", "--variances", "1,nan,1"],
    ],
    ids=["z0-nan", "z0-inf", "rho0-inf", "radius-nan", "isotropic-nan", "variances-nan"],
)
@pytest.mark.parametrize("method", ["closed", "numeric", "oracle"])
def test_energy_rejects_non_finite_input(flags, method):
    # a parse error: argparse's SystemExit(2), which _run maps to the code
    code, out, err = _run(["energy", "--geometry", "plane", "--method", method, *flags])
    assert code == 2
    assert out == ""
    assert "finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("bad", [["--from", "nan"], ["--to", "inf"], ["--z0", "nan"]])
def test_scan_rejects_non_finite_input(bad, tmp_path):
    out = tmp_path / "scan.csv"
    argv = ["scan", "--geometry", "plane", "--isotropic", "1", "--var", "rho0",
            "--z0", "1", "--from", "0", "--to", "1", "--out", str(out)]
    i = argv.index(bad[0])
    argv[i + 1] = bad[1]
    code, stdout, err = _run(argv)
    assert code == 2
    assert stdout == ""
    assert "finite" in err and err.count("\n") == 1
    assert not out.exists()


def test_config_file_rejects_non_finite_input(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry = plane\nz0 = nan\nisotropic = 1\n")
    want = (2, "", "vdwsurf: argument --z0: must be a finite number, got 'nan'\n")
    assert _run(["energy", "--config", str(cfg)]) == want
    # a flag that overrides the line does not hide it
    assert _run(["energy", "--config", str(cfg), "--z0", "1"]) == want


@pytest.mark.parametrize("text", ["-1e5", "-1E+5", "-1e-300", "-.5", "-1_000"])
def test_negative_number_in_any_float_form_is_a_value(text):
    code, out, err = _run(["energy", "--geometry", "plane", "--z0", "1", "--rho0", text,
                           "--isotropic", "1"])
    assert (code, err) == (0, "")
    assert json.loads(out)["inputs"]["rho0"] == float(text)


def test_negative_infinity_after_a_float_flag_is_a_non_finite_value():
    want = (2, "", "vdwsurf: argument --z0: must be a finite number, got '-inf'\n")
    assert _run(["energy", "--geometry", "plane", "--z0", "-inf", "--isotropic", "1"]) == want


def test_help_is_still_an_option_after_the_negative_number_pattern():
    code, out, err = _run(["energy", "-h"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: vdwsurf energy [-h]")


# pieces of what float() reads, and of what it does not, glued at random
_FLOAT_PIECES = ["0", "7", "12", "_", ".", "e", "E", "+", "-", "inf", "INF", "inity", "Infinity",
                 "nan", "NaN", "n", "x"]


@given(st.lists(st.sampled_from(_FLOAT_PIECES), max_size=6).map("".join))
@settings(max_examples=1000, deadline=None)
def test_negative_number_pattern_is_what_float_reads(tail):
    text = "-" + tail

    def is_float(text):
        try:
            float(text)
        except ValueError:
            return False
        return True

    assert bool(cli._NEGATIVE_NUMBER.match(text)) == is_float(text)


@pytest.mark.parametrize("command", ["energy", "scan"])
def test_oracle_charge_overflow_exits_2_naming_it(command, capsys, tmp_path):
    # at z0 = 1e-300 the steps h are about 1e-303; the unit-variance charges
    # do not overflow, and the oracle stops, as the numeric route does, where
    # a charge and an image location coincide in floating point
    flags = ["--geometry", "plane", "--isotropic", "1", "--method", "oracle"]
    if command == "energy":
        argv, prefix = ["energy", *flags, "--z0", "1e-300"], "at rho0=0.0, z0=1e-300: "
    else:
        argv = ["scan", *flags, "--log", "--from", "1e-300", "--to", "1", "--points", "4",
                "--out", str(tmp_path / "scan.csv")]
        prefix = "at z0=1e-300: "
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"vdwsurf: {prefix}field point (")
    assert err.endswith(") coincides with an image location\n")


def test_energy_overflow_prints_no_invalid_json(capsys):
    code, out, err = run_cli(
        capsys, "energy", "--geometry", "plane", "--isotropic", "1e308", "--z0", "1e-3"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("vdwsurf: ")


@pytest.mark.parametrize(
    "geometry",
    [["plane"], ["gsphere", "--radius", "0.25"], ["isphere", "--radius", "0.25"],
     ["bosshat", "--radius", "0.25"]],
    ids=["plane", "gsphere", "isphere", "bosshat"],
)
def test_energy_names_a_non_finite_energy_as_scan_does(geometry, capsys, tmp_path):
    # the energy itself overflows: -inf, which JSON cannot hold
    flags = ["--geometry", *geometry, "--variances", "1e308,1e308,1e308"]
    code, out, err = run_cli(capsys, "energy", *flags, "--z0", "0.3")
    assert (code, out) == (2, "")
    assert err == "vdwsurf: at rho0=0.0, z0=0.3: non-finite energy -inf (err 0.0)\n"
    code, _, err = run_cli(capsys, "scan", *flags, "--from", "0.3", "--to", "0.3",
                           "--points", "1", "--out", str(tmp_path / "scan.csv"))
    assert (code, err) == (2, "vdwsurf: at z0=0.3: non-finite energy -inf (err 0.0)\n")


@pytest.mark.parametrize(
    "flags,code,prefix",
    [
        (["--geometry", "gsphere", "--radius", "1", "--z0", "0.5", "--isotropic", "1"], 3,
         "vdwsurf: region violation: at rho0=0.0, z0=0.5: "),
        (["--geometry", "plane", "--z0", "1e-300", "--isotropic", "1", "--method", "numeric"], 2,
         "vdwsurf: at rho0=0.0, z0=1e-300: field point ("),
        (["--geometry", "isphere", "--radius", "1", "--z0", "1e200", "--rho0", "0.5",
          "--isotropic", "1", "--method", "numeric"], 2,
         "vdwsurf: at rho0=0.5, z0=1e+200: overflow"),
        (["--geometry", "plane", "--isotropic", "1e308", "--z0", "1e-300"], 2,
         "vdwsurf: at rho0=0.0, z0=1e-300: non-finite energy -inf"),
    ],
    ids=["region-violation", "degenerate-source", "numpy-overflow", "non-finite-energy"],
)
def test_energy_names_its_point_for_every_failure(flags, code, prefix, capsys):
    # energy is a scan chunk of one point: each failure names it, as scan names a grid value
    got, out, err = run_cli(capsys, "energy", *flags)
    assert (got, out) == (code, "")
    assert err.startswith(prefix) and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "geometry,variances",
    [(["plane"], "1e308,1e308,1e308"), (["plane"], "1.7e308,1e300,9e307"),
     (["gsphere", "--radius", "1"], "1e308,1e308,1e308"),
     (["gsphere", "--radius", "1"], "1.7e308,1.7e308,1.7e308"),
     (["bosshat", "--radius", "1"], "1e308,1e308,1e308"),
     (["bosshat", "--radius", "1"], "1.7e308,1e300,9e307")],
    ids=["plane", "plane-uneven", "gsphere", "gsphere-largest", "bosshat", "bosshat-uneven"],
)
def test_closed_energy_is_finite_where_the_variance_sum_overflows(geometry, variances, capsys):
    # the sums m1 + m2 + 2 m3, m1 + m2 + m3 and m . xi overflow; the energies do not
    energies = []
    for method in ("closed", "numeric", "oracle"):
        code, out, err = run_cli(capsys, "energy", "--geometry", *geometry, "--z0", "3",
                                 "--rho0", "0.7", "--variances", variances, "--method", method)
        assert (code, err) == (0, "")
        energies.append(json.loads(out))
    closed, numeric, oracle = energies
    assert math.isfinite(closed["energy"])
    assert abs(closed["energy"] - numeric["energy"]) <= numeric["err_estimate"]
    # each route's err bounds its own error, so they agree within the sum
    assert abs(oracle["energy"] - numeric["energy"]) <= oracle["err_estimate"] + numeric["err_estimate"]


def test_numeric_energy_is_finite_where_the_variance_sum_overflows(capsys):
    # 0.5 times the variances, exact, enter the sum, so it overflows only
    # where the energy does: -(m1 + m2 + 2 m3)/(16 z0^3) at z0 = 0.6
    flags = ["--geometry", "plane", "--z0", "0.6", "--variances", "1e308,1e308,1e308"]
    energies = {}
    for method in ("numeric", "closed"):
        code, out, err = run_cli(capsys, "energy", *flags, "--method", method)
        assert (code, err) == (0, "")
        energies[method] = json.loads(out)
    numeric = energies["numeric"]
    assert numeric["energy"] == -1.1574074074074076e+308
    assert abs(energies["closed"]["energy"] - numeric["energy"]) <= numeric["err_estimate"]


def test_numeric_err_is_finite_where_the_energy_is(capsys):
    # The contracted rounding bound is about 52 at unit variances: at 1e308
    # it overflows unless the 8 eps applies before the contraction.
    flags = ["--geometry", "isphere", "--radius", "65.88104669512516", "--z0",
             "37.44868808559477", "--rho0", "54.9718805731868", "--variances",
             "1e308,1e308,1e308"]
    energies = {}
    for method in ("numeric", "closed"):
        code, out, err = run_cli(capsys, "energy", *flags, "--method", method)
        assert (code, err) == (0, "")
        energies[method] = json.loads(out)
    numeric = energies["numeric"]
    assert math.isfinite(numeric["err_estimate"])
    assert abs(energies["closed"]["energy"] - numeric["energy"]) <= numeric["err_estimate"]


@pytest.mark.parametrize("geometry", [["plane"], ["bosshat", "--radius", "1"]],
                         ids=["plane", "bosshat"])
def test_closed_energy_keeps_its_subnormal_digits(geometry, capsys):
    # z0^3 = 1e309 overflows at true scale, and the energy, about -8.3e-311,
    # came out as -0.0; the cube is now taken at z0 scaled by a power of two
    flags = ["energy", "--geometry", *geometry, "--z0", "1e103", "--isotropic", "1"]
    energies = {}
    for method in ("closed", "numeric"):
        code, out, err = run_cli(capsys, *flags, "--method", method)
        assert (code, err) == (0, "")
        energies[method] = json.loads(out)
    numeric = energies["numeric"]
    assert abs(numeric["energy"] - -8.3333333333334e-311) <= numeric["err_estimate"]
    assert abs(energies["closed"]["energy"] - -8.3333333333334e-311) <= numeric["err_estimate"]


def test_closed_energy_with_a_zero_variance_axis_is_finite(capsys):
    # the plane's z kernel overflows to -inf at z0 = 8e-104 while the energy,
    # weighted by the x variance only, does not: 0 * -inf was NaN ("invalid
    # value encountered in multiply"); an axis of zero variance now adds 0
    flags = ["energy", "--geometry", "plane", "--z0", "8e-104", "--variances", "1,0,0"]
    energies = {}
    for method in ("closed", "oracle"):
        code, out, err = run_cli(capsys, *flags, "--method", method)
        assert (code, err) == (0, "")
        energies[method] = json.loads(out)
    oracle = energies["oracle"]
    assert math.isfinite(energies["closed"]["energy"])
    assert abs(energies["closed"]["energy"] - oracle["energy"]) <= oracle["err_estimate"]


@pytest.mark.parametrize(
    "z0,units", [("8e-104", "reduced"), ("1.4773776525984914e-100", "si")], ids=["reduced", "si"]
)
def test_numeric_energy_with_a_zero_variance_axis_is_finite(z0, units, capsys):
    # the z kernel, twice the x one, overflows in the kernel (reduced) or in
    # its scaling by 1/(4 pi eps0) (SI) while the x-weighted energy does not:
    # that was "overflow encountered in multiply"; contract now drops the axis
    flags = ["energy", "--geometry", "plane", "--z0", z0, "--variances", "1,0,0", "--units", units]
    energies = {}
    for method in ("numeric", "oracle"):
        code, out, err = run_cli(capsys, *flags, "--method", method)
        assert (code, err) == (0, "")
        energies[method] = json.loads(out)
    numeric, oracle = energies["numeric"], energies["oracle"]
    assert math.isfinite(numeric["energy"]) and math.isfinite(numeric["err_estimate"])
    assert abs(numeric["energy"] - oracle["energy"]) <= oracle["err_estimate"]


@pytest.mark.parametrize(
    "z0,variances",
    [("8e-104", "0,0,1"), ("8e-104", "1,1,1"), ("7e-104", "1,0,0")],
    ids=["z-axis-inf", "sum-overflows", "x-axis-overflows"],
)
def test_numeric_energy_exits_2_where_a_weighted_axis_overflows(z0, variances, capsys):
    code, out, err = run_cli(
        capsys, "energy", "--geometry", "plane", "--z0", z0, "--variances", variances,
        "--method", "numeric",
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"vdwsurf: at rho0=0.0, z0={float(z0)!r}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "z0,message",
    [
        # the first grid point is on the axis but outside the window: its
        # own error, named, and not the on-axis error of the points after it
        ("2", "vdwsurf: at rho0=0.0: near-contact expansion valid only for 0 < (z0-R)/R < 0.5\n"),
        ("1.2", "vdwsurf: --method expansion3 is on-axis only (rho0 = 0)\n"),
    ],
    ids=["window-first", "off-axis-second"],
)
def test_expansion3_rho0_sweep_reports_its_first_failing_point(z0, message, capsys, tmp_path):
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(
        capsys, "scan", "--geometry", "gsphere", "--radius", "1", "--isotropic", "1",
        "--method", "expansion3", "--var", "rho0", "--z0", z0, "--from", "0", "--to", "1",
        "--points", "3", "--out", str(out),
    )
    assert (code, err) == (2, message)
    assert not out.exists()


@pytest.mark.parametrize("geometry", ["gsphere", "bosshat"])
def test_long_expansion3_scan_equals_per_point_energies(geometry, capsys, tmp_path, monkeypatch):
    from vdwsurf.closed import u_bosshat_expansion3, u_sphere_expansion3

    monkeypatch.setitem(cli._SCAN_CHUNK, "expansion3", 256)   # 600 points cross two chunk edges
    form = u_sphere_expansion3 if geometry == "gsphere" else u_bosshat_expansion3
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, "scan", "--geometry", geometry, "--radius", "1", "--isotropic", "1",
        "--method", "expansion3", "--log", "--from", "1.000001", "--to", "1.4",
        "--points", "600", "--out", str(out),
    )
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 600
    for x, row in zip(np.geomspace(1.000001, 1.4, 600).tolist(), rows):
        result = form(1.0, x, 1.0)
        assert row == f"{x:.17g},{result.value:.17g},{result.err_estimate:.17g},expansion3"


def test_long_scan_in_chunks_equals_per_point_energies(capsys, tmp_path, monkeypatch):
    import numpy as np

    from vdwsurf.evaluator import energy_numeric
    from vdwsurf.geometry import DipoleVariances, GeometryConfig, Position

    monkeypatch.setitem(cli._SCAN_CHUNK, "numeric", 256)   # 600 points cross two chunk edges
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, "scan", "--geometry", "gsphere", "--radius", "1", "--isotropic", "1",
        "--method", "numeric", "--from", "1.001", "--to", "4", "--points", "600",
        "--out", str(out),
    )
    assert code == 0
    g = GeometryConfig.grounded_sphere(1.0)
    v = DipoleVariances.isotropic(1.0)
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 600
    for x, row in zip(np.linspace(1.001, 4.0, 600).tolist(), rows):
        result = energy_numeric(g, v, Position(0.0, 0.0, x))
        assert row == f"{x:.17g},{result.value:.17g},{result.err_estimate:.17g},numeric_ez"


def test_long_scan_names_its_first_failing_point_in_a_later_chunk(capsys, tmp_path):
    import numpy as np

    out = tmp_path / "scan.csv"
    # rho0 sweeps through the sphere: the first point inside it lies
    # beyond the first 256 grid points
    code, _, err = run_cli(
        capsys, "scan", "--geometry", "isphere", "--radius", "1", "--isotropic", "1",
        "--method", "oracle", "--var", "rho0", "--z0", "0", "--from", "-10", "--to", "3",
        "--points", "600", "--out", str(out),
    )
    grid = np.linspace(-10.0, 3.0, 600).tolist()
    first = next(i for i, x in enumerate(grid) if abs(x) <= 1.0)
    assert first > cli._SCAN_CHUNK["oracle"]
    assert code == 3
    assert f"at rho0={grid[first]!r}: " in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["closed", "numeric"])
def test_long_scan_names_its_first_failing_point_beyond_a_whole_chunk(method, capsys, tmp_path):
    # as above, with the chunk these routes take: the failing chunk is
    # replayed point by point over up to 4096 points
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(
        capsys, "scan", "--geometry", "isphere", "--radius", "1", "--isotropic", "1",
        "--method", method, "--var", "rho0", "--z0", "0", "--from", "-10", "--to", "3",
        "--points", "6000", "--out", str(out),
    )
    grid = np.linspace(-10.0, 3.0, 6000).tolist()
    first = next(i for i, x in enumerate(grid) if abs(x) <= 1.0)
    assert first > cli._SCAN_CHUNK[method]
    assert code == 3
    assert f"at rho0={grid[first]!r}: " in err
    assert not out.exists()


def test_csv_rows_of_a_chunk_equal_the_per_row_format():
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2**63, size=3000, dtype=np.uint64) | (
        rng.integers(0, 2, size=3000, dtype=np.uint64) << np.uint64(63))
    doubles = [x for x in bits.view(np.float64).tolist() if math.isfinite(x)]
    special = [-0.0, 5e-324, 1e308, 1.0, -5e-324, -1e308, 0.1]
    cells = special + doubles + rng.standard_normal(300).tolist()
    cells = cells[: len(cells) // 3 * 3]
    xs, values, errs = cells[0::3], cells[1::3], cells[2::3]
    for method in ("closed_form", "numeric_ez", "oracle", "expansion3"):
        row = "%.17g,%.17g,%.17g," + method + "\n"
        rows = cli._csv_rows(xs, values, errs, method)
        # row by row, so that a failure shows one row and not a diff of 80 KB
        assert rows.count("\n") == len(xs)
        for got, want in zip(rows.splitlines(keepends=True), (row % r for r in zip(xs, values, errs))):
            assert got == want
        assert cli._csv_rows(xs[:1], values[:1], errs[:1], method) == row % (xs[0], values[0], errs[0])
    assert cli._csv_rows([], [], [], "oracle") == ""


def _per_row(xs, values, errs, method):
    return "".join("%.17g,%.17g,%.17g," % row + method + "\n" for row in zip(xs, values, errs))


# every finite double, the zeros and the subnormals included
_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_finite, _finite, _finite), min_size=1, max_size=60),
       st.integers(0, 50))
def test_csv_rows_of_a_long_chunk_equal_the_per_row_format(rows, extra):
    # the drawn rows, repeated to a chunk of at least the crossover
    rows = (rows * cli._CSV_PASS_ROWS)[:cli._CSV_PASS_ROWS + extra]
    xs, values, errs = (np.array(column) for column in zip(*rows))
    assert cli._csv_rows(xs, values, errs, "closed_form") == _per_row(
        xs.tolist(), values.tolist(), errs.tolist(), "closed_form")


def test_csv_rows_of_named_doubles_equal_the_per_row_format():
    named = [9.9999999999999995e-05, 1e16, 1e17, 1e-280, 1e281, 1e-4, 1e15, 0.1]
    named += np.nextafter(named, np.inf).tolist() + np.nextafter(named, 0.0).tolist()
    named += [5e-324, 1.7976931348623157e308, 2.2250738585072014e-308, 0.0, 1e15 + 0.25,
              1e15 + 0.75, 99999999999999999.0, 9.999999999999999e22, 123.0, 0.5]
    cells = named + [-x for x in named]
    cells += [1.0] * (3 * cli._CSV_PASS_ROWS - len(cells))
    xs, values, errs = cells[0::3], cells[1::3], cells[2::3]
    rows = cli._csv_rows(np.array(xs), np.array(values), np.array(errs), "oracle")
    assert rows == _per_row(xs, values, errs, "oracle")
    # exact ties: the fraction the 17th digit drops is 1/2, and % rounds half to even
    for f, text in ((0.25, "1000000000000000.2"), (0.75, "1000000000000000.8")):
        column = np.full(cli._CSV_PASS_ROWS, 1e15 + f)
        rows = cli._csv_rows(column, column, column, "m")
        assert rows == f"{text},{text},{text},m\n" * cli._CSV_PASS_ROWS


@pytest.mark.parametrize("err", [0.0, -0.0, 1e-300], ids=["zero", "minus-zero", "tiny"])
def test_csv_rows_at_the_crossover_equal_the_per_row_format(err, monkeypatch):
    # one row below the crossover takes %, one row at it the numpy pass; a
    # column of +0.0 only, the closed route's err, is written without formatting
    passes = []
    rows = cli._g17.rows
    monkeypatch.setattr(cli._g17, "rows", lambda *a: passes.append(1) or rows(*a))
    for n in (cli._CSV_PASS_ROWS - 1, cli._CSV_PASS_ROWS):
        xs = np.linspace(1.3, 7.9, n)
        values = -1.0 / (12.0 * xs**3)
        errs = np.full(n, err)
        got = cli._csv_rows(xs, values, errs, "closed_form")
        assert got == _per_row(xs.tolist(), values.tolist(), errs.tolist(), "closed_form")
    assert passes == [1]


def test_back_to_back_calls_share_no_state(tmp_path, capsys):
    # main reuses one parser per process: no call may see the flags or
    # config values of the one before
    import numpy as np

    scan = ["scan", "--geometry", "plane", "--from", "1", "--to", "100", "--points", "4",
            "--isotropic", "1"]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("method=numeric\nnormalize=a3\n")
    outs = [tmp_path / f"{i}.csv" for i in range(3)]
    assert main(scan + ["--log", "--out", str(outs[0])]) == 0
    assert main(scan + ["--config", str(cfg), "--out", str(outs[1])]) == 0
    assert main(scan + ["--out", str(outs[2])]) == 0
    capsys.readouterr()
    rows = [[line.split(",") for line in out.read_text().splitlines()[1:]] for out in outs]
    assert [float(r[0]) for r in rows[0]] == np.geomspace(1.0, 100.0, 4).tolist()
    assert [float(r[0]) for r in rows[1]] == np.linspace(1.0, 100.0, 4).tolist()
    assert [float(r[0]) for r in rows[2]] == np.linspace(1.0, 100.0, 4).tolist()
    assert {r[3] for r in rows[1]} == {"numeric_ez"}
    assert {r[3] for r in rows[2]} == {"closed_form"}
    # the config's a3 normalisation (value * z0^3, constant on the plane)
    # applies to its own call only
    assert float(rows[2][0][1]) == pytest.approx(-1.0 / 12.0, rel=1e-12)
    assert float(rows[1][0][1]) == pytest.approx(float(rows[1][-1][1]), rel=1e-6)


# --- config/flag equivalence and CLI fuzzing, driven by the parser's own options


def _subcommand(name):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def _config_options(command):
    """(key, action) of every option of a subcommand that a config file
    may set: all but --help and --config, keyed by the flag without --."""
    return [
        (action.option_strings[-1][2:], action)
        for action in _subcommand(command)._actions
        if action.option_strings and action.dest not in ("help", "config")
    ]


# A valid command of each kind, and for each option a value that changes
# it and a second value; an option added later takes generic values.
_BASE = {
    "energy": {"geometry": "bosshat", "radius": "1.5", "z0": "1.7", "rho0": "0.4",
               "variances": "0.5,1,2", "method": "numeric"},
    "scan": {"geometry": "bosshat", "radius": "1.5", "z0": "1.7", "rho0": "0.4",
             "variances": "0.5,1,2", "method": "numeric", "var": "z0", "from": "1.6",
             "to": "3", "points": "5"},
}
_VALUES = {
    "geometry": ("gsphere", "bosshat"), "radius": ("1.2", "1.5"), "z0": ("2.2", "1.7"),
    "rho0": ("0.3", "0.4"), "variances": ("1,2,3", "0.5,1,2"), "isotropic": ("2", "3"),
    "units": ("si", "reduced"), "method": ("oracle", "numeric"), "var": ("rho0", "z0"),
    "from": ("1.8", "1.6"), "to": ("2.5", "3"), "points": ("4", "5"),
    "log": ("yes", "no"), "normalize": ("a3", "R3"),
}


def _values(key, action):
    if key in _VALUES:
        return _VALUES[key]
    if action.nargs == 0:
        return ("yes", "no")
    if action.choices is not None:
        return (str(list(action.choices)[-1]), str(list(action.choices)[0]))
    if action.type is int:
        return ("3", "2")
    return ("0.75", "0.5")


def _flag_argv(action, text):
    flag = action.option_strings[-1]
    if action.nargs == 0:
        return [flag] if text in ("1", "true", "yes", "on") else []
    return [f"{flag}={text}"]


def _equivalence_cases():
    return [
        pytest.param(command, key, id=f"{command}-{key}")
        for command in ("energy", "scan")
        for key, _ in _config_options(command)
    ]


@pytest.mark.parametrize("command,key", _equivalence_cases())
def test_a_config_line_equals_its_flag_and_the_flag_wins(command, key, tmp_path):
    options = dict(_config_options(command))
    action = options[key]
    value, other = _values(key, action)
    values = dict(_BASE[command])
    values.pop(key, None)
    if key == "isotropic":
        values.pop("variances")   # the two are exclusive

    def run(name, flag_value, config_value):
        argv = [command]
        for k, text in values.items():
            argv += _flag_argv(options[k], text)
        lines = []
        if key == "out":   # the path a flag gives wins over the config's
            if flag_value is not None:
                flag_value = str(tmp_path / f"{name}.csv")
            if config_value is not None:
                config_value = str(tmp_path / f"{name}{'-config' if flag_value else ''}.csv")
        elif command == "scan":
            argv += ["--out", str(tmp_path / f"{name}.csv")]
        if flag_value is not None:
            argv += _flag_argv(action, flag_value)
        if config_value is not None:
            lines.append(f"{key}={config_value}")
        if lines:
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text("\n".join(lines) + "\n")
            argv += ["--config", str(cfg)]
        code, out, err = _run(argv)
        csv = tmp_path / f"{name}.csv"
        return code, out, err, csv.read_bytes() if csv.exists() else None

    flag = run("flag", value, None)
    if key in _VALUES:
        assert flag[0] == 0, flag[2]
    assert run("config", None, value) == flag
    assert run("both", value, other) == flag
    assert not (tmp_path / "both-config.csv").exists()


def _bad_value_cases():
    cases = []
    for command in ("energy", "scan"):
        for key, action in _config_options(command):
            if action.choices is not None:
                bad = "nosuch"
            elif action.type is not None or action.nargs == 0:
                bad = "x"
            else:
                continue   # a free string, such as a path, has no bad value
            cases.append(pytest.param(command, key, bad, id=f"{command}-{key}={bad}"))
            # NaN is a number but not a value: the parser rejects it as it rejects x
            nan = {cli._finite: "nan", cli._parse_variances: "1,nan,1"}.get(action.type)
            if nan is not None:
                cases.append(pytest.param(command, key, nan, id=f"{command}-{key}={nan}"))
    return cases


@pytest.mark.parametrize("command,key,bad", _bad_value_cases())
def test_a_bad_config_value_exits_2_naming_its_key(command, key, bad, tmp_path):
    action = dict(_config_options(command))[key]
    values = dict(_BASE[command])
    values[key] = bad
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    out_flags = ["--out", str(tmp_path / "scan.csv")] if command == "scan" else []
    by_config = _run([command, "--config", str(cfg)] + out_flags)
    code, out, err = by_config
    assert code == 2
    assert out == ""
    assert err.startswith("vdwsurf: ") and err.count("\n") == 1
    assert key in err
    assert "invalid _" not in err   # a message names no private function
    # the same bad value given as a flag fails the same way
    flags = [f"--{k}={v}" for k, v in values.items()]
    assert _run([command] + flags + out_flags) == by_config
    # a flag that overrides the bad line does not hide it: the whole file is checked
    good = _flag_argv(action, _values(key, action)[0])
    assert _run([command, "--config", str(cfg)] + good + out_flags) == by_config
    assert not (tmp_path / "scan.csv").exists()


# --- the parse path: the subcommand's parser reads the tokens after its name


_INVALID_CHOICE = "vdwsurf: argument command: invalid choice: {!r} (choose from 'energy', 'scan', 'validate')"


@pytest.mark.parametrize(
    "argv,code,stream,first_line",
    [
        ([], 2, "err", "vdwsurf: the following arguments are required: command"),
        (["bogus"], 2, "err", _INVALID_CHOICE.format("bogus")),
        (["--help"], 0, "out", "usage: vdwsurf [-h] {energy,scan,validate} ..."),
        (["scan", "--help"], 0, "out",
         "usage: vdwsurf scan [-h] [--geometry {plane,gsphere,isphere,bosshat}]"),
        (["scan", "--bogus", "1"], 2, "err", "vdwsurf: unrecognized arguments: --bogus 1"),
        (["--units", "si", "energy", "--geometry", "plane", "--z0", "1", "--isotropic", "1"],
         2, "err", _INVALID_CHOICE.format("si")),
    ],
    ids=["no-arguments", "bogus", "help", "scan-help", "scan-bogus", "option-first"],
)
def test_help_and_parse_errors_keep_their_exit_code_and_first_line(
    argv, code, stream, first_line, monkeypatch
):
    monkeypatch.setenv("COLUMNS", "80")   # help wraps at the terminal's width
    got, out, err = _run(argv)
    printed, other = (out, err) if stream == "out" else (err, out)
    assert (got, printed.splitlines()[0], other) == (code, first_line, "")


def _table_command_lines(out):
    """A valid command line for each value of each option in the table
    above, with validate's."""
    argvs = [["validate"], ["validate", "--suite", "bc", "--seed", "3"]]
    for command in ("energy", "scan"):
        options = dict(_config_options(command))
        for key, action in options.items():
            for text in _values(key, action):
                values = {**_BASE[command], key: text}
                argv = [command] + [f for k, v in values.items() for f in _flag_argv(options[k], v)]
                if command == "scan" and key != "out":
                    argv += ["--out", out]
                argvs.append(argv)
    return argvs


def test_main_parses_what_the_whole_parser_parses_but_the_command(monkeypatch, tmp_path):
    # The namespace a handler gets is the whole parser's, which names the
    # command besides; with --config, it is the whole parser's of the
    # command, the config's flags and the rest of the command line.
    parser = cli._shared_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    seen = []
    record = seen.append
    for sub in commands.values():
        monkeypatch.setitem(sub._defaults, "handler", record)
    configs = {command: tmp_path / f"{command}.cfg" for command in _BASE}
    for command, cfg in configs.items():
        cfg.write_text("".join(f"{k}={v}\n" for k, v in _BASE[command].items()))
    cases = [(argv, parser.parse_args(argv)) for argv in _table_command_lines("scan.csv")]
    for argv in _table_command_lines("scan.csv"):
        if argv[0] in configs:
            argv = argv[:1] + ["--config", str(configs[argv[0]])] + argv[1:]
            flags = cli._config_flags(commands[argv[0]], str(configs[argv[0]]))
            cases.append((argv, parser.parse_args(argv[:1] + flags + argv[1:])))
    for argv, whole in cases:
        assert main(argv) is None
        want, got = vars(whole), vars(seen.pop())
        assert want.pop("command") == argv[0]
        got.pop("command", None)
        assert got == want, argv


_ORDINARY = st.floats(0.1, 10.0).map(repr)
# huge, tiny, zero, negative, NaN and inf, the edge cases drawn often
_EDGE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, -1.0, 1e308, -1e308, 1e-300, 5e-324,
                     math.nan, math.inf, -math.inf]),
).map(repr)
_JUNK = st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=6)


def _value_strategy(action, numbers):
    if action.choices is not None:
        return st.sampled_from([str(c) for c in action.choices])
    if action.type is cli._finite:
        return numbers
    assert action.type is cli._parse_variances, action
    return st.lists(numbers, min_size=3, max_size=3).map(",".join)


def test_the_float_options_are_the_numeric_keys():
    # _value_strategy draws one number for each of these, three for --variances
    floats = {key for command in ("energy", "scan")
              for key, action in _config_options(command) if action.type is cli._finite}
    assert floats == {"radius", "z0", "rho0", "isotropic", "from", "to"}


_ENERGY_OPTIONS = _config_options("energy")


@st.composite
def _energy_requests(draw):
    """Options of an energy command, each absent, a flag or a config
    line, with ordinary values but one option in most requests, which
    is an edge-case number or junk.  In most requests only one of the
    exclusive --variances and --isotropic is given."""
    request = []
    for key, action in _ENERGY_OPTIONS:
        where = draw(st.sampled_from(["absent"] + ["flag", "config"] * 3))
        if where != "absent":
            request.append([where, key, action, draw(_value_strategy(action, _ORDINARY))])
    keys = [key for _, key, _, _ in request]
    if {"variances", "isotropic"} <= set(keys) and draw(st.integers(0, 3)) > 0:
        del request[keys.index(draw(st.sampled_from(["variances", "isotropic"])))]
    twist = draw(st.sampled_from(["none", "edge", "edge", "junk"]))
    if request and twist != "none":
        option = request[draw(st.integers(0, len(request) - 1))]
        numbers = st.one_of(_ORDINARY, _EDGE) if option[1] == "variances" else _EDGE
        option[3] = draw(_JUNK if twist == "junk" else _value_strategy(option[2], numbers))
    return request


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(request=_energy_requests())
def test_energy_fuzz_exits_cleanly(request, tmp_path_factory):
    argv = ["energy"]
    lines = []
    for where, key, action, text in request:
        if where == "flag":
            argv += _flag_argv(action, text)
        else:
            lines.append(f"{key}={text}")
    if lines:
        cfg = tmp_path_factory.getbasetemp() / "fuzz-energy.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        argv += ["--config", str(cfg)]
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, lines, err)
    if code == 0:
        payload = _strict_json(out)
        assert math.isfinite(payload["energy"])
        assert err == ""
    else:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, lines, err)


# --- closed-form scans: far out, byte-equal reference CSV, fuzz


@pytest.mark.parametrize(
    "geometry,far",
    [(["plane"], "1e+120"), (["gsphere", "--radius", "1"], "1e+60"),
     (["bosshat", "--radius", "1"], "1e+120")],
    ids=["plane", "gsphere", "bosshat"],
)
def test_closed_energy_far_out_matches_numeric_and_scan_rows(
    geometry, far, capsys, tmp_path
):
    # Far out, where a power of the lengths leaves the float range: the energy is
    # the numeric one within its err, and each scan row is energy_closed at its point.
    from vdwsurf.closed import energy_closed
    from vdwsurf.geometry import DipoleVariances, GeometryConfig, Position, VarianceFrame

    energies = {}
    for method in ("closed", "numeric"):
        code, out, err = run_cli(capsys, "energy", "--geometry", *geometry, "--isotropic", "1",
                                 "--z0", far, "--method", method)
        assert (code, err) == (0, "")
        energies[method] = json.loads(out)
    numeric = energies["numeric"]
    assert abs(energies["closed"]["energy"] - numeric["energy"]) <= (
        numeric["err_estimate"] + np.finfo(float).tiny)
    csv = tmp_path / "scan.csv"
    code, out, err = run_cli(capsys, "scan", "--geometry", *geometry, "--isotropic", "1",
                             "--from", "2", "--to", far, "--points", "600", "--out", str(csv))
    assert code == 0, err
    g = {"plane": GeometryConfig.plane(), "gsphere": GeometryConfig.grounded_sphere(1.0),
         "bosshat": GeometryConfig.boss_hat(1.0)}[geometry[0]]
    rows = [row.split(",") for row in csv.read_text().splitlines()[1:]]
    assert len(rows) == 600
    v = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL
                                  if geometry[0] == "bosshat" else VarianceFrame.CARTESIAN)
    want = [energy_closed(g, v, Position(0.0, 0.0, float(x))).value.hex() for x, *_ in rows]
    assert [float(value).hex() for _, value, *_ in rows] == want


@pytest.mark.parametrize(
    "geometry,variances,rho0,z0",
    [(["bosshat", "--radius", "1.3e30"], ["--variances", "0.5,1,2"], "1.3e30", "6.5e30"),
     (["gsphere", "--radius", "2.6e90"], ["--isotropic", "1"], "0", "5.2e90")],
    ids=["bosshat", "gsphere"],
)
def test_closed_energy_far_out_is_the_numeric_one(geometry, variances, rho0, z0, capsys):
    # where a power of the lengths leaves the float range but the energy does not
    energies = {}
    for method in ("closed", "numeric"):
        code, out, err = run_cli(capsys, "energy", "--geometry", *geometry, *variances,
                                 "--rho0", rho0, "--z0", z0, "--method", method)
        assert (code, err) == (0, "")
        energies[method] = json.loads(out)
    numeric = energies["numeric"]
    assert 0.0 < numeric["err_estimate"] <= 1e-13 * abs(numeric["energy"])
    assert abs(energies["closed"]["energy"] - numeric["energy"]) <= numeric["err_estimate"]


@pytest.mark.parametrize("geometry", ["gsphere", "isphere", "bosshat"])
def test_closed_energy_inside_a_huge_conductor_exits_3(geometry, capsys, tmp_path):
    # R = 1e200: |r0|^2 overflows, yet the atom at R/2 is inside the conductor
    for argv in (["energy", "--z0", "5e199"],
                 ["scan", "--from", "5e199", "--to", "3e200", "--points", "5",
                  "--out", str(tmp_path / "scan.csv")]):
        code, out, err = run_cli(capsys, *argv, "--geometry", geometry, "--radius", "1e200",
                                 "--isotropic", "1")
        assert (code, out) == (3, "") and "region violation" in err, (argv, err)


def _point_by_point_closed_csv(geometry, radius, variances, var, fixed, grid, normalize):
    """The scan CSV as the point-by-point loop wrote it before the closed
    route was batched: the closed route at each sorted grid value, a
    Position, the scale of each point applied with Python floats, one
    f-string a row."""
    from vdwsurf.closed import energy_closed
    from vdwsurf.geometry import GeometryConfig, Position, surface_distance

    g = {"plane": GeometryConfig.plane, "gsphere": GeometryConfig.grounded_sphere,
         "isphere": GeometryConfig.isolated_sphere, "bosshat": GeometryConfig.boss_hat}
    g = g[geometry]() if geometry == "plane" else g[geometry](radius)
    xs = sorted(float(x) for x in grid)
    rows = ["x,value,err,method\n"]
    for x in xs:
        rho0, z0 = (fixed, x) if var == "z0" else (x, fixed)
        result = energy_closed(g, variances, Position(rho0, 0.0, z0))
        if normalize == "none":
            scale = 1.0
        elif normalize == "R3":
            scale = radius**3
        else:
            scale = float(surface_distance(g, np.array([(rho0, 0.0, z0)]))[0]) ** 3
        value, err = result.value * scale, result.err_estimate * scale
        rows.append(f"{x:.17g},{value:.17g},{err:.17g},{result.method.value}\n")
    return "".join(rows).encode()


# (flags, swept variable, fixed coordinate, from, to) of each sweep; the
# near-contact ends sit 1e-6 R and, on a log grid, 1e-9 R from the surface
_CLOSED_SWEEPS = {
    "plane": [("z0", 0.0, 1e-6, 3.0, False), ("rho0", 0.7, -3.0, 3.0, False),
              ("z0", -0.4, 1e-9, 1e3, True)],
    "gsphere": [("z0", 0.0, 1.3 * (1 + 1e-6), 6.0, False), ("rho0", 1.5, -4.0, 4.0, False),
                ("z0", 0.0, 1.3 * (1 + 1e-9), 1e3, True)],
    "isphere": [("z0", -0.2, 0.8, 6.0, False), ("rho0", -0.9, -4.0, 4.0, False),
                ("z0", 0.0, 0.7 * (1 + 1e-9), 1e3, True)],
    "bosshat": [("z0", 0.4, 0.95, 5.0, False), ("rho0", 0.2, 0.99, 4.0, False),
                ("rho0", 1e-9, 1.0 + 1e-6, 1e2, True)],
}
_CLOSED_RADIUS = {"plane": None, "gsphere": 1.3, "isphere": 0.7, "bosshat": 1.0}
_CLOSED_POINTS = 5000   # past the closed route's chunk of 4096 points


def _closed_scan_cases():
    """Each sweep once, the three sweeps of a geometry under different
    normalisations (the plane has no R3)."""
    cases = []
    for geometry, sweeps in _CLOSED_SWEEPS.items():
        normalizations = ("a3", "none", "a3") if geometry == "plane" else ("none", "a3", "R3")
        for k, (sweep, normalize) in enumerate(zip(sweeps, normalizations)):
            cases.append(pytest.param(geometry, sweep, normalize,
                                      id=f"{geometry}-{sweep[0]}{k}-{normalize}"))
    return cases


@pytest.mark.parametrize("geometry,sweep,normalize", _closed_scan_cases())
def test_closed_scan_equals_the_point_by_point_csv(geometry, sweep, normalize, tmp_path):
    from vdwsurf.geometry import DipoleVariances, VarianceFrame

    var, fixed, lo, hi, log = sweep
    radius = _CLOSED_RADIUS[geometry]
    argv = ["scan", "--geometry", geometry, "--var", var, "--from", repr(lo), "--to", repr(hi),
            "--points", str(_CLOSED_POINTS), "--normalize", normalize,
            "--out", str(tmp_path / "scan.csv")]
    argv += ["--z0" if var == "rho0" else "--rho0", repr(fixed)]
    if radius is not None:
        argv += ["--radius", repr(radius)]
    if log:
        argv.append("--log")
    if geometry in ("gsphere", "isphere"):
        argv += ["--isotropic", "1.7"]
        variances = DipoleVariances.isotropic(1.7)
    else:
        argv += ["--variances", "0.5,1,2"]
        cylindrical = geometry == "bosshat"
        frame = VarianceFrame.CYLINDRICAL_LOCAL if cylindrical else VarianceFrame.CARTESIAN
        variances = DipoleVariances(0.5, 1.0, 2.0, frame)
    code, _, err = _run(argv)
    assert code == 0, err
    assert _CLOSED_POINTS > cli._SCAN_CHUNK["closed"]
    grid = np.geomspace(lo, hi, _CLOSED_POINTS) if log else np.linspace(lo, hi, _CLOSED_POINTS)
    want = _point_by_point_closed_csv(geometry, radius, variances, var, fixed, grid, normalize)
    assert (tmp_path / "scan.csv").read_bytes() == want


def test_non_finite_scaled_row_exits_2_naming_its_point(capsys, tmp_path):
    # near the plane far from the boss the energy, about 1/z0^3, is
    # finite; scaled by R^3 = 1e15 it overflows below z0 = 1e-99
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(
        capsys, "scan", "--geometry", "bosshat", "--radius", "1e5", "--isotropic", "1",
        "--rho0", "2e5", "--log", "--from", "1e-101", "--to", "1e-97", "--points", "600",
        "--normalize", "R3", "--out", str(out),
    )
    first = np.geomspace(1e-101, 1e-97, 600).tolist()[0]
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith(f"vdwsurf: at z0={first!r}: non-finite energy -inf (err 0.0)")
    assert not out.exists()


@pytest.mark.parametrize(
    "geometry, grid, normalize",
    [
        (("plane",), ("1", "1e120"), "a3"),
        (("gsphere", "--radius", "1e103"), ("2e103", "3e103"), "R3"),
    ],
    ids=["plane-a3", "gsphere-R3"],
)
def test_overflowing_normalization_exits_2_naming_option_and_point(
    geometry, grid, normalize, capsys, tmp_path
):
    # a distance or radius above ~5.6e102 has a cube beyond the float range
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(
        capsys, "scan", "--geometry", *geometry, "--isotropic", "1",
        "--from", grid[0], "--to", grid[1], "--normalize", normalize, "--out", str(out),
    )
    lo, hi = float(grid[0]), float(grid[1])
    first = next(x for x in np.linspace(lo, hi, 50).tolist() if x > 5.7e102)
    assert code == 2
    assert err == f"vdwsurf: at z0={first!r}: --normalize {normalize} overflows\n"
    assert not out.exists()


def test_plane_energy_where_16_z0_cubed_overflows_is_not_zero(capsys):
    energies = {}
    for method in ("closed", "numeric"):
        code, out, _ = run_cli(
            capsys, "energy", "--geometry", "plane", "--isotropic", "1", "--z0", "2.5e102",
            "--method", method,
        )
        assert code == 0
        energies[method] = json.loads(out)["energy"]
    assert energies["closed"] < 0.0
    assert energies["closed"] == pytest.approx(energies["numeric"], rel=1e-10)


def test_normalized_plane_scan_stays_at_minus_one_twelfth_up_to_the_cube_overflow(
    capsys, tmp_path
):
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, "scan", "--geometry", "plane", "--isotropic", "1", "--method", "closed",
        "--from", "1e100", "--to", "5e102", "--points", "3", "--normalize", "a3",
        "--out", str(out),
    )
    assert code == 0
    values = [float(row.split(",")[1]) for row in out.read_text().splitlines()[1:]]
    assert values == pytest.approx([-1.0 / 12.0] * 3, rel=1e-12)


@pytest.mark.parametrize("suite", ["bc", "symmetry", "limits", "threeway", "all"])
def test_validate_rejects_a_negative_seed(suite, capsys):
    code, out, err = run_cli(capsys, "validate", "--suite", suite, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "vdwsurf: --seed must be >= 0, not -1\n"


@pytest.mark.parametrize(
    "required,defaults",
    [
        (["energy", "--geometry", "bosshat", "--radius", "1.5", "--z0", "1.7",
          "--variances", "0.5,1,2"],
         ["--method", "closed", "--units", "reduced", "--rho0", "0.0"]),
        (["scan", "--geometry", "bosshat", "--radius", "1.5", "--variances", "0.5,1,2",
          "--from", "1.6", "--to", "3"],
         ["--method", "closed", "--units", "reduced", "--rho0", "0.0", "--var", "z0",
          "--points", "50", "--normalize", "none"]),
        (["validate"], ["--suite", "all", "--seed", "0"]),
    ],
    ids=["energy", "scan", "validate"],
)
def test_the_defaults_are_the_documented_ones(required, defaults, tmp_path):
    def output(name, argv):
        if argv[0] == "scan":
            argv = argv + ["--out", str(tmp_path / f"{name}.csv")]
        code, out, err = _run(argv)
        assert code == 0, err
        return out if argv[0] != "scan" else (tmp_path / f"{name}.csv").read_bytes()

    bare = output("bare", required)
    assert bare
    assert output("spelled-out", required + defaults) == bare


_SCAN_OPTIONS = [(key, action) for key, action in _config_options("scan") if key != "out"]
_SCAN_METHODS = ["closed", "numeric", "oracle", "expansion3"]
_POINTS = st.integers(1, 12).map(str)
_BAD_POINTS = st.sampled_from(["0", "-1", "1.5", "x", ""])


@st.composite
def _scan_requests(draw):
    """Options of a scan command besides --out, as in _energy_requests;
    the method is drawn from all four. --geometry, --from, --to and
    --points are always given, so that more requests get as far as an
    energy, and the point count stays small (at most 12, or one of a
    few invalid counts)."""
    request = []
    for key, action in _SCAN_OPTIONS:
        always = key in ("geometry", "from", "to", "points")
        where = draw(st.sampled_from(([] if always else ["absent"]) + ["flag", "config"] * 3))
        if where == "absent":
            continue
        if key == "points":
            text = draw(_POINTS)
        elif action.nargs == 0:
            text = draw(st.sampled_from(["yes", "no"]))
        else:
            text = draw(_value_strategy(action, _ORDINARY))
        request.append([where, key, action, text])
    if draw(st.booleans()):
        # an on-axis near-contact sweep, inside the window of every method
        radius = draw(st.floats(0.1, 10.0))
        s = sorted(draw(st.lists(st.floats(1e-6, 0.45), min_size=2, max_size=2)))
        near = {"geometry": draw(st.sampled_from(["gsphere", "bosshat"])), "radius": radius,
                "from": radius * (1.0 + s[0]), "to": radius * (1.0 + s[1]), "rho0": 0.0,
                "var": "z0", "isotropic": draw(st.floats(0.1, 10.0)),
                "method": draw(st.sampled_from(_SCAN_METHODS))}
        request = [option for option in request
                   if option[1] not in near and option[1] != "variances"]
        for key, value in near.items():
            action = dict(_SCAN_OPTIONS)[key]
            request.append([draw(st.sampled_from(["flag", "config"])), key, action, str(value)])
    keys = [key for _, key, _, _ in request]
    if {"variances", "isotropic"} <= set(keys) and draw(st.integers(0, 3)) > 0:
        del request[keys.index(draw(st.sampled_from(["variances", "isotropic"])))]
    twist = draw(st.sampled_from(["none", "none", "edge", "edge", "junk"]))
    if request and twist != "none":
        option = request[draw(st.integers(0, len(request) - 1))]
        if twist == "junk":
            option[3] = draw(_JUNK)
        elif option[1] == "points":
            option[3] = draw(_BAD_POINTS)
        elif option[2].type in (cli._finite, cli._parse_variances):
            numbers = st.one_of(_ORDINARY, _EDGE) if option[1] == "variances" else _EDGE
            option[3] = draw(_value_strategy(option[2], numbers))
    return request


@settings(max_examples=60, derandomize=True, deadline=None)
@given(request=_scan_requests())
def test_scan_fuzz_exits_cleanly(request, tmp_path_factory):
    base = tmp_path_factory.getbasetemp()
    csv = base / "fuzz-scan.csv"
    if csv.exists():
        csv.unlink()
    argv = ["scan", "--out", str(csv)]
    lines = []
    for where, key, action, text in request:
        if where == "flag":
            argv += _flag_argv(action, text)
        else:
            lines.append(f"{key}={text}")
    if lines:
        cfg = base / "fuzz-scan.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        argv += ["--config", str(cfg)]
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, lines, err)
    assert out == ""
    if code == 0:
        points = next(int(text) for _, key, _, text in request if key == "points")
        rows = csv.read_text().splitlines()
        assert rows[0] == "x,value,err,method"
        assert len(rows) == points + 1, (argv, lines)
        for row in rows[1:]:
            assert all(math.isfinite(float(field)) for field in row.split(",")[:3]), (argv, row)
        assert err == ""
    else:
        assert not csv.exists(), (argv, lines, err)
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, lines, err)
