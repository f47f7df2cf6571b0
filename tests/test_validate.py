import numpy as np
import pytest

from test_images import _surface_sample_reference
from vdwsurf import validate
from vdwsurf.geometry import Position
from vdwsurf.validate import (
    _sources_bosshat,
    run_all,
    run_suite,
    suite_bc,
    suite_limits,
    suite_symmetry,
    suite_threeway,
)


def test_bc_suite_passes():
    report = suite_bc(seed=42, n_pairs=200)
    assert report.passed, "\n".join(report.lines())
    names = [c.name for c in report.checks]
    assert any("plane" in n for n in names)
    assert any("gsphere" in n for n in names)
    assert any("bosshat" in n for n in names)
    assert any("isolated" in n for n in names)


def test_isolated_sphere_gradient_is_exact_at_a_seed_finite_differences_failed():
    # the central-difference gradient gave 1.060e-9 here, over the 1e-9 tolerance
    check = suite_bc(seed=5864892553).checks[-1]
    assert check.name == "isolated-sphere gradient condition"
    assert check.passed and check.residual < 1e-13, check.line()


def test_symmetry_suite_passes():
    report = suite_symmetry(seed=42, n_pairs=200)
    assert report.passed, "\n".join(report.lines())
    assert all(c.residual <= 1e-11 for c in report.checks)


def test_limits_suite_passes():
    report = suite_limits()
    assert report.passed, "\n".join(report.lines())


def test_threeway_suite_passes():
    report = suite_threeway()
    assert report.passed, "\n".join(report.lines())
    assert all(c.tolerance == 1e-5 for c in report.checks)


def test_reports_are_deterministic_for_fixed_seed():
    a = suite_bc(seed=7, n_pairs=50)
    b = suite_bc(seed=7, n_pairs=50)
    assert a == b
    c = suite_bc(seed=8, n_pairs=50)
    assert c != a


def test_run_suite_dispatch():
    assert run_suite("symmetry", seed=1).suite == "symmetry"
    with pytest.raises(ValueError):
        run_suite("nosuch")
    reports = run_all(seed=1)
    assert [r.suite for r in reports] == ["bc", "symmetry", "limits", "threeway"]
    assert all(r.passed for r in reports)


def test_report_lines_format():
    report = suite_limits()
    lines = report.lines()
    assert lines[0].startswith("suite limits:")
    assert any("PASS" in line for line in lines[1:])
    assert all(("PASS" in line) or ("FAIL" in line) for line in lines[1:])


def _sources_bosshat_reference(rng, n, radius):
    """_sources_bosshat as a loop drawing one point at a time, kept as
    the reference of the block draw."""
    points = []
    while len(points) < n:
        x, y = rng.uniform(-2.0, 2.0, size=2)
        z = rng.uniform(0.05, 2.0)
        p = Position(float(x), float(y), float(z))
        if p.norm > radius * 1.05:
            points.append(p)
    return np.array([(p.x, p.y, p.z) for p in points])


@pytest.mark.parametrize("radius", [0.5, 1.0, 1.9])
@pytest.mark.parametrize("n", [1, 2, 7, 50, 200, 1000, 1001])
def test_bosshat_sources_equal_the_loop_bit_for_bit(n, radius):
    for seed in range(50):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        points = _sources_bosshat(rng, n, radius)
        want = _sources_bosshat_reference(reference_rng, n, radius)
        assert points.shape == (n, 3)
        assert points.tobytes() == want.tobytes()
        # the symmetry suite draws its second set from the same generator
        assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("radius", [12.0**0.5 / 1.05, 4.0, float("inf"), float("nan")])
def test_bosshat_sources_reject_a_radius_that_leaves_no_point(radius):
    with pytest.raises(ValueError, match=f"R={radius!r}"):
        _sources_bosshat(np.random.default_rng(0), 10, radius)


@pytest.mark.parametrize("seed", range(8))
def test_reports_equal_those_of_the_loop_samplers(seed, monkeypatch):
    def surface_reference(g, n, rng_seed):
        return np.array([(p.x, p.y, p.z) for p in _surface_sample_reference(g, n, rng_seed)])

    want = [r.lines() for r in run_all(seed)]
    monkeypatch.setattr(validate, "_sources_bosshat", _sources_bosshat_reference)
    monkeypatch.setattr(validate, "surface_sample", surface_reference)
    assert [r.lines() for r in run_all(seed)] == want


@pytest.mark.parametrize("suite", [suite_bc, suite_symmetry])
@pytest.mark.parametrize("n_pairs", [0, -3])
def test_suites_reject_fewer_than_one_pair(suite, n_pairs):
    with pytest.raises(ValueError, match=f"^n_pairs must be >= 1, not {n_pairs}$"):
        suite(seed=0, n_pairs=n_pairs)


def test_bosshat_energy_plane_limit_is_exact_in_the_corrected_form():
    # the transcribed factors gave 2.058e-09 here, their off-axis error
    check = next(c for c in suite_limits().checks if c.name.startswith("bosshat energy"))
    assert check.name == "bosshat energy reduces to plane at R=1e-6"
    assert check.residual < 1e-12, check.line()


def test_reports_never_call_the_transcribed_form(monkeypatch):
    def transcribed(*args, **kwargs):
        raise AssertionError("validate called vdwsurf._errata.u_bosshat")

    monkeypatch.setattr(validate, "u_bosshat", transcribed)
    reports = run_all(0)
    assert all(r.passed for r in reports), "\n".join(line for r in reports for line in r.lines())


def test_threeway_reads_each_route_from_the_module_at_call_time(monkeypatch):
    calls = []

    def counted(name, route):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return route(*args, **kwargs)
        return wrapper

    for name in ("energy_closed", "energy_numeric", "extrapolated_energy"):
        monkeypatch.setattr(validate, name, counted(name, getattr(validate, name)))
    assert suite_threeway().passed
    assert sorted(calls) == sorted(["energy_closed", "energy_numeric", "extrapolated_energy"] * 5)
