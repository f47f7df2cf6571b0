"""What a command loads: `import vdwsurf, vdwsurf.cli` imports only the
modules every command uses, and each route's module loads on the first
command that runs it. Each check runs in a fresh interpreter, as a
command line does, since this process has loaded every module."""

import json
import os
import subprocess
import sys

import pytest

import vdwsurf

SRC = os.path.dirname(os.path.dirname(os.path.abspath(vdwsurf.__file__)))

# Runs one command line after `import vdwsurf, vdwsurf.cli`; prints the
# vdwsurf modules loaded before and after it, and its exit code.
_LOADS = """
import contextlib, io, json, sys
import vdwsurf, vdwsurf.cli

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "vdwsurf")

before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = vdwsurf.cli.main(sys.argv[1:])
    except SystemExit as exc:   # --help
        code = exc.code
print(json.dumps({"before": before, "after": loaded(), "code": code}))
"""

STARTUP = ["vdwsurf", "vdwsurf.cli", "vdwsurf.errors", "vdwsurf.geometry", "vdwsurf.units"]


def _fresh(script, *argv):
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _loads(*argv):
    """The vdwsurf submodules a command line adds to the start-up set."""
    seen = _fresh(_LOADS, *argv)
    assert seen["before"] == STARTUP
    assert seen["code"] == 0
    return {m.partition(".")[2] for m in set(seen["after"]) - set(seen["before"])}


def _scan(tmp_path, *flags):
    return ["scan", "--geometry", "bosshat", "--radius", "1", "--isotropic", "1",
            "--from", "1.5", "--to", "3", "--out", str(tmp_path / "scan.csv"), *flags]


def test_import_loads_only_what_every_command_uses():
    assert _loads("--help") == set()   # _loads checks the start-up set itself


def test_numeric_scan_loads_its_route_and_no_other(tmp_path):
    added = _loads(*_scan(tmp_path, "--method", "numeric"))
    assert {"evaluator", "images"} <= added
    assert not added & {"closed", "oracle", "validate", "_g17"}


def test_energy_loads_the_closed_forms_only():
    added = _loads("energy", "--geometry", "plane", "--z0", "1", "--isotropic", "1")
    assert added == {"closed"}


@pytest.mark.parametrize("rows,formatter", [(199, False), (200, True)])
def test_closed_scan_loads_the_csv_pass_from_its_row_count(tmp_path, rows, formatter):
    added = _loads(*_scan(tmp_path, "--points", str(rows)))
    assert "closed" in added
    assert ("_g17" in added) is formatter


def test_validate_never_loads_the_csv_pass():
    added = _loads("validate", "--suite", "all")
    assert {"validate", "evaluator", "oracle", "images", "closed"} <= added
    assert "_g17" not in added


# Binds a spy to a deferred name of vdwsurf.cli before any command runs,
# then runs one; prints the arguments the spy saw and whether the name
# holds the library's function again once the spy is taken away.
_SPY = """
import contextlib, importlib, io, json, sys
import pytest
import vdwsurf.cli

name, source, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
seen = []

def spy(*args, **kwargs):
    seen.append(repr(args[0]))
    return getattr(importlib.import_module(source), name)(*args, **kwargs)

with pytest.MonkeyPatch.context() as monkeypatch:
    monkeypatch.setattr(vdwsurf.cli, name, spy)
    with contextlib.redirect_stdout(io.StringIO()):
        code = vdwsurf.cli.main(argv)
restored = getattr(vdwsurf.cli, name) is getattr(importlib.import_module(source), name)
print(json.dumps({"seen": seen, "code": code, "restored": restored}))
"""


def test_a_wrapper_bound_before_any_command_runs_the_numeric_route(tmp_path):
    got = _fresh(_SPY, "energy_numeric", "vdwsurf.evaluator",
                 *_scan(tmp_path, "--method", "numeric", "--points", "7"))
    assert got == {"seen": ["GeometryConfig(kind=<GeometryKind.BOSS_HAT: 'bosshat'>, radius=1.0)"],
                   "code": 0, "restored": True}


def test_a_wrapper_bound_before_any_command_runs_the_suite():
    got = _fresh(_SPY, "run_suite", "vdwsurf.validate", "validate", "--suite", "limits")
    assert got == {"seen": ["'limits'"], "code": 0, "restored": True}
