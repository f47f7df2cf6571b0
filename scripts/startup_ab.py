"""Time the start-up of two vdwsurf packages in fresh interpreters,
alternating which runs first, and list what each command loads.

    PYTHONPATH=src python scripts/startup_ab.py --parent ../parent/src [--rounds N]

SRC_DIR is the directory that holds the other package (the parent
commit's `src`); this tree's package is the one `import vdwsurf` finds.
Each round times, for each side, alternating which runs first:

- perfbench's own import probe (`_IMPORT_PROBE` of perfbench/run.py):
  the CPU time of `import vdwsurf, vdwsurf.cli` in a fresh interpreter,
  scaled by the reference timed around it, as `setup_s` is;
- one fresh process per command of COMMANDS, run as the console script
  runs it: its CPU time (user and system, from the rusage of children)
  scaled by the reference timed in this process around it. The time
  includes the interpreter and numpy.

Each is timed with bytecode writes off, then on. Off sets
PYTHONDONTWRITEBYTECODE=1 and runs copies of the packages that hold no
`__pycache__`, so every interpreter compiles the package from source,
as perfbench's probe does where that variable is set. On removes the
variable and runs other copies, whose bytecode the first round, which
is not timed, writes.

Prints, per mode, each item's median of each side in milliseconds at
reference speed, the ratio of the medians (this tree over the parent)
and in how many rounds this tree ran faster; then the vdwsurf modules
each command loaded on each side, and a line for any command that did
not exit 0. Exits 0 whatever it measures; 2 on a bad argument.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

from reference import reference_cpu_s, scaled  # noqa: E402
from run import _IMPORT_PROBE, child_env  # noqa: E402

_BOSSHAT = ["--geometry", "bosshat", "--radius", "1", "--isotropic", "1"]
_NEAR = ["--from", "1.000001", "--to", "1.4", "--log"]

# command lines timed one fresh process each; a scan also gets --out, a temporary file
COMMANDS = {
    "energy closed": ["energy", *_BOSSHAT, "--rho0", "0.4", "--z0", "1.5"],
    "scan closed 800": ["scan", *_BOSSHAT, "--from", "1.05", "--to", "5", "--points", "800"],
    "scan numeric 40": ["scan", *_BOSSHAT, "--from", "1.05", "--to", "5", "--points", "40",
                        "--method", "numeric"],
    "scan oracle 12": ["scan", *_BOSSHAT, "--from", "1.05", "--to", "5", "--points", "12",
                       "--method", "oracle"],
    "scan expansion3 50": ["scan", *_BOSSHAT, *_NEAR, "--method", "expansion3"],
    "validate bc": ["validate", "--suite", "bc"],
}
PROBE = "import probe (setup_s)"
MODES = ("off", "on")
SIDES = ("parent", "change")

# The console script's main, then the vdwsurf modules loaded, as the
# last line of stdout.
_RUN_COMMAND = (
    "import sys; from vdwsurf.cli import main; code = main(sys.argv[1:]); "
    "print(' '.join(sorted(m for m in sys.modules if m.partition('.')[0] == 'vdwsurf'))); "
    "sys.exit(code)"
)


def _reference_s() -> float:
    """The median of three reference timings in this process."""
    return statistics.median(reference_cpu_s() for _ in range(3))


def _probe(env: dict[str, str]) -> float:
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, PERFBENCH], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    setup, ref = map(float, out.stdout.split())
    return scaled(setup, ref)


def _command(env: dict[str, str], argv: list[str]) -> tuple[float, int, str]:
    """(scaled CPU seconds, exit code, last line of stdout, or of stderr
    if it failed) of one fresh process."""
    ref = _reference_s()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run([sys.executable, "-c", _RUN_COMMAND, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    ref = 0.5 * (ref + _reference_s())
    lines = (done.stdout if done.returncode == 0 else done.stderr).strip().splitlines()
    return scaled(cpu, ref), done.returncode, lines[-1] if lines else ""


def _copies(packages: dict[str, str], workdir: str) -> dict[tuple[str, str], str]:
    """A fresh copy of each side's package per mode, without bytecode:
    the directory to put on PYTHONPATH, by (mode, side)."""
    paths = {}
    for mode in MODES:
        for side, package in packages.items():
            path = os.path.join(workdir, mode, side)
            shutil.copytree(package, os.path.join(path, "vdwsurf"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            paths[mode, side] = path
    return paths


def measure(packages: dict[str, str], rounds: int, workdir: str) -> dict:
    paths = _copies(packages, workdir)
    base = child_env()
    base.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = {(mode, item, side): [] for mode in MODES for item in (PROBE, *COMMANDS)
               for side in SIDES}
    loads, failures = {}, {}
    for index in range(-1, rounds):   # round -1 writes the bytecode of "on" and is not timed
        for mode in MODES:
            for k, item in enumerate((PROBE, *COMMANDS)):
                order = SIDES if (index + k) % 2 == 0 else SIDES[::-1]
                for side in order:
                    env = dict(base, PYTHONPATH=paths[mode, side])
                    if mode == "off":
                        env["PYTHONDONTWRITEBYTECODE"] = "1"
                    if item == PROBE:
                        seconds = _probe(env)
                    else:
                        out = os.path.join(workdir, "scan.csv")
                        argv = COMMANDS[item] + (["--out", out] if item.startswith("scan") else [])
                        seconds, code, last = _command(env, argv)
                        if code != 0:
                            failures[mode, item, side] = f"exit {code}: {last}"
                        elif mode == "off":
                            loads[item, side] = last
                    if index >= 0:
                        samples[mode, item, side].append(seconds)
    return {"samples": samples, "loads": loads, "failures": failures}


def report(result: dict, rounds: int) -> list[str]:
    samples = result["samples"]
    lines = []
    for mode in MODES:
        lines.append(f"bytecode writes {mode}: median ms at reference speed over {rounds} rounds")
        lines.append(f"  {'item':<24}{'parent':>9}{'change':>9}{'ratio':>8}  change faster")
        for item in (PROBE, *COMMANDS):
            parent, change = samples[mode, item, "parent"], samples[mode, item, "change"]
            p, c = statistics.median(parent), statistics.median(change)
            faster = sum(x < y for x, y in zip(change, parent))
            lines.append(f"  {item:<24}{1e3 * p:>9.1f}{1e3 * c:>9.1f}{c / p:>8.3f}"
                         f"  {faster} of {rounds}")
    lines.append("vdwsurf modules loaded by each command (prefix vdwsurf. left out)")
    for item in COMMANDS:
        for side in SIDES:
            names = result["loads"].get((item, side), "")
            short = " ".join(n.partition(".")[2] or n for n in names.split())
            lines.append(f"  {item} ({side}): {short}")
    for (mode, item, side), text in sorted(result["failures"].items()):
        lines.append(f"! {item} ({side}, bytecode writes {mode}) {text}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="SRC_DIR",
                        help="directory holding the parent's vdwsurf package")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    parent = os.path.join(args.parent, "vdwsurf")
    if not os.path.isfile(os.path.join(parent, "cli.py")):
        parser.error(f"no vdwsurf package under {args.parent!r}")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    import vdwsurf

    packages = {"parent": parent, "change": os.path.dirname(os.path.abspath(vdwsurf.__file__))}
    with tempfile.TemporaryDirectory() as workdir:
        result = measure(packages, args.rounds, workdir)
    print("\n".join(report(result, args.rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
