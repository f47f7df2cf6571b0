"""Time perfbench's requests through two vdwsurf packages in one process,
request by request, and compare their outputs.

    PYTHONPATH=src python scripts/interleaved_requests.py --parent ../parent/src \
        [--workload W|all] [--rounds N] [--seed S]

SRC_DIR is the directory that holds the other package (the parent
commit's `src`). It is copied to a temporary directory as
`vdwsurf_parent`, which its relative imports allow, so both `main`s live
in this interpreter. Each request of `rounds` rounds of
`perfbench/workloads.make_round` (after one warm-up round, untimed) goes
through both, alternating which runs first. Each run's CPU time
(`time.process_time`) is scaled to the reference machine by the mean of
the reference timings just before and just after it, as
`perfbench/child.py` scales a request. Side by side, the two see the
same machine speed, which separate perfbench runs on a shared machine
do not.

Prints one line per workload: the requests timed, the p50 of each side
in milliseconds at reference speed, the median per-request ratio
(this tree over the parent), how many requests this tree ran faster,
and how many requests' outputs (exit code, stdout, stderr and the scan
CSV) differ in any byte. Exits 0 whatever it measures; 2 on a bad
argument.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from reference import reference_cpu_s, scaled  # noqa: E402
from workloads import WARMUP_ROUND, WORKLOADS, make_round  # noqa: E402


def _send(main, argv: list[str], out: str) -> tuple[float, tuple]:
    """(CPU seconds, output) of one command line: the output is the exit
    code, stdout, stderr and the bytes of the file out, if it was written."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.process_time()
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejects argv
            code = exc.code
        cpu = time.process_time() - start
    written = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            written = fh.read()
        os.remove(out)
    return cpu, (code, stdout.getvalue(), stderr.getvalue(), written)


def compare(mains: dict, workload: str, seed: int, rounds: int, scratch: str) -> dict:
    """Scaled seconds of each side per request, and the requests whose
    outputs differ."""
    times = {side: [] for side in mains}
    differ = 0
    for index in [WARMUP_ROUND] + list(range(rounds)):
        for i, request in enumerate(make_round(workload, seed, index)):
            order = list(mains) if i % 2 == 0 else list(mains)[::-1]
            outputs = {}
            ref = reference_cpu_s()
            for side in order:
                out = os.path.join(scratch, f"{side}.csv")
                cpu, outputs[side] = _send(mains[side], request.argv(out), out)
                ref_after = reference_cpu_s()
                if index != WARMUP_ROUND:
                    times[side].append(scaled(cpu, 0.5 * (ref + ref_after)))
                ref = ref_after
            if index != WARMUP_ROUND:
                differ += len(set(outputs.values())) != 1
    return {"times": times, "differ": differ}


def report(workload: str, result: dict) -> str:
    change, parent = result["times"]["change"], result["times"]["parent"]
    ratios = [c / p for c, p in zip(change, parent)]
    faster = sum(c < p for c, p in zip(change, parent))
    return (f"{workload}: {len(change)} requests, p50 change {1e3 * statistics.median(change):.4g} ms, "
            f"parent {1e3 * statistics.median(parent):.4g} ms, median change/parent "
            f"{statistics.median(ratios):.4f}, change faster in {faster}, "
            f"{result['differ']} outputs differ")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="SRC_DIR",
                        help="directory holding the parent's vdwsurf package")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    package = os.path.join(args.parent, "vdwsurf")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        parser.error(f"no vdwsurf package under {args.parent!r}")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    import vdwsurf.cli

    with tempfile.TemporaryDirectory() as scratch:
        shutil.copytree(package, os.path.join(scratch, "vdwsurf_parent"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, scratch)
        parent_cli = importlib.import_module("vdwsurf_parent.cli")
        mains = {"change": vdwsurf.cli.main, "parent": parent_cli.main}
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            print(report(workload, compare(mains, workload, args.seed, args.rounds, scratch)),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
