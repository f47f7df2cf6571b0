"""Layered benchmark of the vdwsurf CLI.

    python3 perfbench/run.py --workload scan-numeric --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Run from the root of a checkout. Each run times the import of the
package in fresh interpreters (`setup_s`), then starts one fresh child
interpreter with a pinned environment that sends the workload's
requests through `vdwsurf.cli.main` (see child.py and workloads.py).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics named in
BENCHMARK.json with `--trace 0`, its per-layer metrics, from a traced
replay, with `--trace 1`.
Lines before it give every metric with its unit. A full report, with
the environment, the SHA-256 digest of every request's output and the
recorded spans, goes to `.perfbench-results/` in the checkout.
`--workload all` runs every workload traced and untraced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reference import scaled  # noqa: E402
from workloads import TAIL_PERCENTILE, WORKLOADS  # noqa: E402

RESULTS = os.path.join(ROOT, ".perfbench-results")
SETUP_REPEATS = 15           # fresh interpreters timed per run, after one discarded
CHILD_TIMEOUT_S = 150

# Times the import of the package in a fresh interpreter, with the
# reference timed three times before and three times after it; prints
# the CPU time of the import and the median of the six references.
_IMPORT_PROBE = (
    "import sys, time; sys.path.append(sys.argv[1]); import reference; "
    "refs = [reference.reference_cpu_s() for _ in range(3)]; "
    "t = time.process_time(); import vdwsurf, vdwsurf.cli; t = time.process_time() - t; "
    "refs = sorted(refs + [reference.reference_cpu_s() for _ in range(3)]); "
    "print(repr(t), repr((refs[2] + refs[3]) / 2))"
)


def load_spec() -> tuple[tuple[str, ...], tuple[str, ...], dict[str, str]]:
    """(end-to-end names, per-layer names, unit of each) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    groups = [tuple(m["name"] for m in spec[g]) for g in ("end_to_end", "per_layer")]
    units = {m["name"]: m["unit"] for g in ("end_to_end", "per_layer") for m in spec[g]}
    return groups[0], groups[1], units


PINNED_ENV = {
    **{var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                            "NUMEXPR_NUM_THREADS")},
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": os.path.join(ROOT, "src"),
}


def child_env() -> dict[str, str]:
    """The environment of every interpreter a run starts: VDW_THREADS
    removed, PINNED_ENV set."""
    env = {k: v for k, v in os.environ.items() if k != "VDW_THREADS"}
    env.update(PINNED_ENV)
    return env


def measure_setup(env: dict[str, str]) -> list[tuple[float, float]]:
    """(import CPU time of vdwsurf and vdwsurf.cli, reference CPU time
    around it) in fresh interpreters; the first, which may compile
    bytecode, is dropped."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, HERE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        setup, ref = map(float, out.stdout.split())
        samples.append((setup, ref))
    return samples[1:]


def tail(latencies: list[float], p: float) -> tuple[float, int]:
    """(value, samples beyond it) of the nearest-rank p-th percentile."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(raw: dict, setup: list[tuple[float, float]]) -> tuple[dict[str, float], dict]:
    """Times are CPU time of the child process, which leaves out the time
    the host of a shared virtual machine takes the CPU away, scaled by
    the reference timed around each request, which takes out the changes
    of machine speed (see reference.py). For this single-threaded
    program CPU time is the wall time an unshared CPU shows."""
    rounds = raw["rounds"]
    latencies = raw["latencies_scaled_s"]
    tail_p = TAIL_PERCENTILE[raw["workload"]]
    tail_value, beyond = tail(latencies, tail_p)
    metrics = {
        "setup_s": statistics.median(scaled(t, ref) for t, ref in setup),
        "round_s": statistics.median(r["scaled_s"] for r in rounds),
        "ops_per_s": statistics.median(r["ops"] / r["scaled_s"] for r in rounds),
        "request_p50_ms": statistics.median(latencies) * 1e3,
        "request_tail_ms": tail_value * 1e3,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    info = {"tail_percentile": tail_p, "tail_beyond": beyond, "requests": len(latencies),
            "rounds": len(rounds), "setup_samples": len(setup)}
    return metrics, info


def per_layer(raw: dict) -> dict[str, float]:
    metrics = dict(raw["trace"]["metrics"])
    for route, acc in raw["accuracy"].items():
        metrics[f"{route}.max_rel_dev"] = acc["max_rel_dev"]
        metrics[f"{route}.err_covered"] = acc["covered"] / acc["checked"] if acc["checked"] else 0.0
        metrics[f"{route}.checked_points"] = acc["checked"]
    return metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(raw: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": raw["python"],
        "numpy": raw["numpy"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "client": "closed loop, 1 client, 1 process, 1 thread",
        "pinned_env": {**PINNED_ENV, "VDW_THREADS": None},
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: setup timings, one child, metrics. Raises on a broken run."""
    env = child_env()
    setup = measure_setup(env)
    run_dir = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}")
    params = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "scratch": run_dir}
    child = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), json.dumps(params)],
                           env=env, cwd=ROOT, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(f"child exited {child.returncode}: {child.stderr.strip()[-2000:]}")
    raw = json.loads(child.stdout.strip().splitlines()[-1])
    e2e, info = end_to_end(raw, setup)
    layers = per_layer(raw) if trace else {}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(raw),
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"], "failed": raw["failed"],
        "error_rate": raw["failed"] / raw["attempted"],
        "problems": raw["problems"],
        "end_to_end": e2e, "per_layer": layers, "info": info,
        "setup_samples_s": setup,
        "rounds": raw["rounds"],
        **{k: v for k, v in raw.items() if k.startswith("latencies_")},
        "output_sha256": raw["digests"],
        "traced_outputs_identical": raw.get("trace", {}).get("same_outputs"),
    }
    with open(os.path.join(run_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report: dict, units: dict[str, str]) -> None:
    info = report["info"]
    env = report["environment"]
    traced = ", traced" if report["trace"] else ""
    print(f"# {report['workload']} seed {report['seed']}{traced}: {info['rounds']} rounds, "
          f"{info['requests']} requests, {report['attempted']} ops")
    print(f"# python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"{env['cpu_model']}, commit {env['git_commit']}")
    print(f"error_rate {report['error_rate']:.6g} ({report['failed']} failed / "
          f"{report['attempted']} attempted)")
    for name, value in report["end_to_end"].items():
        note = ""
        if name == "request_tail_ms":
            note = (f" (p{info['tail_percentile']:g} of {info['requests']} requests, "
                    f"{info['tail_beyond']} beyond it)")
        elif name == "setup_s":
            note = f" (median of {info['setup_samples']} fresh interpreters)"
        print(f"{name} {value:.6g} {units[name]}{note}")
    for name, value in report["per_layer"].items():
        print(f"{name} {value:.6g} {units[name]}")
    for problem in report["problems"]:
        print(f"! {problem}")


def result_line(report: dict, names: tuple[str, ...], units: dict[str, str]) -> str:
    metrics = {**report["end_to_end"], **report["per_layer"]}
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vdwsurf", "cli.py")):
        sys.stderr.write(f"perfbench: no vdwsurf sources under {ROOT}/src\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("perfbench: --seconds must be positive\n")
        return 2
    try:
        end_to_end_names, per_layer_names, units = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"perfbench: cannot read BENCHMARK.json: {exc}\n")
        return 2
    try:
        if args.workload != "all":
            report = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            print_report(report, units)
            print(result_line(report, per_layer_names if args.trace else end_to_end_names, units))
            return 0
        reports = []
        for workload in WORKLOADS:
            for trace in (False, True):
                report = run_one(workload, args.seed, args.seconds, trace)
                print_report(report, units)
                reports.append(report)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        sys.stderr.write(f"perfbench: run failed: {exc}\n")
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            f"{r['workload']}/{n}": {"value": v, "unit": units[n]}
            for r in reports
            for n, v in (r["per_layer"] if r["trace"] else r["end_to_end"]).items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
