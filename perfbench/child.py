"""One benchmark run inside a fresh interpreter.

    python3 perfbench/child.py '{"workload": ..., "seed": ..., "seconds": ...,
                                 "trace": ..., "scratch": ...}'

Sends the workload's rounds of requests through `vdwsurf.cli.main`, in
process, one at a time (a closed loop with one client), until the timed
rounds add up to `seconds`. The reference computation (reference.py)
is timed between every two requests, and each request's CPU time is
scaled by the mean of the two around it. A warm-up round with inputs
of its own runs first. Outputs are checked after each round, outside
the timed region.
With `trace` set, the first rounds are then replayed with every traced
binding wrapped. Prints one JSON object with the raw measurements.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from typing import NamedTuple

import numpy as np
import vdwsurf.cli

from checks import CheckState, check_scan, check_suite
from reference import reference_cpu_s, scaled
from workloads import WARMUP_ROUND, ScanRequest, make_round


class Reply(NamedTuple):
    scaled_s: float    # cpu_s at reference speed (reference.scaled)
    cpu_s: float
    wall_s: float
    ref_s: float       # mean reference time just before and just after
    code: object       # exit code, or the text of what went wrong
    output: str        # the CSV for a scan, the report for a suite


def _send(request, out: str) -> tuple[float, float, object, str]:
    """(CPU latency, wall latency, exit code or exception text, stdout) of
    one request."""
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = request.argv(out)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = vdwsurf.cli.main(argv)
        except SystemExit as exc:     # argparse rejects argv
            code = exc.code
        except Exception as exc:      # a traceback is a failed request
            code = f"{type(exc).__name__}: {exc}"
        cpu, latency = time.process_time() - cpu_start, time.perf_counter() - start
    if code != 0:
        code = f"{code} {stderr.getvalue().strip()[:200]}"
    return cpu, latency, code, stdout.getvalue()


def _run_round(requests, scratch: str, on_request=None) -> tuple[dict, list[Reply]]:
    """Send a round back to back, timing the reference before the first
    request and after each; returns ({"scaled_s", "cpu_s", "wall_s"} of
    the round, one Reply per request). wall_s includes the references."""
    outs = [os.path.join(scratch, f"request{i}.csv") for i in range(len(requests))]
    sent = []
    start = time.perf_counter()
    refs = [reference_cpu_s()]
    for i, (request, out) in enumerate(zip(requests, outs)):
        if on_request is not None:
            on_request(i)
        sent.append(_send(request, out))
        refs.append(reference_cpu_s())
    wall = time.perf_counter() - start
    replies = []
    for i, ((cpu, latency, code, stdout), request, out) in enumerate(zip(sent, requests, outs)):
        output = stdout
        if isinstance(request, ScanRequest) and os.path.exists(out):
            with open(out, encoding="utf-8", newline="") as fh:
                output = fh.read()
            os.remove(out)
        ref = 0.5 * (refs[i] + refs[i + 1])
        replies.append(Reply(scaled(cpu, ref), cpu, latency, ref, code, output))
    timing = {"scaled_s": sum(r.scaled_s for r in replies),
              "cpu_s": sum(r.cpu_s for r in replies), "wall_s": wall}
    return timing, replies


def _check(request, code, output: str, state: CheckState, rng: random.Random) -> int:
    """Failed ops of one request: all of them unless it exited 0."""
    if code != 0:
        state.problem(f"{request.argv('OUT')} -> {code}")
        return request.ops
    if isinstance(request, ScanRequest):
        return check_scan(request, output, state, rng)
    return check_suite(request, output, state)


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    os.makedirs(scratch, exist_ok=True)
    _run_round(make_round(workload, seed, WARMUP_ROUND), scratch)

    state = CheckState()
    check_rng = random.Random(f"check/{workload}/{seed}")
    rounds, timings, digests = [], [], []
    attempted = failed = 0
    timed = 0.0
    while timed < seconds:
        index = len(rounds)
        requests = make_round(workload, seed, index)
        timing, round_replies = _run_round(requests, scratch)
        timed += timing["wall_s"]
        ops = 0
        for request, reply in zip(requests, round_replies):
            digests.append(hashlib.sha256(reply.output.encode()).hexdigest())
            ops += request.ops
            failed += _check(request, reply.code, reply.output, state, check_rng)
        # Only the times are kept, so the outputs do not add to peak RSS.
        timings += [reply[:4] for reply in round_replies]
        attempted += ops
        rounds.append({**timing, "ops": ops, "requests": len(requests)})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        **{f"latencies_{field}": [t[i] for t in timings]
           for i, field in enumerate(Reply._fields[:4])},
        "digests": digests,
        "attempted": attempted,
        "failed": failed,
        "problems": state.problems,
        "peak_rss_mb": peak_rss_mb,
        "accuracy": {route: vars(acc) for route, acc in state.accuracy.items()},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if trace:
        result["trace"] = _traced_replay(workload, seed, seconds, rounds, digests, scratch)
    return result


def _traced_replay(workload, seed, seconds, rounds, digests, scratch) -> dict:
    """Replay the first rounds, covering a quarter of the timed span, traced."""
    from tracer import Tracer

    count, covered, covered_scaled = 0, 0.0, 0.0
    while count < len(rounds) and (count == 0 or covered < seconds / 4):
        covered += rounds[count]["wall_s"]
        covered_scaled += rounds[count]["scaled_s"]
        count += 1
    tracer = Tracer()
    state = CheckState()
    check_rng = random.Random(f"check/{workload}/{seed}")
    traced_scaled = 0.0
    bytes_out = 0
    same_outputs = True
    request_id = 0
    for index in range(count):
        requests = make_round(workload, seed, index)

        def tag(i, first=request_id):
            tracer.request_id = first + i

        # Wrapped only while the round runs, so the checks (which call
        # the oracle on scan-closed) record no spans.
        tracer.install()
        try:
            timing, replies = _run_round(requests, scratch, on_request=tag)
        finally:
            tracer.restore()
        traced_scaled += timing["scaled_s"]
        for request, reply in zip(requests, replies):
            bytes_out += len(reply.output.encode())
            same_outputs &= hashlib.sha256(reply.output.encode()).hexdigest() == digests[request_id]
            request_id += 1
            _check(request, reply.code, reply.output, state, check_rng)
    tracer.save(os.path.join(scratch, "spans.npz"))
    metrics = tracer.layer_metrics()
    metrics["cli.bytes_out"] = bytes_out
    metrics["validate.checks_failed"] = state.checks_failed
    metrics["trace.overhead"] = traced_scaled / covered_scaled - 1.0
    return {"rounds": count, "metrics": metrics, "same_outputs": same_outputs}


if __name__ == "__main__":
    params = json.loads(sys.argv[1])
    print(json.dumps(run(**params)))
