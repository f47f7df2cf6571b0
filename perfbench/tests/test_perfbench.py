"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import checks
import child
from conftest import BENCH, ROOT
from tracer import BINDINGS, Tracer
import reference
import run
from workloads import (BASE_POINTS, WARMUP_ROUND, WORKLOADS, ScanRequest, _point_counts,
                       make_round, scan_grid, scan_position)

ROUNDS = {"validate": 60, "scan-numeric": 12, "scan-oracle": 12, "scan-closed": 12}
SCANS = [w for w in WORKLOADS if w.startswith("scan-")]


def _run_keys(workload: str, seed: int) -> list[tuple]:
    return [r.key() for i in range(WARMUP_ROUND, ROUNDS[workload])
            for r in make_round(workload, seed, i)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_for_a_seed_and_differs_across_seeds(workload):
    for index in (WARMUP_ROUND, 0, 5):
        assert make_round(workload, 3, index) == make_round(workload, 3, index)
    assert _run_keys(workload, 3) == _run_keys(workload, 3)
    assert set(_run_keys(workload, 3)).isdisjoint(_run_keys(workload, 4))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 99])
def test_no_two_requests_in_a_run_share_inputs(workload, seed):
    keys = _run_keys(workload, seed)
    assert len(keys) == len(set(keys))


def test_scan_rounds_have_fixed_points_per_geometry():
    for workload in SCANS:
        for seed in (0, 5):
            totals = {}
            for request in make_round(workload, seed, 2):
                totals[request.geometry] = totals.get(request.geometry, 0) + request.points
            assert set(totals.values()) == {4 * BASE_POINTS[workload]}


def test_every_stratum_takes_every_point_count_once_in_four_rounds():
    for workload in SCANS:
        counts = {}
        for index in range(4, 8):
            for r in make_round(workload, 7, index):
                counts.setdefault((r.geometry, r.var, r.log), []).append(r.points)
        assert len(counts) == 16
        assert all(sorted(c) == _point_counts(BASE_POINTS[workload]) for c in counts.values())


def test_tail_is_the_nearest_rank_percentile_with_the_count_beyond_it():
    assert run.tail([float(x) for x in range(200, 0, -1)], 95.0) == (190.0, 10)
    assert run.tail([1.0, 2.0, 3.0], 90.0) == (3.0, 0)


def test_reference_imports_only_built_in_modules():
    """Timing the reference before `import vdwsurf` must load nothing
    that import would load."""
    probe = ("import sys; before = set(sys.modules); sys.path.append(sys.argv[1]); "
             "import reference; reference.reference_cpu_s(); "
             "print(sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", probe, BENCH], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "['reference']"


def test_request_times_are_scaled_by_the_reference_around_them(tmp_path):
    requests = make_round("scan-closed", 2, 0)[:3]
    timing, replies = child._run_round(requests, str(tmp_path))
    for reply in replies:
        assert reply.code == 0 and reply.ref_s > 0
        assert reply.scaled_s == pytest.approx(
            reply.cpu_s * reference.NOMINAL_S / reply.ref_s, rel=1e-12)
    assert timing["scaled_s"] == pytest.approx(sum(r.scaled_s for r in replies), rel=1e-12)
    assert timing["wall_s"] >= sum(r.wall_s for r in replies)


@pytest.mark.parametrize("workload", SCANS)
def test_every_generated_point_lies_strictly_inside_the_physical_region(workload):
    from vdwsurf.geometry import Position, physical_region, surface_distance

    for seed in (0, 1, 2):
        for index in range(WARMUP_ROUND, 4):
            for request in make_round(workload, seed, index):
                g = checks._geometry(request)
                length = request.radius or 1.0
                for x in scan_grid(request):
                    rho0, z0 = scan_position(request, x)
                    p = Position(rho0, 0.0, z0)
                    assert physical_region(g, p), (request, x)
                    assert surface_distance(g, p) >= 0.9e-6 * length, (request, x)


def test_traced_run_restores_every_name_it_wrapped():
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attrs in BINDINGS.items() for attr in attrs
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            wrapped = getattr(importlib.import_module(module), attr)
            assert wrapped is not original and wrapped.__wrapped__ is original
    finally:
        tracer.restore()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_traced_counts_per_energy(tmp_path):
    """36 G_H calls per numeric energy, 48 G_H and 6 lstsq calls per
    oracle energy, for three non-zero variances."""
    requests = [ScanRequest("bosshat", 1.3, method, "z0", 1.5, 3.0, 3, False, 0.2,
                            (0.5, 0.7, 0.9), False, "none")
                for method in ("numeric", "oracle")]
    tracer = Tracer()
    tracer.install()
    try:
        _, results = child._run_round(requests, str(tmp_path))
    finally:
        tracer.restore()
    assert [reply.code for reply in results] == [0, 0]
    m = tracer.layer_metrics()
    assert m["evaluator.calls"] == 3 and m["oracle.calls"] == 3
    assert m["evaluator.g_h_per_energy"] == 36
    assert m["oracle.g_h_per_energy"] == 48
    assert m["oracle.lstsq_per_energy"] == 6
    assert m["images.g_h_calls"] == 3 * 36 + 3 * 48


def test_checks_catch_a_wrong_row_and_a_failed_suite(tmp_path):
    request = ScanRequest("plane", 0.0, "numeric", "z0", 0.5, 2.0, 4, False, 0.0,
                          (1.0, 1.0, 1.0), False, "none")
    _, [reply] = child._run_round([request], str(tmp_path))
    assert reply.code == 0
    output = reply.output
    rng = random.Random(0)
    assert checks.check_scan(request, output, checks.CheckState(), rng) == 0
    header, first, *rest = output.split("\n")
    x, value, err, method = first.split(",")
    wrong = "\n".join([header, f"{x},{float(value) * 1.001!r},{err},{method}", *rest])
    assert checks.check_scan(request, wrong, checks.CheckState(), rng) == 1
    suite = make_round("validate", 0, 0)[0]
    report = (f"suite {suite.suite}: PASS\n"
              "  dirichlet residual plane: max residual 1.000e-03 (tol 1.0e-11) FAIL\n")
    state = checks.CheckState()
    assert checks.check_suite(suite, report, state) == 1 and state.checks_failed == 1


def _bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_named_metric_with_its_unit(workload):
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, group in ((1, "per_layer"), (0, "end_to_end")):
        if trace == 0 and workload != "scan-closed":
            continue   # one untraced smoke run is enough
        out = _bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                     "--trace", str(trace))
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
                   if not line.startswith(("#", "!", "error_rate"))}
        for m in spec["end_to_end"] + (spec["per_layer"] if trace else []):
            assert printed[m["name"]] == m["unit"]
        if trace:
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            if workload == "scan-numeric":
                assert metrics["evaluator.g_h_per_energy"] == 36
            if workload == "scan-oracle":
                assert metrics["oracle.g_h_per_energy"] == 48
                assert metrics["oracle.lstsq_per_energy"] == 6
            if workload == "scan-closed":
                assert metrics["images.g_h_calls"] == 0


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _bench("--workload", "validate", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert out.returncode != 0
    assert out.stdout.strip() == ""
