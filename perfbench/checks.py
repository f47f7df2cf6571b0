"""Output checks, run untimed after each round.

scan-numeric and scan-oracle: every CSV row against the closed form at
the same point, computed through `vdwsurf.closed`.
scan-closed: every row finite and attractive, plus two rows per request
against the finite-dipole oracle.
validate: exit code 0 and every report line PASS.

A row passes when it lies within the route's relative tolerance of the
reference, or within the error bar the row itself reports. The second
clause keeps honest but weak results near contact from counting as
wrong outputs (the numeric route is off by up to O(1) relative where
its step nearly reaches the surface, with an err column that bounds
it); `max_rel_dev` and `err_covered` report how weak they are.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

from vdwsurf import closed
from vdwsurf.geometry import (DipoleVariances, GeometryConfig, GeometryKind, Position,
                              VarianceFrame, surface_distance)
from vdwsurf.oracle import extrapolated_energy
from workloads import ScanRequest, SuiteRequest, scan_grid, scan_position

# Relative tolerance of a row against its reference. The largest
# deviation seen on these workloads is 3.2e-5, the oracle at the
# boss-hat rim with both gaps near 1e-6 R.
REL_TOL = 1e-4
METHOD_TAG = {"numeric": "numeric_ez", "oracle": "oracle", "closed": "closed_form"}
# Rows of each scan-closed request checked against the oracle: the first
# (nearest contact on log grids) and one drawn at random.

_CHECK_LINE = re.compile(r"^  .+ \(tol [^)]*\) (PASS|FAIL)( \[.*\])?$")


@dataclass
class Accuracy:
    """Deviation of one route from its reference over checked rows."""

    checked: int = 0
    covered: int = 0       # rows with |route - reference| <= err column
    max_rel_dev: float = 0.0

    def add(self, rel_dev: float, covered: bool) -> None:
        self.checked += 1
        self.covered += covered
        self.max_rel_dev = max(self.max_rel_dev, rel_dev)


@dataclass
class CheckState:
    accuracy: dict[str, Accuracy] = field(
        default_factory=lambda: {"evaluator": Accuracy(), "oracle": Accuracy()})
    checks_failed: int = 0   # FAIL lines in validate reports
    problems: list[str] = field(default_factory=list)

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def _variances(request: ScanRequest):
    if request.isotropic:
        return DipoleVariances.isotropic(sum(request.variances))
    frame = (VarianceFrame.CYLINDRICAL_LOCAL if request.geometry == "bosshat"
             else VarianceFrame.CARTESIAN)
    return DipoleVariances(*request.variances, frame)


def _geometry(request: ScanRequest):
    return GeometryConfig(GeometryKind(request.geometry), request.radius)


def closed_value(request: ScanRequest, rho0: float, z0: float) -> float:
    v = _variances(request)
    if request.geometry == "plane":
        return closed.u_plane(v, z0).value
    if request.geometry == "bosshat":
        return closed.u_bosshat_corrected(v, rho0, z0, request.radius).value
    u = closed.u_grounded_sphere if request.geometry == "gsphere" else closed.u_isolated_sphere
    return u(v.total, math.hypot(rho0, z0), request.radius).value


def oracle_value(request: ScanRequest, rho0: float, z0: float) -> tuple[float, float]:
    r = extrapolated_energy(_geometry(request), _variances(request), Position(rho0, 0.0, z0))
    return r.value, r.err_estimate


def _scale(request: ScanRequest, rho0: float, z0: float) -> float:
    if request.normalize == "R3":
        return request.radius ** 3
    if request.normalize == "a3":
        return surface_distance(_geometry(request), Position(rho0, 0.0, z0)) ** 3
    return 1.0


def _parse_rows(request: ScanRequest, text: str, state: CheckState):
    """[(x, value, err)] or None when the file's shape is wrong."""
    lines = text.split("\n")
    if lines[0] != "x,value,err,method" or lines[-1] != "" or len(lines) != request.points + 2:
        state.problem(f"malformed CSV for {request.argv('OUT')}")
        return None
    rows = []
    tag = METHOD_TAG[request.method]
    for line, expected_x in zip(lines[1:-1], scan_grid(request)):
        x, value, err, method = line.split(",")
        if float(x) != expected_x or method != tag:
            state.problem(f"row {line!r} does not match x={expected_x!r} method={tag}")
            return None
        rows.append((expected_x, float(value), float(err)))
    return rows


def _row_ok(value: float, err: float, ref: float, tol: float, accuracy: Accuracy) -> bool:
    """value with error bar err against the reference ref."""
    dev = abs(value - ref)
    rel = dev / abs(ref)
    accuracy.add(rel, dev <= err)
    return math.isfinite(value) and math.isfinite(err) and (rel <= tol or dev <= err)


def check_scan(request: ScanRequest, text: str, state: CheckState, rng: random.Random) -> int:
    """Number of failed points among the request's rows."""
    rows = _parse_rows(request, text, state)
    if rows is None:
        return request.points
    failed = 0
    if request.method == "closed":
        for _, value, err in rows:
            if not (value < 0.0 and math.isfinite(value) and err == 0.0):
                failed += 1
        picks = {0, rng.randrange(len(rows))}
        accuracy = state.accuracy["oracle"]
        for i in sorted(picks):
            x, value, _ = rows[i]
            rho0, z0 = scan_position(request, x)
            scale = _scale(request, rho0, z0)
            ref, ref_err = oracle_value(request, rho0, z0)
            # The oracle is the route under test here; the closed row is exact.
            ok = _row_ok(ref * scale, ref_err * scale, value, REL_TOL, accuracy)
            failed += not ok
            if not ok:
                state.problem(f"closed row x={x!r} {value!r} vs oracle {ref * scale!r}")
        return failed
    accuracy = state.accuracy["evaluator" if request.method == "numeric" else "oracle"]
    for x, value, err in rows:
        rho0, z0 = scan_position(request, x)
        ref = closed_value(request, rho0, z0) * _scale(request, rho0, z0)
        if not _row_ok(value, err, ref, REL_TOL, accuracy):
            failed += 1
            state.problem(f"{request.method} row x={x!r} {value!r} vs closed {ref!r}")
    return failed


def check_suite(request: SuiteRequest, text: str, state: CheckState) -> int:
    """1 when the report is not a clean PASS, else 0."""
    lines = text.splitlines()
    status = [m.group(1) if (m := _CHECK_LINE.match(line)) else None for line in lines[1:]]
    state.checks_failed += status.count("FAIL")
    good = (
        len(lines) >= 2
        and lines[0] == f"suite {request.suite}: PASS"
        and all(s == "PASS" for s in status)
    )
    if not good:
        state.problem(f"validate {request.suite} seed {request.seed}: {text[:200]!r}")
    return 0 if good else 1
