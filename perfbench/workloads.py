"""Request streams of the benchmark, generated from the workload seed.

A stream is cut into rounds. Every round of a scan workload holds the
same sixteen strata: four geometries times {bulk on-axis z0 sweep on a
linear grid, bulk off-axis rho0 sweep on a linear grid, near-contact
on-axis z0 sweep on a log grid, near-contact off-axis rho0 sweep on a
log grid}. Point counts vary per request, but every geometry's four
requests take the same four counts in each round, rotated over the
strata from round to round, so a run holds the same mix of request
sizes for every seed and run-to-run spread measures the program, not
the draw. Every value a
request carries is drawn afresh, so no two requests of a run share
inputs and a cache across calls cannot hit.

The validate stream sends one `bc` and one `symmetry` request per round,
each with its own suite seed, and adds one `limits` and one `threeway`
request to round 0.

Only the standard library is used here, so the generator can be
imported without the program under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("scan-numeric", "scan-oracle", "scan-closed", "validate")
GEOMETRIES = ("plane", "gsphere", "isphere", "bosshat")

# Mean points per scan request. scan-closed requests are much larger
# because a closed-form point costs about 1/30 of a numeric one.
BASE_POINTS = {"scan-numeric": 40, "scan-oracle": 12, "scan-closed": 800}

# Percentile of request latency reported as the tail. It is fixed per
# workload, so that faster and slower versions of the program report
# the same percentile: the highest of p99, p95 and p90 that leaves ten
# requests or more beyond it in a 20-second run at half today's speed.
TAIL_PERCENTILE = {"scan-numeric": 95.0, "scan-oracle": 95.0, "scan-closed": 95.0,
                   "validate": 90.0}

# Near-contact grids start at a surface gap of 10**U(-6, -5) times R.
NEAR_GAP_LOG10 = (-6.0, -5.0)

# Warm-up rounds draw from their own stream, so their inputs differ
# from every timed round.
WARMUP_ROUND = -1

# Suite seeds are spaced so the suites' internal offsets (seed + 100,
# seed + 1000 * k, seed + 9007) never make two requests share a
# random stream.
_SUITE_SEED_STRIDE = 10_007


@dataclass(frozen=True)
class ScanRequest:
    geometry: str
    radius: float          # 0.0 for the plane
    method: str
    var: str               # swept variable, "z0" or "rho0"
    lo: float
    hi: float
    points: int
    log: bool
    fixed: float           # rho0 for a z0 sweep, z0 for a rho0 sweep
    variances: tuple[float, float, float]
    isotropic: bool        # spheres take --isotropic (closed forms need it)
    normalize: str

    @property
    def ops(self) -> int:
        return self.points

    def argv(self, out: str) -> list[str]:
        argv = ["scan", "--geometry", self.geometry]
        if self.geometry != "plane":
            argv += ["--radius", repr(self.radius)]
        if self.isotropic:
            argv += ["--isotropic", repr(sum(self.variances))]
        else:
            argv += ["--variances", ",".join(repr(v) for v in self.variances)]
        argv += ["--method", self.method, "--var", self.var]
        argv += ["--rho0" if self.var == "z0" else "--z0", repr(self.fixed)]
        argv += ["--from", repr(self.lo), "--to", repr(self.hi)]
        argv += ["--points", str(self.points), "--normalize", self.normalize]
        if self.log:
            argv.append("--log")
        return argv + ["--out", out]

    def key(self) -> tuple:
        return (self.geometry, self.radius, self.var, self.lo, self.hi,
                self.fixed, self.variances)


@dataclass(frozen=True)
class SuiteRequest:
    suite: str
    seed: int

    @property
    def ops(self) -> int:
        return 1

    def argv(self, out: str | None = None) -> list[str]:
        return ["validate", "--suite", self.suite, "--seed", str(self.seed)]

    def key(self) -> tuple:
        return (self.suite, self.seed)


Request = ScanRequest | SuiteRequest


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    # String seeds are hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}/{round_index}")


def _near_gap(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(*NEAR_GAP_LOG10)


def _outside(radius: float, gap: float, z0: float) -> float:
    """Smallest rho0 >= 0 whose distance from the origin is radius*(1+gap)."""
    return math.sqrt(max(0.0, (radius * (1.0 + gap)) ** 2 - z0 * z0))


def _sweep(rng: random.Random, geometry: str, radius: float, stratum: str):
    """(var, fixed, lo, hi, log) for one stratum; all points lie strictly
    inside the physical region, at least a gap of 1e-6 R from it."""
    if geometry == "plane":
        if stratum == "bulk-z0":
            return "z0", 0.0, rng.uniform(0.05, 0.5), rng.uniform(1.5, 5.0), False
        if stratum == "bulk-rho0":
            lo = rng.uniform(0.0, 1.0)
            return "rho0", rng.uniform(0.1, 2.0), lo, lo + rng.uniform(1.0, 4.0), False
        if stratum == "near-z0":
            return "z0", 0.0, _near_gap(rng), rng.uniform(1.0, 5.0), True
        return "rho0", _near_gap(rng), rng.uniform(0.01, 0.5), rng.uniform(1.0, 5.0), True

    r = radius
    if stratum == "bulk-z0":
        return "z0", 0.0, r * (1.0 + rng.uniform(0.02, 0.3)), r * rng.uniform(2.0, 6.0), False
    if stratum == "bulk-rho0":
        z0 = r * rng.uniform(0.2, 2.0)
        lo = _outside(r, rng.uniform(0.02, 0.3), z0)
        return "rho0", z0, lo, lo + r * rng.uniform(1.0, 4.0), False
    if stratum == "near-z0":
        # s = z0/R - 1 starts at about 1e-6.
        return "z0", 0.0, r * (1.0 + _near_gap(rng)), r * rng.uniform(2.0, 6.0), True
    # Near-contact rho0 sweep. For the boss hat z0 is itself a near gap,
    # so the first point sits at the rim where hemisphere meets plane.
    z0 = r * (_near_gap(rng) if geometry == "bosshat" else rng.uniform(0.1, 0.9))
    lo = _outside(r, _near_gap(rng), z0)
    return "rho0", z0, lo, r * rng.uniform(2.0, 5.0), True


_STRATA = ("bulk-z0", "bulk-rho0", "near-z0", "near-rho0")


def _point_counts(base: int) -> list[int]:
    """Point counts of a geometry's four requests in a round: 0.5, 0.75,
    1.25 and 1.5 times base."""
    half, quarter = base // 2, base // 4
    return [half, base - quarter, base + quarter, 2 * base - half]


def _scan_round(workload: str, seed: int, round_index: int) -> list[ScanRequest]:
    rng = _rng(workload, seed, round_index)
    method = workload.removeprefix("scan-")
    base = BASE_POINTS[workload]
    requests = []
    for g, geometry in enumerate(GEOMETRIES):
        radius = 0.0 if geometry == "plane" else rng.uniform(0.5, 2.0)
        # The strata of a geometry take its four point counts in an
        # order rotated every round, so over any four rounds each
        # stratum takes each count once.
        turn = (round_index + g) % 4
        counts = _point_counts(base)[turn:] + _point_counts(base)[:turn]
        isotropic = geometry in ("gsphere", "isphere")
        for stratum, points in zip(_STRATA, counts):
            var, fixed, lo, hi, log = _sweep(rng, geometry, radius, stratum)
            if isotropic:
                third = rng.uniform(0.2, 2.0)
                variances = (third, third, third)
            else:
                variances = tuple(rng.uniform(0.2, 2.0) for _ in range(3))
            normalize = rng.choice(("none", "a3") if geometry == "plane" else ("none", "a3", "R3"))
            requests.append(
                ScanRequest(geometry, radius, method, var, lo, hi, points, log,
                            fixed, variances, isotropic, normalize)
            )
    rng.shuffle(requests)
    return requests


def _validate_round(seed: int, round_index: int) -> list[SuiteRequest]:
    rng = _rng("validate", seed, round_index)
    # A run-wide offset from the seed plus a slot per round keeps suite
    # seeds distinct within a run and different across workload seeds.
    base = _rng("validate", seed, -2).randrange(1 << 20) * _SUITE_SEED_STRIDE
    slot = 2 * (round_index - WARMUP_ROUND)
    requests = [
        SuiteRequest("bc", base + slot * _SUITE_SEED_STRIDE),
        SuiteRequest("symmetry", base + (slot + 1) * _SUITE_SEED_STRIDE),
    ]
    if round_index == 0:
        requests += [SuiteRequest("limits", base), SuiteRequest("threeway", base)]
    rng.shuffle(requests)
    return requests


def make_round(workload: str, seed: int, round_index: int) -> list[Request]:
    """The requests of one round, a pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "validate":
        return _validate_round(seed, round_index)
    return _scan_round(workload, seed, round_index)


def scan_grid(request: ScanRequest) -> list[float]:
    """The sorted points the CLI evaluates for a scan request."""
    import numpy as np

    grid = (np.geomspace if request.log else np.linspace)(request.lo, request.hi, request.points)
    return sorted(float(x) for x in grid)


def scan_position(request: ScanRequest, x: float) -> tuple[float, float]:
    """(rho0, z0) of grid value x."""
    return (request.fixed, x) if request.var == "z0" else (x, request.fixed)
