"""Deterministic validation suites: boundary conditions, Green-function
symmetry, limiting cases, and three-way method agreement.

Each suite returns a SuiteReport with one CheckResult per property,
driven entirely by a caller-provided seed so reports are reproducible
byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._errata import u_bosshat  # unused: perfbench wraps vdwsurf.validate.u_bosshat
from .closed import (
    energy_closed,
    u_bosshat_corrected,
    u_grounded_sphere,
    u_isolated_sphere,
    u_plane,
)
from .evaluator import energy_numeric
from .geometry import (
    DipoleVariances,
    GeometryConfig,
    GeometryKind,
    Position,
    VarianceFrame,
)
from .images import bc_residual, build_green, g_h, surface_sample
from .oracle import extrapolated_energy

_ISO = DipoleVariances.isotropic(1.0)
_ISO_CYL = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    details: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.details}]" if self.details else ""
        return (
            f"{self.name}: max residual {self.residual:.3e}"
            f" (tol {self.tolerance:.1e}) {status}{extra}"
        )


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"]
        out.extend("  " + c.line() for c in self.checks)
        return out


def _check(name: str, residual: float, tolerance: float, details: str = "") -> CheckResult:
    return CheckResult(name, residual, tolerance, residual <= tolerance, details)


def _sources_plane(rng: np.random.Generator, n: int) -> np.ndarray:
    xy = rng.uniform(-2.0, 2.0, size=(n, 2))
    z = rng.uniform(0.1, 2.0, size=n)
    return np.column_stack([xy, z])


def _sources_sphere(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    norms = np.linalg.norm(v, axis=1)
    norms[norms == 0.0] = 1.0
    v /= norms[:, None]
    r = radius * rng.uniform(1.1, 3.0, size=n)
    return v * r[:, None]


def _sources_bosshat(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """n points of the box [-2, 2]^2 x [0.05, 2] beyond 1.05 R, by
    rejection from blocks of rng.random.  rng.uniform(low, high) is
    low + (high - low) * rng.random(), so the points and the end state of
    rng are those of drawing x, y, z with rng.uniform point by point."""
    limit = radius * 1.05
    if not limit < math.sqrt(12.0):   # the norm of the box's far corner
        raise ValueError(f"no point of the source box lies beyond 1.05 R for R={radius!r}")
    low = np.array([-2.0, -2.0, 0.05])
    span = np.array([2.0 - -2.0, 2.0 - -2.0, 2.0 - 0.05])
    start = rng.bit_generator.state
    k = n + n // 4 + 16
    while True:
        v = low + span * rng.random((k, 3))
        x, y, z = v.T
        accepted = np.flatnonzero(np.sqrt(x * x + y * y + z * z) > limit)   # Position.norm's order
        rng.bit_generator.state = start
        if len(accepted) >= n:
            break
        k *= 2
    rng.random(3 * (int(accepted[n - 1]) + 1))   # the draws of the point-by-point loop
    return v[accepted[:n]]


_GROUNDED = (
    ("plane", GeometryConfig.plane()),
    ("gsphere", GeometryConfig.grounded_sphere(1.0)),
    ("bosshat", GeometryConfig.boss_hat(1.0)),
)


def _sources_for(g: GeometryConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    if g.kind is GeometryKind.PLANE:
        return _sources_plane(rng, n)
    if g.kind is GeometryKind.BOSS_HAT:
        return _sources_bosshat(rng, n, g.radius)
    return _sources_sphere(rng, n, g.radius)


def suite_bc(seed: int = 0, n_pairs: int = 1000) -> SuiteReport:
    """Boundary condition on the conductor surface.

    Grounded geometries: the full Green function must vanish on S.
    Isolated sphere: the source-gradient of the full Green function on
    S must equal -r'/(4*pi*|r'|^3), the gradient taken exactly from the
    image records; this check keeps the looser tolerance 1e-9.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, not {n_pairs!r}")
    checks = []
    for offset, (name, g) in enumerate(_GROUNDED):
        rng = np.random.default_rng(seed + 1000 * offset)
        green = build_green(g)
        sources = _sources_for(g, rng, n_pairs)
        surface = surface_sample(g, n_pairs, seed + 1000 * offset + 7)
        worst = float(np.max(np.abs(bc_residual(green, surface, sources))))
        checks.append(_check(f"dirichlet residual {name}", worst, 1e-11))

    g_iso = GeometryConfig.isolated_sphere(1.0)
    rng = np.random.default_rng(seed + 9000)
    green = build_green(g_iso)
    sources = _sources_sphere(rng, 200, g_iso.radius)
    surface = surface_sample(g_iso, 200, seed + 9007)
    worst = float(np.max(np.abs(bc_residual(green, surface, sources))))
    checks.append(_check("isolated-sphere gradient condition", worst, 1e-9))
    return SuiteReport("bc", tuple(checks))


def suite_symmetry(seed: int = 0, n_pairs: int = 1000) -> SuiteReport:
    """G_H(r, r') = G_H(r', r) for the grounded geometries."""
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, not {n_pairs!r}")
    checks = []
    for offset, (name, g) in enumerate(_GROUNDED):
        rng = np.random.default_rng(seed + 100 + 1000 * offset)
        green = build_green(g)
        left = _sources_for(g, rng, n_pairs)
        right = _sources_for(g, rng, n_pairs)
        a = g_h(green, left, right)
        b = g_h(green, right, left)
        worst = float(np.max(np.abs(a - b) / np.abs(a)))
        checks.append(_check(f"green symmetry {name}", worst, 1e-11))
    return SuiteReport("symmetry", tuple(checks))


def suite_limits(seed: int = 0) -> SuiteReport:
    """Limiting-case consistency between the geometries.

    The boss-hat energies, of the plane limit at R = 1e-6 and of the
    near-contact order against the sphere, are those of the corrected
    form u_bosshat_corrected, one call over each set of points.
    The isolated-sphere point limit is checked against the constant
    -<d^2>/(4*pi*eps0): the series of the exact bracket in t = R/a is
    6 t^3 - 36 t^4 + O(t^5), so U a^6/R^3 -> -<d^2>/(4*pi*eps0).
    """
    del seed   # fixed spot points; accepted for interface uniformity
    checks = []

    # Boss-hat Green function reduces to the plane one as R -> 0.
    g_plane = GeometryConfig.plane()
    green_plane = build_green(g_plane)
    pairs = [
        (Position(0.3, -0.2, 0.8), Position(-0.5, 0.1, 1.4)),
        (Position(1.0, 0.0, 0.5), Position(0.2, 0.9, 0.7)),
        (Position(-0.4, 0.4, 1.1), Position(0.0, 0.0, 0.6)),
        (Position(2.0, 1.0, 2.5), Position(-1.0, -1.0, 1.8)),
        (Position(0.1, 0.0, 0.2), Position(0.0, 0.15, 0.3)),
    ]
    worst = 0.0
    for r, rp in pairs:
        tiny = 1e-6 * min(r.norm, rp.norm)
        green_bh = build_green(GeometryConfig.boss_hat(tiny))
        a = g_h(green_bh, r, rp)
        b = g_h(green_plane, r, rp)
        worst = max(worst, abs(a - b) / abs(b))
    checks.append(_check("bosshat green reduces to plane at R=1e-6", worst, 1e-5))

    # Closed boss-hat energy vs the plane at vanishing radius.
    rho0, z0 = np.array([0.0, 0.5, 1.3]), np.array([0.8, 0.8, 0.4])
    ratio = u_bosshat_corrected(_ISO_CYL, rho0, z0, 1e-6).value / u_plane(_ISO, z0).value
    worst = float(np.max(np.abs(ratio - 1.0)))
    checks.append(_check("bosshat energy reduces to plane at R=1e-6", worst, 1e-5))

    # Large grounded sphere looks like a plane at fixed gap a.
    a_val = u_grounded_sphere(1.0, 1001.0, 1000.0).value
    b_val = u_plane(_ISO, 1.0).value
    checks.append(
        _check("sphere at R/a=1e3 matches plane", abs(a_val / b_val - 1.0), 3e-3)
    )

    # Plane-limit trend bound |U_sphere/U_plane - 1| <= 2 a/R.
    worst = 0.0
    for a_over_r in (0.01, 0.05, 0.1):
        radius = 1.0 / a_over_r
        ratio = u_grounded_sphere(1.0, radius + 1.0, radius).value / b_val
        worst = max(worst, abs(ratio - 1.0) / (2.0 * a_over_r))
    checks.append(_check("plane-limit trend bound 2a/R", worst, 1.0))

    # Point limit of the isolated sphere, R/a = 1e-3, a = 1.
    radius = 1e-3
    u_point = u_isolated_sphere(1.0, 1.0 + radius, radius).value
    scaled = u_point / radius**3   # a = 1, so this is U a^6 / R^3
    target = -1.0                  # -<d^2>/(4*pi*eps0) in reduced units
    checks.append(
        _check(
            "isolated point limit -<d^2>/(4 pi eps0)",
            abs(scaled / target - 1.0),
            1e-2,
            details=f"U a^6/R^3 = {scaled:.6f}",
        )
    )

    # On-axis boss hat approaches the sphere at third order in s.
    s_values = np.logspace(-3, -2, 10)
    ub = u_bosshat_corrected(_ISO_CYL, 0.0, 1.0 + s_values, 1.0).value
    deviations = np.abs(ub / u_grounded_sphere(1.0, 1.0 + s_values, 1.0).value - 1.0)
    slope = float(np.polyfit(np.log(s_values), np.log(deviations), 1)[0])
    checks.append(
        _check(
            "bosshat-sphere near-contact residual order >= 3",
            max(0.0, 2.9 - slope),
            0.0,
            details=f"measured exponent {slope:.4f}",
        )
    )
    return SuiteReport("limits", tuple(checks))


_THREEWAY = (   # (name, geometry, variances, point)
    ("plane z0=1.3", GeometryConfig.plane(), _ISO, Position(0.0, 0.0, 1.3)),
    ("gsphere z0=2.7", GeometryConfig.grounded_sphere(1.0), _ISO, Position(0.0, 0.0, 2.7)),
    ("isphere z0=1.9", GeometryConfig.isolated_sphere(1.0), _ISO, Position(0.0, 0.0, 1.9)),
    ("bosshat on-axis z0=1.6", GeometryConfig.boss_hat(1.0), _ISO_CYL, Position(0.0, 0.0, 1.6)),
    (
        "bosshat off-axis rho0=0.7 z0=1.1",
        GeometryConfig.boss_hat(1.0),
        _ISO_CYL,
        Position(0.7, 0.0, 1.1),
    ),
)


def suite_threeway(seed: int = 0) -> SuiteReport:
    """Closed form vs numeric derivative vs finite-dipole oracle.

    Each case (name, geometry, variances, point) goes through the three
    routes, energy_closed, energy_numeric and extrapolated_energy, and
    its residual is their largest pairwise difference relative to the
    closed value.  The routes are read from this module at each call,
    so a wrapper bound to their names here sees the calls.
    """
    del seed
    routes = (energy_closed, energy_numeric, extrapolated_energy)
    checks = []
    for name, g, variances, r0 in _THREEWAY:
        closed, numeric, oracle = (route(g, variances, r0).value for route in routes)
        worst = max(abs(closed - numeric), abs(closed - oracle), abs(numeric - oracle))
        checks.append(_check(f"threeway {name}", worst / abs(closed), 1e-5))
    return SuiteReport("threeway", tuple(checks))


_SUITES = {
    "bc": suite_bc,
    "symmetry": suite_symmetry,
    "limits": suite_limits,
    "threeway": suite_threeway,
}


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    try:
        fn = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}") from None
    return fn(seed=seed)


def run_all(seed: int = 0) -> list[SuiteReport]:
    return [fn(seed=seed) for fn in _SUITES.values()]
