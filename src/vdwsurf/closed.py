"""Closed-form dispersion energies for the four conductor geometries.

Each form is a kernel K_a(r0) per unit variance on three axes, and the
energy is one contraction U = sum_a <d_a^2> K_a (_contract): the plane's
-(1, 1, 2)/(16*4*pi*eps0)/z0^3 on (x, y, z), the spheres'
-bracket/(6*4*pi*eps0) on every axis (isotropic variances only), the
boss hat's -(xi_rho, xi_phi, xi_z)/(16*4*pi*eps0)/z0^3 on (rho, phi, z).
Every form computes on arrays; the u_* forms, the scalar API, give a
float for floats.  energy_closed is the closed-form route: like
energy_numeric and extrapolated_energy it takes DipoleVariances and a
Position, a batch of one, or an (N, 3) array of points.

The hemisphere-on-plane ("boss hat") angular factors,
xi_factors_corrected/u_bosshat_corrected, are derived from the image
construction.  The transcribed reference expressions, wrong off the
symmetry axis, live in vdwsurf._errata so the discrepancy can be
demonstrated and tested.

Near-contact third-order expansion coefficients are not taken on
trust; fit_expansion_coefficients recovers them from the exact forms
by a least-squares series fit (sphere: -7/8 confirmed; boss hat:
-3/8, not -7/8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContactError, ExpansionWindowError, RegionError
from .geometry import (
    DipoleVariances,
    EnergyResult,
    GeometryConfig,
    GeometryKind,
    Method,
    Position,
    VarianceFrame,
    as_points,
    local_axes,
    point_norms,
)
from .units import UnitSystem

_REDUCED = UnitSystem.reduced()

# Third-order near-contact coefficients, determined by the independent
# series fit in fit_expansion_coefficients and certified in the tests.
SPHERE_EXPANSION_C3 = -0.875    # -7/8
BOSSHAT_EXPANSION_C3 = -0.375   # -3/8


def _contract(v: DipoleVariances, kernel, points: np.ndarray | None = None):
    """sum_a <d_a^2> K_a.  A (rho, phi, z) kernel given with its points
    is rotated to Cartesian variances at each point's azimuth, the rho-phi
    covariance dropping out by mirror symmetry."""
    if points is not None and v.frame is VarianceFrame.CARTESIAN:
        c, s = local_axes(VarianceFrame.CYLINDRICAL_LOCAL, points)[:, 0, :2].T
        c2, s2 = c * c, s * s
        kernel = (c2 * kernel[0] + s2 * kernel[1], s2 * kernel[0] + c2 * kernel[1], kernel[2])
    return v.m1 * kernel[0] + v.m2 * kernel[1] + v.m3 * kernel[2]


def _check_range(over, points: np.ndarray | None = None) -> None:
    """Raise OverflowError where over marks a power of a finite distance
    that is inf, naming the first such point if the points are given."""
    if over.any():
        at = "" if points is None else " at (x, y, z) = (%r, %r, %r)" % tuple(
            points[over.argmax()].tolist())
        raise OverflowError(f"closed-form energy out of float range{at}: "
                            "a power of the distance overflows")


def _scalar(value, *inputs: np.ndarray):
    """value as a float where every input array is 0-d."""
    return value if any(x.ndim for x in inputs) else float(value)


def _plane_kernel(z, units: UnitSystem, points: np.ndarray | None = None) -> tuple:
    """The plane's kernel at heights z, of the points if given."""
    if (z <= 0.0).any():
        raise ContactError("atom must sit above the plane (z0 > 0)")
    cube = z * z * z
    _check_range(np.isinf(cube) & np.isfinite(z), points)
    k = -1.0 / (16.0 * units.four_pi_epsilon0) / cube
    return k, k, 2.0 * k


def u_plane(
    variances: DipoleVariances, z0: float, units: UnitSystem = _REDUCED
) -> EnergyResult:
    """Atom-plane dispersion energy -[<d_1^2>+<d_2^2>+2<d_3^2>]/(64*pi*eps0*z0^3).

    The atom sits above the plane, z0 > 0; z0 <= 0 raises ContactError.
    The two transverse variance components enter symmetrically, so the
    frame tag does not matter here.

    >>> u_plane(DipoleVariances(0.0, 0.0, 1.0), 1.0).value
    -0.125
    """
    z = np.asarray(z0, dtype=float)
    with np.errstate(over="ignore"):
        value = _contract(variances, _plane_kernel(z, units))
    return EnergyResult(_scalar(value, z), 0.0, Method.CLOSED_FORM, units.mode)


def _check_sphere(z0, radius: float) -> None:
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if (z0 <= radius).any():
        raise ContactError("atom must sit outside the sphere (distance from its center > R)")


def _sphere_kernel(rho2, z, radius: float, isolated: bool, units: UnitSystem, points=None) -> tuple:
    """A sphere's kernel at (rho, z) about its centre, rho2 = rho^2, of the
    points if given: 4 R^3/delta^3 + R/delta^2, less R/|r0|^4 if isolated,
    in delta = |r0|^2 - R^2 = rho^2 + (z - R)(z + R), exact on the axis."""
    delta = rho2 + (z - radius) * (z + radius)
    d2 = delta * delta
    d3 = d2 * delta
    _check_range(np.isinf(d3) & np.isfinite(z), points)
    bracket = 4.0 * radius**3 / d3 + radius / d2
    if isolated:
        r2 = rho2 + z * z
        bracket = bracket - radius / (r2 * r2)
    k = -bracket / (6.0 * units.four_pi_epsilon0)
    return k, k, k


def _sphere_energy(variance_total: float, z0, radius: float, isolated: bool, units: UnitSystem):
    z = np.asarray(z0, dtype=float)
    _check_sphere(z, radius)
    with np.errstate(over="ignore"):
        value = variance_total * _sphere_kernel(0.0, z, radius, isolated, units)[0]   # isotropic
    return EnergyResult(_scalar(value, z), 0.0, Method.CLOSED_FORM, units.mode)


def u_grounded_sphere(
    variance_total: float, z0: float, radius: float, units: UnitSystem = _REDUCED
) -> EnergyResult:
    """Isotropic atom vs grounded sphere, center-to-atom distance z0.

    U = -(<d^2>/24*pi*eps0) * [4R^3/z0^6 (1-R^2/z0^2)^-3
                               + R/z0^4 (1-R^2/z0^2)^-2]
    """
    return _sphere_energy(variance_total, z0, radius, False, units)


def u_grounded_sphere_alpha(
    alpha: float,
    omega10: float,
    a: float,
    radius: float,
    units: UnitSystem = _REDUCED,
) -> EnergyResult:
    """Grounded-sphere energy in surface-gap form for a dominant transition.

    U = -(hbar*omega10*alpha/16*pi*eps0*a^3) * [4/(2+a/R)^3 + (a/R)/(2+a/R)^2]
    with a = z0 - R; equals u_grounded_sphere with <d^2> = (3/2)*hbar*omega10*alpha.
    """
    if a <= 0.0:
        raise ContactError("surface gap a must be positive")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    s = a / radius
    bracket = 4.0 / (2.0 + s) ** 3 + s / (2.0 + s) ** 2
    value = -(units.hbar * omega10 * alpha) * bracket / (
        4.0 * units.four_pi_epsilon0 * a**3
    )
    return EnergyResult(value, 0.0, Method.CLOSED_FORM, units.mode)


def u_isolated_sphere(
    variance_total: float, z0: float, radius: float, units: UnitSystem = _REDUCED
) -> EnergyResult:
    """Isotropic atom vs isolated (neutral) sphere.

    Same as the grounded bracket with R/z0^4 subtracted inside the
    braces; always weaker than the grounded attraction, still negative.
    """
    return _sphere_energy(variance_total, z0, radius, True, units)


@dataclass(frozen=True)
class BossHatXi:
    """Evaluated boss-hat angular factors at one position, or arrays of
    them at an array of positions.

    xi_rho, xi_phi, xi_z are dimensionless.
    """

    xi_rho: float | np.ndarray
    xi_phi: float | np.ndarray
    xi_z: float | np.ndarray


def _check_bosshat_region(radius: float, rho0: float, z0: float) -> None:
    if radius < 0.0:
        raise ValueError("radius must be >= 0")
    if not np.all((z0 > 0.0) & (rho0 * rho0 + z0 * z0 > radius * radius)):
        raise RegionError(
            "boss-hat atom position requires z0 > 0 and rho0^2 + z0^2 > R^2"
        )


def _xi(radius: float, rho, z, points: np.ndarray | None = None) -> tuple[BossHatXi, np.ndarray]:
    """The corrected angular factors at arrays rho and z, of the points
    if given, and z^3; d = rho^2 + (z - R)(z + R) is exact on the axis."""
    _check_bosshat_region(radius, rho, z)
    r2 = radius * radius
    p2 = rho * rho
    z2 = z * z
    d = p2 + (z - radius) * (z + radius)
    d3 = d * d * d
    cube = z2 * z
    _check_range((np.isinf(d3) | np.isinf(cube)) & np.isfinite(rho) & np.isfinite(z), points)
    s = p2 + z2 + r2
    a = s * s - 4.0 * r2 * p2
    root = np.sqrt(a)
    a32 = a * root
    a52 = a * a * root
    w = 8.0 * radius * cube
    rz = r2 + z2
    rz4 = rz * rz
    zp = z2 + p2

    num_rho = (rz4 - (r2 + p2 + 8.0 * z2) * p2) * r2 + zp * zp * p2
    xi_rho = 1.0 - w * (num_rho / a52 - (p2 + r2) / d3)

    xi_phi = 1.0 + w * r2 * (1.0 / d3 - 1.0 / a32)

    w_z = (r2 - z2) * (rz4 + p2 * p2) - 2.0 * p2 * (
        r2 * r2 + 4.0 * r2 * z2 + z2 * z2
    )
    xi_z = 2.0 + w * (rz / d3 + w_z / a52)
    return BossHatXi(xi_rho, xi_phi, xi_z), cube


def xi_factors_corrected(radius: float, rho0: float, z0: float) -> BossHatXi:
    """Boss-hat angular factors derived from the image construction.

    Matches the numeric evaluator and finite-dipole oracle to
    floating-point accuracy on and off the axis.  Differences from the
    transcribed form (vdwsurf._errata.xi_factors): the rho numerator
    term +R^4*rho0^2 becomes -R^4*rho0^2 (sign), and zeta is replaced by
    [(R^2-z0^2)((R^2+z0^2)^2+rho0^4) - 2 rho0^2 (R^4+4R^2 z0^2+z0^4)]
    times (rho0^2+z0^2-R^2)^3.  The phi factor is identical.
    """
    rho, z = np.asarray(rho0, dtype=float), np.asarray(z0, dtype=float)
    with np.errstate(over="ignore"):
        xi, _ = _xi(radius, rho, z)
    return BossHatXi(*(_scalar(f, rho, z) for f in (xi.xi_rho, xi.xi_phi, xi.xi_z)))


def _xi_kernel(xi: BossHatXi, cube, units: UnitSystem) -> tuple:
    """The boss-hat kernel per unit (rho, phi, z) variance, z0^3 = cube."""
    c = 16.0 * units.four_pi_epsilon0
    return -xi.xi_rho / c / cube, -xi.xi_phi / c / cube, -xi.xi_z / c / cube


def u_bosshat_corrected(
    variances: DipoleVariances,
    rho0: float,
    z0: float,
    radius: float,
    units: UnitSystem = _REDUCED,
) -> EnergyResult:
    """Boss-hat dispersion energy from the corrected angular factors;
    the variances are read in the (rho, phi, z) frame."""
    rho, z = np.asarray(rho0, dtype=float), np.asarray(z0, dtype=float)
    with np.errstate(over="ignore"):
        xi, cube = _xi(radius, rho, z)
        value = _contract(variances, _xi_kernel(xi, cube, units))
    return EnergyResult(_scalar(value, rho, z), 0.0, Method.CLOSED_FORM, units.mode)


def isotropic_total(v: DipoleVariances, forms: str = "closed-form sphere energies") -> float:
    """<d^2> of variances the sphere forms accept: components within 3e-9
    of the smallest, about 1e-9 of their total.  The error names the forms asked for."""
    if max(v.m1, v.m2, v.m3) - min(v.m1, v.m2, v.m3) > 3e-9 * min(v.m1, v.m2, v.m3):
        raise ValueError(f"{forms} require isotropic variances; use the numeric or oracle route")
    return v.total


def energy_closed(
    g: GeometryConfig,
    variances: DipoleVariances,
    r0: Position | np.ndarray,
    units: UnitSystem = _REDUCED,
) -> EnergyResult:
    """Dispersion energy from the closed form of the geometry, for the
    dipole variances of the atom (isotropic ones for the spheres).

    r0 is a Position, a batch of one giving a float value, or an (N, 3)
    array of positions, giving (N,) values; err_estimate is 0.  Where a
    power of a distance overflows, the OverflowError names the first
    such point; an energy that overflows is -inf.  Division and invalid
    operations follow the caller's np.errstate.
    """
    points = as_points(r0).reshape(-1, 3)
    x, y, z = points.T
    with np.errstate(over="ignore"):
        if g.kind is GeometryKind.PLANE:
            value = _contract(variances, _plane_kernel(z, units, points))
        elif g.kind is GeometryKind.BOSS_HAT:
            xi, cube = _xi(g.radius, np.hypot(x, y), z, points)
            value = _contract(variances, _xi_kernel(xi, cube, units), points)
        else:
            isotropic_total(variances)
            rho2 = x * x + y * y
            _check_sphere(point_norms(points), g.radius)   # the numeric route's region
            isolated = g.kind is GeometryKind.ISOLATED_SPHERE
            value = _contract(variances, _sphere_kernel(rho2, z, g.radius, isolated, units, points))
    if isinstance(r0, Position):
        return EnergyResult(float(value[0]), 0.0, Method.CLOSED_FORM, units.mode)
    return EnergyResult(value, np.zeros_like(value), Method.CLOSED_FORM, units.mode)


def _expansion3(
    variance_total: float, z0: float, radius: float, c3: float, units: UnitSystem
) -> EnergyResult:
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    a = np.asarray(z0, dtype=float) - radius
    s = a / radius
    if not np.all((0.0 < s) & (s < 0.5)):
        raise ExpansionWindowError(
            "near-contact expansion valid only for 0 < (z0-R)/R < 0.5"
        )
    s3 = s * s * s
    with np.errstate(over="ignore"):
        a3 = a * a * a
    _check_range(np.isinf(a3) & np.isfinite(a))
    bracket = 1.0 - s + s * s + c3 * s3
    value = -variance_total * bracket / (12.0 * units.four_pi_epsilon0 * a3)
    # Remainder of the truncated series; the 5 s^4 envelope is measured
    # against the exact forms in the tests.
    err = abs(value) * 5.0 * (s3 * s)
    return EnergyResult(_scalar(value, a), _scalar(err, a), Method.EXPANSION3, units.mode)


def u_sphere_expansion3(
    variance_total: float, z0: float, radius: float, units: UnitSystem = _REDUCED
) -> EnergyResult:
    """Grounded-sphere energy expanded to third order in s = (z0-R)/R.

    U = -<d^2>/(48*pi*eps0*(z0-R)^3) * [1 - s + s^2 - (7/8) s^3]
    """
    return _expansion3(variance_total, z0, radius, SPHERE_EXPANSION_C3, units)


def u_bosshat_expansion3(
    variance_total: float, z0: float, radius: float, units: UnitSystem = _REDUCED
) -> EnergyResult:
    """On-axis boss-hat energy expanded to third order in s = (z0-R)/R.

    U = -<d^2>/(48*pi*eps0*(z0-R)^3) * [1 - s + s^2 - (3/8) s^3]

    The third-order coefficient -3/8 comes from the series fit of the
    exact on-axis energy; it differs from the sphere's -7/8, so the two
    expansions coincide only through second order.
    """
    return _expansion3(variance_total, z0, radius, BOSSHAT_EXPANSION_C3, units)


def sphere_bracket(s: float) -> float:
    """Dimensionless near-contact bracket B(s) of the grounded sphere, at
    a float or an array s, normalized so B(0) = 1:
    U = -<d^2> B(s)/(48*pi*eps0*a^3), a = sR."""
    u = u_grounded_sphere(1.0, 1.0 + s, 1.0, _REDUCED)
    return -12.0 * (s * s * s) * u.value


def bosshat_axis_bracket(s: float) -> float:
    """Same normalization for the isotropic on-axis boss-hat energy."""
    v = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL)
    u = u_bosshat_corrected(v, 0.0, 1.0 + s, 1.0, _REDUCED)
    return -12.0 * (s * s * s) * u.value


def fit_expansion_coefficients(
    kind: GeometryKind,
    orders: int = 6,
    window: tuple[float, float] = (1e-4, 1e-2),
    n_points: int = 60,
) -> np.ndarray:
    """Least-squares series fit of the near-contact bracket B(s).

    Returns the coefficients of s^0 .. s^(orders-1) fitted over a
    log-spaced window.  This is the independent determination of the
    third-order coefficients: it does not assume the truncated
    expansion, only the exact closed forms.
    """
    if kind is GeometryKind.GROUNDED_SPHERE:
        bracket = sphere_bracket
    elif kind is GeometryKind.BOSS_HAT:
        bracket = bosshat_axis_bracket
    else:
        raise ValueError("series fit defined for gsphere and bosshat only")
    lo, hi = window
    if not 0.0 < lo < hi:
        raise ValueError("window must satisfy 0 < lo < hi")
    s = np.logspace(math.log10(lo), math.log10(hi), n_points)
    y = bracket(s)
    powers = np.arange(orders)
    design = np.power.outer(s, powers)
    col_scale = np.power(hi, powers)   # condition the Vandermonde columns
    coef, _, _, _ = np.linalg.lstsq(design / col_scale, y, rcond=None)
    return coef / col_scale
