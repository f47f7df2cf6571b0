"""Closed-form dispersion energies for the four conductor geometries.

Each form is a kernel K_a(r0) per unit variance on three axes, and the energy
is U = sum_a <d_a^2> K_a (DipoleVariances.contract, as in every route): the plane's
-(1, 1, 2)/(16*4*pi*eps0)/z0^3 on (x, y, z), the spheres'
-bracket/(6*4*pi*eps0) on every axis (isotropic variances only), the
boss hat's -(xi_rho, xi_phi, xi_z)/(16*4*pi*eps0)/z0^3 on (rho, phi, z).
Every form computes on arrays; the u_* forms, the scalar API, give a
float for floats.  energy_closed is the closed-form route: like
energy_numeric and extrapolated_energy it takes DipoleVariances and a
Position, a batch of one, or an (N, 3) array of points.  Every form takes
its powers of the lengths at the point scaled by a power of two (the
spheres and the boss hat test their region there too), so no power
overflows or underflows before the energy: one that overflows is -inf, and
one below the normal range keeps its subnormal digits.

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
)
from .units import UnitSystem

_REDUCED = UnitSystem.reduced()

# Third-order near-contact coefficients, determined by the independent
# series fit in fit_expansion_coefficients and certified in the tests.
SPHERE_EXPANSION_C3 = -0.875    # -7/8
BOSSHAT_EXPANSION_C3 = -0.375   # -3/8


def _in_frame(v: DipoleVariances, kernel, points: np.ndarray) -> tuple:
    """A (rho, phi, z) kernel at the points in the frame of v: rotated to each point's azimuth
    for Cartesian variances, the rho-phi covariance dropping out by mirror symmetry."""
    if v.frame is VarianceFrame.CYLINDRICAL_LOCAL:
        return kernel
    c, s = local_axes(VarianceFrame.CYLINDRICAL_LOCAL, points)[:, 0, :2].T
    c2, s2 = c * c, s * s
    return c2 * kernel[0] + s2 * kernel[1], s2 * kernel[0] + c2 * kernel[1], kernel[2]


def _scalar(value, *inputs: np.ndarray):
    """value as a float where every input array is 0-d."""
    return value if any(x.ndim for x in inputs) else float(value)


def _over_cube(numerator, z):
    """numerator / z^3, z > 0, with the cube taken at z/2^e, e the exponent of z, and the
    quotient times 2^(-3e): exact where the quotient is normal, as a power of two scales a
    float exactly, and a quotient below the normal range keeps its subnormal digits."""
    e = np.frexp(z)[1]
    z = np.ldexp(z, -e)
    return np.ldexp(numerator / (z * z * z), -3 * e)


def _plane_kernel(z, units: UnitSystem) -> tuple:
    """The plane's kernel at heights z."""
    if (z <= 0.0).any():
        raise ContactError("atom must sit above the plane (z0 > 0)")
    k = _over_cube(-1.0 / (16.0 * units.four_pi_epsilon0), z)
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
        value = variances.contract(_plane_kernel(z, units))
    return EnergyResult(_scalar(value, z), 0.0, Method.CLOSED_FORM, units.mode)


def _check_sphere(distance, radius) -> None:
    if (distance <= radius).any():
        raise ContactError("atom must sit outside the sphere (distance from its center > R)")


def _sphere_kernel(x, y, z, radius: float, isolated: bool, units: UnitSystem) -> tuple:
    """A sphere's kernel at (x, y, z) about its centre: 4 R^3/delta^3 + R/delta^2,
    less R/|r0|^4 if isolated, in delta = rho^2 + (z - R)(z + R), exact on the axis.
    Computed at (x, y, z, R)/2^e, e the exponent of the largest coordinate, times 2^(-3e):
    exact, as the kernel has degree -3 and a power of two scales a float exactly.
    ContactError unless |r0| > R, tested there too, so that no norm overflows."""
    e = np.frexp(np.maximum(np.maximum(abs(x), abs(y)), abs(z)))[1]
    x, y, z, radius = (np.ldexp(c, -e) for c in (x, y, z, radius))
    rho2 = x * x + y * y
    r2 = rho2 + z * z
    _check_sphere(np.sqrt(r2), radius)   # point_norms, the numeric route's region
    delta = rho2 + (z - radius) * (z + radius)
    d2 = delta * delta
    d3 = d2 * delta
    # float_power is the C pow of Python's **; np.power's cube can differ in the last bit
    bracket = 4.0 * np.float_power(radius, 3) / d3 + radius / d2
    if isolated:
        bracket = bracket - radius / (r2 * r2)
    k = np.ldexp(-bracket / (6.0 * units.four_pi_epsilon0), -3 * e)
    return k, k, k


def _sphere_energy(variance_total: float, z0, radius: float, isolated: bool, units: UnitSystem):
    z = np.asarray(z0, dtype=float)
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    _check_sphere(z, radius)   # z0 is signed; the kernel tests |z0|
    with np.errstate(over="ignore"):
        value = variance_total * _sphere_kernel(0, 0, z, radius, isolated, units)[0]   # isotropic
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


def _check_bosshat_region(radius: float, rho0, z0) -> tuple:
    """RegionError unless z0 > 0 and rho0^2 + z0^2 > R^2, the squares compared at
    (rho0, z0, R)/2^e, e the exponent of the larger coordinate, where none overflows;
    those scaled lengths are returned."""
    if radius < 0.0:
        raise ValueError("radius must be >= 0")
    e = np.frexp(np.maximum(abs(rho0), abs(z0)))[1]
    rho, z, r = (np.ldexp(c, -e) for c in (rho0, z0, radius))
    if not np.all((z0 > 0.0) & (rho * rho + z * z > r * r)):
        raise RegionError(
            "boss-hat atom position requires z0 > 0 and rho0^2 + z0^2 > R^2"
        )
    return rho, z, r


def _xi(radius: float, rho, z) -> BossHatXi:
    """The corrected angular factors at arrays rho and z; d = rho^2 + (z - R)(z + R)
    is exact on the axis.  The factors have degree 0, so computing them at the lengths
    scaled by _check_bosshat_region is exact: a power of two scales a float exactly."""
    rho, z, radius = _check_bosshat_region(radius, rho, z)
    r2 = radius * radius
    p2 = rho * rho
    z2 = z * z
    d = p2 + (z - radius) * (z + radius)
    d3 = d * d * d
    s = p2 + z2 + r2
    a = s * s - 4.0 * r2 * p2
    root = np.sqrt(a)
    a32 = a * root
    a52 = a * a * root
    w = 8.0 * radius * (z2 * z)
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
    return BossHatXi(xi_rho, xi_phi, xi_z)


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
        xi = _xi(radius, rho, z)
    return BossHatXi(*(_scalar(f, rho, z) for f in (xi.xi_rho, xi.xi_phi, xi.xi_z)))


def _xi_kernel(xi: BossHatXi, z0, units: UnitSystem) -> tuple:
    """The boss-hat kernel per unit (rho, phi, z) variance at heights z0 > 0."""
    c = 16.0 * units.four_pi_epsilon0
    return tuple(_over_cube(-f / c, z0) for f in (xi.xi_rho, xi.xi_phi, xi.xi_z))


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
        value = variances.contract(_xi_kernel(_xi(radius, rho, z), z, units))
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
    array of positions, giving (N,) values; err_estimate is 0.  An
    energy that overflows is -inf, and one below the normal range keeps its
    subnormal digits.  Division and invalid operations follow the caller's
    np.errstate.
    """
    points = as_points(r0).reshape(-1, 3)
    x, y, z = points.T
    with np.errstate(over="ignore"):
        if g.kind is GeometryKind.PLANE:
            value = variances.contract(_plane_kernel(z, units))
        elif g.kind is GeometryKind.BOSS_HAT:
            kernel = _xi_kernel(_xi(g.radius, np.hypot(x, y), z), z, units)
            value = variances.contract(_in_frame(variances, kernel, points))
        else:
            isotropic_total(variances)
            isolated = g.kind is GeometryKind.ISOLATED_SPHERE
            value = variances.contract(_sphere_kernel(x, y, z, g.radius, isolated, units))
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
    s = (1.0 + np.logspace(math.log10(lo), math.log10(hi), n_points)) - 1.0   # as 1 + s sees it
    y = bracket(s)
    powers = np.arange(orders)
    design = np.power.outer(s, powers)
    col_scale = np.power(hi, powers)   # condition the Vandermonde columns
    coef, _, _, _ = np.linalg.lstsq(design / col_scale, y, rcond=None)
    return coef / col_scale
