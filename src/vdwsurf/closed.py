"""Closed-form dispersion energies for the four conductor geometries.

energy_closed is the closed-form route: like energy_numeric and
extrapolated_energy it takes DipoleVariances and a Position or an
(N, 3) array of points.
It picks the form of the geometry and checks that the spheres get
isotropic variances.  The u_* forms, the scalar API, are also its
kernels: they take arrays as well and give them the scalar bits.

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

# The forms below take floats or 1-D arrays of equal length and give an
# array the bits of its floats: np.float_power calls the C pow of Python's
# ** (np.power may differ in the last bit), np.sqrt rounds correctly as
# math.sqrt does, and _hypot maps math.hypot (np.hypot may differ).


def _power(x, n: int):
    """x**n, raising OverflowError as ** does."""
    if isinstance(x, np.ndarray):
        with np.errstate(all="ignore"):
            y = np.float_power(x, n)
        over = np.isinf(y)
        if over.any() and np.isfinite(x[over]).any():
            raise OverflowError(f"x**{n} out of float range")
        return y
    return x**n


def _hypot(x, *coords):
    """math.hypot, point by point on arrays."""
    if isinstance(x, np.ndarray):
        columns = (c.tolist() for c in (x, *coords))
        return np.fromiter(map(math.hypot, *columns), float, len(x))
    return math.hypot(x, *coords)


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _linear(energy, v: DipoleVariances):
    """energy(v) of a form linear in the variances v, a float or an array.
    Where it is not finite and the largest variance is 1 or more, a sum of
    the variances may have overflowed: there it is energy(v * s) / s, s the
    power of two that takes the largest variance into [0.5, 1).  Finite
    values keep their bits."""
    value = energy(v)
    k = math.frexp(max(v.m1, v.m2, v.m3))[1]
    if k <= 0 or np.isfinite(value).all():
        return value
    s = math.ldexp(1.0, -k)
    again = energy(DipoleVariances(v.m1 * s, v.m2 * s, v.m3 * s, v.frame))
    with np.errstate(over="ignore"):
        again = again / s
    return np.where(np.isfinite(value), value, again) if isinstance(value, np.ndarray) else again


def u_plane(
    variances: DipoleVariances, z0: float, units: UnitSystem = _REDUCED
) -> EnergyResult:
    """Atom-plane dispersion energy -[<d_1^2>+<d_2^2>+2<d_3^2>]/(64*pi*eps0*|z0|^3).

    Valid on either side of the plane; only contact z0 = 0 is rejected.
    The two transverse variance components enter symmetrically, so the
    frame tag does not matter here.

    >>> u_plane(DipoleVariances(0.0, 0.0, 1.0), 1.0).value
    -0.125
    """
    if np.any(z0 == 0.0):
        raise ContactError("zero distance to the plane")
    cube = _power(abs(z0), 3)
    with np.errstate(over="ignore"):
        denominator = 16.0 * units.four_pi_epsilon0 * cube
    # 16 k |z0|^3 overflows a little before |z0|^3 does: there the energy
    # is divided in two steps rather than left a silent -0.0
    split = np.isinf(denominator) & np.isfinite(cube)

    def energy(v: DipoleVariances):
        value = -(v.m1 + v.m2 + 2.0 * v.m3) / denominator
        if np.any(split):
            two_steps = -(v.m1 + v.m2 + 2.0 * v.m3) / (16.0 * units.four_pi_epsilon0) / cube
            value = np.where(split, two_steps, value) if isinstance(value, np.ndarray) else two_steps
        return value

    return EnergyResult(_linear(energy, variances), 0.0, Method.CLOSED_FORM, units.mode)


def _check_sphere(z0: float, radius: float) -> None:
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if np.any(z0 <= radius):
        raise ContactError("atom must sit outside the sphere (distance from its center > R)")


def u_grounded_sphere(
    variance_total: float, z0: float, radius: float, units: UnitSystem = _REDUCED
) -> EnergyResult:
    """Isotropic atom vs grounded sphere, center-to-atom distance z0.

    U = -(<d^2>/24*pi*eps0) * [4R^3/z0^6 (1-R^2/z0^2)^-3
                               + R/z0^4 (1-R^2/z0^2)^-2]
    """
    _check_sphere(z0, radius)
    gap = 1.0 - _power(radius / z0, 2)
    bracket = (
        4.0 * radius**3 / _power(z0, 6) / _power(gap, 3)
        + radius / _power(z0, 4) / _power(gap, 2)
    )
    value = -variance_total * bracket / (6.0 * units.four_pi_epsilon0)
    return EnergyResult(value, 0.0, Method.CLOSED_FORM, units.mode)


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
    _check_sphere(z0, radius)
    gap = 1.0 - _power(radius / z0, 2)
    r_z4 = radius / _power(z0, 4)
    bracket = 4.0 * radius**3 / _power(z0, 6) / _power(gap, 3) + r_z4 / _power(gap, 2) - r_z4
    value = -variance_total * bracket / (6.0 * units.four_pi_epsilon0)
    return EnergyResult(value, 0.0, Method.CLOSED_FORM, units.mode)


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


def xi_factors_corrected(radius: float, rho0: float, z0: float) -> BossHatXi:
    """Boss-hat angular factors derived from the image construction.

    Matches the numeric evaluator and finite-dipole oracle to
    floating-point accuracy on and off the axis.  Differences from the
    transcribed form (vdwsurf._errata.xi_factors): the rho numerator
    term +R^4*rho0^2 becomes -R^4*rho0^2 (sign), and zeta is replaced by
    [(R^2-z0^2)((R^2+z0^2)^2+rho0^4) - 2 rho0^2 (R^4+4R^2 z0^2+z0^4)]
    times (rho0^2+z0^2-R^2)^3.  The phi factor is identical.
    """
    _check_bosshat_region(radius, rho0, z0)
    r2 = radius * radius
    p2 = rho0 * rho0
    z2 = z0 * z0
    a = _power(p2 + z2 + r2, 2) - 4.0 * r2 * p2
    a32 = a * _sqrt(a)
    a52 = a * a * _sqrt(a)
    d3 = _power(p2 + z2 - r2, 3)
    w = 8.0 * radius * _power(z0, 3)
    rz4 = _power(r2 + z2, 2)

    num_rho = (rz4 - (r2 + p2 + 8.0 * z2) * p2) * r2 + _power(z2 + p2, 2) * p2
    xi_rho = 1.0 - w * (num_rho / a52 - (p2 + r2) / d3)

    xi_phi = 1.0 + w * r2 * (1.0 / d3 - 1.0 / a32)

    w_z = (r2 - z2) * (rz4 + p2 * p2) - 2.0 * p2 * (
        r2 * r2 + 4.0 * r2 * z2 + z2 * z2
    )
    xi_z = 2.0 + w * ((r2 + z2) / d3 + w_z / a52)
    return BossHatXi(xi_rho, xi_phi, xi_z)


def _u_from_xi(m: tuple, z0: float, xi: BossHatXi, units: UnitSystem) -> float:
    """The energy of (rho, phi, z) variances m, floats or arrays."""
    m1, m2, m3 = m
    with np.errstate(over="ignore", invalid="ignore"):   # _linear takes an overflowing sum again
        numerator = m1 * xi.xi_rho + m2 * xi.xi_phi + m3 * xi.xi_z
    return -numerator / (16.0 * units.four_pi_epsilon0 * _power(z0, 3))


def u_bosshat_corrected(
    variances: DipoleVariances,
    rho0: float,
    z0: float,
    radius: float,
    units: UnitSystem = _REDUCED,
) -> EnergyResult:
    """Boss-hat dispersion energy from the corrected angular factors."""
    xi = xi_factors_corrected(radius, rho0, z0)
    value = _linear(lambda v: _u_from_xi((v.m1, v.m2, v.m3), z0, xi, units), variances)
    return EnergyResult(value, 0.0, Method.CLOSED_FORM, units.mode)


def isotropic_total(v: DipoleVariances, forms: str = "closed-form sphere energies") -> float:
    """<d^2> of variances the sphere forms accept: components equal to
    a relative 1e-9 of the total. The error names the forms asked for."""
    if max(v.m1, v.m2, v.m3) - min(v.m1, v.m2, v.m3) > 1e-9 * max(v.total, 1e-300):
        raise ValueError(f"{forms} require isotropic variances; use the numeric or oracle route")
    return v.total


def energy_closed(
    g: GeometryConfig,
    variances: DipoleVariances,
    r0: Position | np.ndarray,
    units: UnitSystem = _REDUCED,
) -> EnergyResult:
    """Dispersion energy from the closed form of the geometry, for the
    dipole variances of the atom.

    r0 is a Position, giving a float value, or an (N, 3) array of
    positions, giving (N,) values equal to the per-point ones bit for
    bit; err_estimate is 0.  The spheres take isotropic variances only,
    at the centre distance of r0.  The boss-hat form reads (rho, phi, z)
    variances: Cartesian ones are rotated to the azimuth of each point,
    (m1 cos^2 + m2 sin^2, m1 sin^2 + m2 cos^2, m3), the rho-phi
    covariance dropping out by mirror symmetry.  Where a power of a
    distance overflows, the OverflowError names the first such point;
    where only a sum of the variances overflows, the energy is finite.
    """
    single = isinstance(r0, Position)
    x, y, z = (r0.x, r0.y, r0.z) if single else as_points(r0).reshape(-1, 3).T
    try:
        if g.kind is GeometryKind.PLANE:
            result = u_plane(variances, z, units)
        elif g.kind is GeometryKind.BOSS_HAT:
            c2, s2 = 1.0, 0.0   # (rho, phi, z) variances: m1 * 1 + m2 * 0 is m1
            if variances.frame is VarianceFrame.CARTESIAN:
                e_rho = np.asarray(local_axes(VarianceFrame.CYLINDRICAL_LOCAL, r0))[..., 0, :]
                c2, s2 = e_rho[..., 0] ** 2, e_rho[..., 1] ** 2
            xi = xi_factors_corrected(g.radius, _hypot(x, y), z)
            value = _linear(lambda v: _u_from_xi(
                (v.m1 * c2 + v.m2 * s2, v.m1 * s2 + v.m2 * c2, v.m3), z, xi, units), variances)
            result = EnergyResult(value, 0.0, Method.CLOSED_FORM, units.mode)
        else:
            form = u_grounded_sphere if g.kind is GeometryKind.GROUNDED_SPHERE else u_isolated_sphere
            r = _hypot(x, y, z)
            value = _linear(lambda v: form(isotropic_total(v), r, g.radius, units).value, variances)
            result = EnergyResult(value, 0.0, Method.CLOSED_FORM, units.mode)
    except OverflowError:
        if single:
            raise OverflowError(
                f"closed-form energy out of float range at (x, y, z) = ({x!r}, {y!r}, {z!r}):"
                " a power of the distance overflows"
            ) from None
        for point in zip(x.tolist(), y.tolist(), z.tolist()):
            energy_closed(g, variances, Position(*point), units)   # raises at the first such point
        raise
    if single:
        return EnergyResult(float(result.value), 0.0, result.method, result.units)
    return EnergyResult(result.value, np.zeros_like(result.value), result.method, result.units)


def _expansion3(
    variance_total: float, z0: float, radius: float, c3: float, units: UnitSystem
) -> EnergyResult:
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    s = (z0 - radius) / radius
    if not np.all((0.0 < s) & (s < 0.5)):
        raise ExpansionWindowError(
            "near-contact expansion valid only for 0 < (z0-R)/R < 0.5"
        )
    a = z0 - radius
    bracket = 1.0 - s + s * s + c3 * _power(s, 3)
    value = -variance_total * bracket / (12.0 * units.four_pi_epsilon0 * _power(a, 3))
    # Remainder of the truncated series; the 5 s^4 envelope is measured
    # against the exact forms in the tests.
    err = abs(value) * 5.0 * _power(s, 4)
    return EnergyResult(value, err, Method.EXPANSION3, units.mode)


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
    """Dimensionless near-contact bracket B(s) of the grounded sphere,
    normalized so B(0) = 1: U = -<d^2> B(s)/(48*pi*eps0*a^3), a = sR."""
    u = u_grounded_sphere(1.0, 1.0 + s, 1.0, _REDUCED)
    return -12.0 * s**3 * u.value


def bosshat_axis_bracket(s: float) -> float:
    """Same normalization for the isotropic on-axis boss-hat energy."""
    v = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL)
    u = u_bosshat_corrected(v, 0.0, 1.0 + s, 1.0, _REDUCED)
    return -12.0 * s**3 * u.value


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
    y = np.array([bracket(si) for si in s])
    powers = np.arange(orders)
    design = np.power.outer(s, powers)
    col_scale = np.power(hi, powers)   # condition the Vandermonde columns
    coef, _, _, _ = np.linalg.lstsq(design / col_scale, y, rcond=None)
    return coef / col_scale
