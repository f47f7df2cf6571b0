"""Brute-force validation path: the atom as a physical two-charge dipole.

A point dipole along the unit vector e with variance v is represented
by charges +q at the base point and -q at base + h e, with q h =
sqrt(v).  The interaction energy of this pair with its own images is

    U(h) = (q^2/2*eps0) [G_H(b, b) - G_H(b, t) - G_H(t, b) + G_H(t, t)]

with b the base and t the tip; as h -> 0 it tends to the per-axis
dispersion term (1/2*eps0) <d_m^2> d_m d'_m G_H.  extrapolated_energy
centers each pair on the atom position (base = r0 - (h/2) e), which
cancels the odd powers of h in the error expansion, then extrapolates to h = 0 by
a {1, x, x^2} least-squares fit in x = (h/ell)^2 at fixed h/ell: a constant map.
All charges lie components first in one (3, 2, A, N, K) array for one G_H call.

This path shares only the image construction with the closed forms and
the numeric evaluator; the differentiation is replaced by physical
charge displacement, which is what makes it an independent oracle.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ExtrapolationError, RegionError
from .geometry import (
    DipoleVariances,
    EnergyResult,
    GeometryConfig,
    GeometryKind,
    Method,
    Position,
    as_points,
    local_axes,
    physical_region,
    point_norms,
    surface_distance,
)
from .images import HomogeneousGreen, build_green, g_h
from .units import UnitSystem

_REDUCED = UnitSystem.reduced()

# Step schedule as fractions of the distance to the surface:
# geometric, inside the quadratic-convergence window, above noise.
DEFAULT_H_FRACTIONS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)

# Residual tolerance of the h -> 0 fit, relative to the extrapolated value,
# the k eps of err_estimate's rounding term (see extrapolated_energy) and
# the least normal magnitude, below which rounding errors are absolute.
_FIT_RTOL = 1e-3
_ROUNDING = 8.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _pair_energies(
    green: HomogeneousGreen,
    pair: np.ndarray,
    q_squared: np.ndarray,
    units: UnitSystem,
) -> tuple[np.ndarray, np.ndarray]:
    """Image energies of charge pairs +q at pair[0], -q at pair[1], points of shape
    (2, ..., 3), and (...) q^2, from one G_H call; and, as their rounding's scale, |G_H| summed."""
    g = green.geometry
    if not physical_region(g, pair).all():
        raise RegionError("both dipole charges must lie in the physical region")
    v = g_h(green, pair[:, None], pair[None])   # G_H at (b, b), (b, t); (t, b), (t, t)
    combination = v[0, 0] - v[0, 1] - v[1, 0] + v[1, 1]
    a = np.abs(v)
    size = a[0, 0] + a[0, 1] + a[1, 0] + a[1, 1]
    if g.kind is GeometryKind.ISOLATED_SPHERE:
        # + 2 R/(4 pi |r||r'|): the Kelvin image and the neutrality term cancel far out
        size = size + g.radius / (2.0 * math.pi) * np.sum(1.0 / point_norms(pair), axis=0) ** 2
    # q^2/(2 eps0) written via 4*pi*eps0 so reduced mode stays exact.
    factor = q_squared * (2.0 * math.pi / units.four_pi_epsilon0)
    return factor * combination, factor * size


@functools.lru_cache(maxsize=None)
def _fit_map(fractions: tuple[float, ...]) -> np.ndarray:
    """The fits in x = f^2 of samples at K >= 3 step fractions f as a (2 + K) x K map: h = 0
    values of the {1, x, x^2} and {1, x} fits, then the K residuals of the first; projections
    onto polynomials orthogonal over the samples, exact in integers, rounded once."""
    k = len(fractions)
    ratios = [f.as_integer_ratio() for f in fractions]
    scale = max(d for _, d in ratios)   # x times scale^2 is an integer and fits the same
    x = np.array([(n * (scale // d)) ** 2 for n, d in ratios] + [0], dtype=object)   # then 0
    basis = []   # (q, |q|^2) of 1, x, x^2 made orthogonal over the samples, without division
    for p in (x**0, x, x * x):
        for q, qq in basis:
            p = qq * p - (p[:k] @ q[:k]) * q
        basis.append((p, p[:k] @ p[:k]))
    common = math.prod(qq for _, qq in basis)
    fits = np.cumsum([np.outer(q, q[:k]) * (common // qq) for q, qq in basis], axis=0)   # at x
    rows = np.vstack([fits[2][k], fits[1][k], fits[2][:k] - np.eye(k, dtype=object) * common])
    return (rows / common).astype(float)


def extrapolated_energy(
    g: GeometryConfig,
    variances: DipoleVariances,
    r0: Position | np.ndarray,
    units: UnitSystem = _REDUCED,
) -> EnergyResult:
    """Dispersion energy by finite-dipole h -> 0 extrapolation, for the
    dipole variances of the atom.

    Per variance axis, a centered pair with q h = sqrt(<d_m^2>) is sampled
    at h_j = f_j ell and a0 = sum_j c0_j s_j by the fit map.  A fit error
    max(residual, change of a0 without x^2) above _FIT_RTOL max(|a0|, |s_j|)
    raises ExtrapolationError naming the axis of the first failing point.
    err_estimate adds the samples' rounding, 8 eps sum_j |c0_j| (q_j^2/2 eps0)
    sum|G_H|_j (1 + f_j |r0|/ell): the G_H cancel by (h/ell)^2, and the
    coordinates, rounded at eps |r0|, move a pair by eps |r0|/h_j.  A term of
    the sum under the normal range counts as its least, the scale of underflow.

    r0 is a Position, giving float value and err_estimate, or an (N, 3) array of positions,
    giving (N,) arrays equal to the per-point results: one G_H call, then K multiply-adds.
    """
    points = as_points(r0).reshape(-1, 3)
    ell = surface_distance(g, points)
    if not (ell > 0.0).all():
        raise RegionError("r0 must lie strictly inside the physical region")
    fractions = tuple(DEFAULT_H_FRACTIONS)
    h_values = ell[:, None] * np.array(fractions)                 # (N, K)

    weights = (variances.m1, variances.m2, variances.m3)
    active = [m for m in range(3) if weights[m] != 0.0]
    e = local_axes(variances.frame, points)[:, active].transpose(2, 1, 0)[..., None]   # (3, A, N, 1)
    charges = np.empty((3, 2, len(active)) + h_values.shape)   # (3, 2, A, N, K): base, tip
    base, tip = charges[:, 0], charges[:, 1]
    np.multiply(0.5 * h_values, e, out=base)
    np.subtract(points.T[:, None, :, None], base, out=base)       # centered pairs
    np.multiply(h_values, e, out=tip)
    np.add(base, tip, out=tip)
    q = np.sqrt(np.array(weights)[active])[:, None, None] / h_values
    with np.errstate(over="ignore"):   # the C pow that Python's ** calls, per element
        q_squared = np.float_power(q, 2.0)
    if (np.isinf(q_squared) & np.isfinite(q)).any():
        raise OverflowError("finite-dipole charge squared q^2 = <d_m^2>/h^2 overflows")
    pair = charges.transpose(1, 2, 3, 4, 0)                       # components-last views
    samples, size = _pair_energies(build_green(g), pair, q_squared, units)

    fit_map = _fit_map(fractions)   # (2 + K, K), applied one sample index at a time
    fit = sum(fit_map.T[:, :, None, None] * samples.transpose(2, 0, 1)[:, None])
    a0 = fit[0]
    err_fit = np.maximum(np.abs(fit[2:]).max(axis=0), np.abs(a0 - fit[1]))
    scale = np.maximum(np.abs(a0), np.abs(samples).max(axis=-1))
    failed = err_fit > _FIT_RTOL * scale   # never where scale is 0: then every fit is 0
    if failed.any():   # name the first failing (point, axis) in point-major order
        axis = active[int(np.flatnonzero(failed.T)[0]) % len(active)] + 1
        raise ExtrapolationError(f"finite-dipole extrapolation failed to converge on axis {axis}")
    spread = np.abs(fit_map[0]) * (1.0 + np.array(fractions) * (point_norms(points) / ell)[:, None])
    err_axis = err_fit + _ROUNDING * np.add.reduce(np.maximum(spread * size, _TINY), axis=-1)
    total = np.add.reduce(a0, axis=0, initial=0.0)   # axis by axis, as the per-point sums
    err_total = np.add.reduce(err_axis, axis=0, initial=0.0)
    if isinstance(r0, Position):
        return EnergyResult(float(total[0]), float(err_total[0]), Method.ORACLE, units.mode)
    return EnergyResult(total, err_total, Method.ORACLE, units.mode)
