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

This path shares only the image construction with the closed forms and
the numeric evaluator; the differentiation is replaced by physical
charge displacement, which is what makes it an independent oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtrapolationError, RegionError
from .geometry import (
    AtomSpec,
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
    variances_of,
)
from .images import HomogeneousGreen, build_green, g_h
from .units import UnitSystem

_REDUCED = UnitSystem.reduced()

# Step schedule as fractions of the distance to the surface:
# geometric, inside the quadratic-convergence window, above noise.
DEFAULT_H_FRACTIONS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)

# Residual tolerance of the h -> 0 fit, relative to the extrapolated value,
# and the k eps of err_estimate's rounding term (see extrapolated_energy).
_FIT_RTOL = 1e-3
_ROUNDING = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class FiniteDipole:
    """Two point charges +q at center and -q at center + h_vec."""

    q: float
    h_vec: tuple[float, float, float]
    center: Position


def _pair_energies(
    green: HomogeneousGreen,
    base: np.ndarray,
    tip: np.ndarray,
    q_squared: np.ndarray,
    units: UnitSystem,
) -> tuple[np.ndarray, np.ndarray]:
    """Image energies of charge pairs +q at base, -q at tip, shape (..., 3)
    points and (...) q^2, from one G_H call; and, as their rounding's scale, |G_H| summed."""
    g = green.geometry
    charges = np.stack([base, tip], axis=-2)   # G_H at (b, b), (b, t), (t, b), (t, t):
    if not np.all(physical_region(g, charges)):
        raise RegionError("both dipole charges must lie in the physical region")
    v = g_h(green, charges[..., :, None, :], charges[..., None, :, :]).reshape(*base.shape[:-1], 4)
    combination = v[..., 0] - v[..., 1] - v[..., 2] + v[..., 3]
    size = np.abs(v[..., 0]) + np.abs(v[..., 1]) + np.abs(v[..., 2]) + np.abs(v[..., 3])
    if g.kind is GeometryKind.ISOLATED_SPHERE:
        # + 2 R/(4 pi |r||r'|): the Kelvin image and the neutrality term cancel far out
        size = size + g.radius / (2.0 * math.pi) * np.sum(1.0 / point_norms(charges), axis=-1) ** 2
    # q^2/(2 eps0) written via 4*pi*eps0 so reduced mode stays exact.
    factor = q_squared * (2.0 * math.pi / units.four_pi_epsilon0)
    return factor * combination, factor * size


def finite_dipole_energy(
    g: GeometryConfig, fd: FiniteDipole, units: UnitSystem = _REDUCED
) -> float:
    """Image-interaction energy of a finite two-charge dipole."""
    base = as_points(fd.center)
    tip = base + np.asarray(fd.h_vec, dtype=float)
    return float(_pair_energies(build_green(g), base, tip, fd.q**2, units)[0])


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
    atom: AtomSpec | DipoleVariances,
    r0: Position | np.ndarray,
    units: UnitSystem = _REDUCED,
) -> EnergyResult:
    """Dispersion energy by finite-dipole h -> 0 extrapolation.

    Per variance axis, a centered pair with q h = sqrt(<d_m^2>) is sampled
    at h_j = f_j ell and a0 = sum_j c0_j s_j by the fit map.  A fit error
    max(residual, change of a0 without x^2) above _FIT_RTOL max(|a0|, |s_j|)
    raises ExtrapolationError naming the axis of the first failing point.
    err_estimate adds the samples' rounding, 8 eps sum_j |c0_j| (q_j^2/2 eps0)
    sum|G_H|_j (1 + f_j |r0|/ell): the G_H cancel by (h/ell)^2, and the
    coordinates, rounded at eps |r0|, move a pair by eps |r0|/h_j.

    r0 is a Position, giving float value and err_estimate, or an (N, 3) array of positions,
    giving (N,) arrays equal to the per-point results: one G_H call, then K multiply-adds.
    """
    points = as_points(r0).reshape(-1, 3)
    ell = surface_distance(g, points)
    if not np.all(ell > 0.0):
        raise RegionError("r0 must lie strictly inside the physical region")
    v = variances_of(atom)
    fractions = tuple(DEFAULT_H_FRACTIONS)
    h_values = ell[:, None] * np.array(fractions)                 # (N, K)

    weights = (v.m1, v.m2, v.m3)
    active = [m for m in range(3) if weights[m] != 0.0]
    e = local_axes(v.frame, points)[:, active, None, :]          # (N, A, 1, 3)
    h = h_values[:, None, :, None]                               # (N, 1, K, 1)
    base = points[:, None, None, :] - 0.5 * h * e                # centered pairs
    tip = base + h * e
    q = np.array([math.sqrt(weights[m]) for m in active])[:, None] / h_values[:, None, :]
    # q^2 through Python's ** (the C library pow), not numpy's power,
    # which may round differently in the last bit.
    q_squared = np.array([qq**2 for qq in q.ravel().tolist()]).reshape(q.shape)
    samples, size = _pair_energies(build_green(g), base, tip, q_squared, units)   # (N, A, K)

    fit_map = _fit_map(fractions)   # (2 + K, K), applied one sample index at a time
    fit = sum(c[:, None, None] * s for c, s in zip(fit_map.T, np.moveaxis(samples, -1, 0)))
    a0 = fit[0]
    err_fit = np.maximum(np.max(np.abs(fit[2:]), axis=0), np.abs(a0 - fit[1]))
    scale = np.maximum(np.abs(a0), np.max(np.abs(samples), axis=-1))
    failed = (scale > 0.0) & (err_fit > _FIT_RTOL * scale)
    if failed.any():   # name the first failing (point, axis) in point-major order
        axis = active[int(np.flatnonzero(failed)[0]) % len(active)] + 1
        raise ExtrapolationError(f"finite-dipole extrapolation failed to converge on axis {axis}")
    spread = np.abs(fit_map[0]) * (1.0 + np.array(fractions) * (point_norms(points) / ell)[:, None])
    err_axis = err_fit + _ROUNDING * np.add.reduce(spread[:, None, :] * size, axis=-1)
    total = err_total = np.zeros(len(points))
    for k in range(len(active)):   # axis by axis, in the order of the per-point sums
        total = total + a0[:, k]
        err_total = err_total + err_axis[:, k]
    if isinstance(r0, Position):
        return EnergyResult(float(total[0]), float(err_total[0]), Method.ORACLE, units.mode)
    return EnergyResult(total, err_total, Method.ORACLE, units.mode)
