"""Brute-force validation path: the atom as a physical two-charge dipole.

A point dipole along the unit vector e with variance v is represented
by charges +q at the base point and -q at base + h e, with q h =
sqrt(v).  The interaction energy of this pair with its own images is

    U(h) = (q^2/2*eps0) [G_H(b, b) - G_H(b, t) - G_H(t, b) + G_H(t, t)]

with b the base and t the tip; as h -> 0 it tends to the per-axis
dispersion term (1/2*eps0) <d_m^2> d_m d'_m G_H.  extrapolated_energy
centers each pair on the atom position (base = r0 - (h/2) e), which
cancels the odd powers of h in the error expansion, then extrapolates
the step schedule to h = 0 with a {1, h^2, h^4} least-squares fit.
The schedule is fixed: the fractions DEFAULT_H_FRACTIONS of the
distance to the surface.

This path shares only the image construction with the closed forms and
the numeric evaluator; the differentiation is replaced by physical
charge displacement, which is what makes it an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtrapolationError, RegionError
from .geometry import (
    AtomSpec,
    DipoleVariances,
    EnergyResult,
    GeometryConfig,
    Method,
    Position,
    as_points,
    local_axes,
    physical_region,
    surface_distance,
    variances_of,
)
from .images import HomogeneousGreen, build_green, g_h
from .units import UnitSystem

_REDUCED = UnitSystem.reduced()

# Step schedule as fractions of the distance to the surface:
# geometric, inside the quadratic-convergence window, above noise.
DEFAULT_H_FRACTIONS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)

# Residual tolerance of the h -> 0 fit, relative to the extrapolated value.
_FIT_RTOL = 1e-3


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
) -> np.ndarray:
    """Image energies of charge pairs +q at base, -q at tip, shape (..., 3)
    points and (...) q^2, with one G_H call over all pairs."""
    g = green.geometry
    if not np.all(physical_region(g, base) & physical_region(g, tip)):
        raise RegionError("both dipole charges must lie in the physical region")
    values = g_h(
        green,
        np.stack([base, base, tip, tip], axis=-2),
        np.stack([base, tip, base, tip], axis=-2),
    )
    combination = values[..., 0] - values[..., 1] - values[..., 2] + values[..., 3]
    # q^2/(2 eps0) written via 4*pi*eps0 so reduced mode stays exact.
    return q_squared * (2.0 * math.pi / units.four_pi_epsilon0) * combination


def finite_dipole_energy(
    g: GeometryConfig, fd: FiniteDipole, units: UnitSystem = _REDUCED
) -> float:
    """Image-interaction energy of a finite two-charge dipole."""
    base = as_points(fd.center)
    tip = base + np.asarray(fd.h_vec, dtype=float)
    return float(_pair_energies(build_green(g), base, tip, fd.q**2, units))


def extrapolated_energy(
    g: GeometryConfig,
    atom: AtomSpec | DipoleVariances,
    r0: Position | np.ndarray,
    units: UnitSystem = _REDUCED,
) -> EnergyResult:
    """Dispersion energy by finite-dipole h -> 0 extrapolation.

    For each variance axis, a centered pair with q h = sqrt(<d_m^2>) is
    evaluated over the step schedule and the sequence is extrapolated
    to h = 0; the axis contributions add.  err_estimate combines the
    fit residual with the sensitivity of the extrapolated value to
    dropping the h^4 term.

    r0 is a Position, giving float value and err_estimate, or an (N, 3)
    array of positions, giving (N,) arrays equal to the per-point
    results.  Every sample of the batch comes from one G_H call, and the
    points whose design rows (h/ell)^2 agree bit for bit share one pair
    of least-squares calls, one right-hand side per (point, axis): a few
    pairs per batch.  Values, errors and the axis a convergence failure
    names (that of the first failing point) equal those of separate fits
    per point and axis.
    """
    points = as_points(r0).reshape(-1, 3)
    ell = surface_distance(g, points)[:, None]
    if not np.all(ell > 0.0):
        raise RegionError("r0 must lie strictly inside the physical region")
    green = build_green(g)
    v = variances_of(atom)
    h_values = ell * np.array(DEFAULT_H_FRACTIONS)
    x = (h_values / ell) ** 2                                    # (N, K)

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
    samples = _pair_energies(green, base, tip, q_squared, units)   # (N, A, K)

    # points grouped by their bit-equal design row x
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(x):
        groups.setdefault(row.tobytes(), []).append(i)
    n_axes = len(active)
    a0 = np.zeros((len(points), n_axes))
    err_axis = np.zeros((len(points), n_axes))
    failed = np.zeros((len(points), n_axes), dtype=bool)
    for members in groups.values():
        xg = x[members[0]]
        design_full = np.column_stack([np.ones_like(xg), xg, xg * xg])
        design_quad = design_full[:, :2]
        b = samples[members].reshape(-1, len(xg)).T             # (K, points x axes)
        coef_full, _, _, _ = np.linalg.lstsq(design_full, b, rcond=None)
        coef_quad, _, _, _ = np.linalg.lstsq(design_quad, b, rcond=None)
        # the fitted values summed term by term, as one column's matrix-
        # vector product does; a matrix product may round differently
        fitted = (
            coef_full[0]
            + design_full[:, 1:2] * coef_full[1]
            + design_full[:, 2:3] * coef_full[2]
        )
        residual = np.max(np.abs(fitted - b), axis=0)
        err_g = np.maximum(residual, np.abs(coef_full[0] - coef_quad[0]))
        scale = np.maximum(np.abs(coef_full[0]), np.max(np.abs(b), axis=0))
        shape = (len(members), n_axes)
        a0[members] = coef_full[0].reshape(shape)
        err_axis[members] = err_g.reshape(shape)
        failed[members] = ((scale > 0.0) & (err_g > _FIT_RTOL * scale)).reshape(shape)
    if failed.any():
        # the first failing (point, axis) in point-major order
        k = int(np.flatnonzero(failed)[0]) % n_axes
        raise ExtrapolationError(
            f"finite-dipole extrapolation failed to converge on axis {active[k] + 1}"
        )
    total = np.zeros(len(points))
    err_total = np.zeros(len(points))
    for k in range(n_axes):   # axis by axis, in the order of the per-point sums
        total = total + a0[:, k]
        err_total = err_total + err_axis[:, k]
    if isinstance(r0, Position):
        return EnergyResult(float(total[0]), float(err_total[0]), Method.ORACLE, units.mode)
    return EnergyResult(total, err_total, Method.ORACLE, units.mode)
