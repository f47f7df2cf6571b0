"""Dispersion energy from mixed second derivatives of the induced
Green function:

    U(r0) = (1/2*eps0) * sum_m <d_m^2> * d_m d'_m G_H(r, r')|_{r=r'=r0}

The derivative along each axis is taken with the 4-point tensor-product
stencil

    [G(+h,+h) - G(+h,-h) - G(-h,+h) + G(-h,-h)] / (4 h^2)

whose error expands in even powers of h, and Richardson-extrapolated
over halved steps.  Only diagonal axis pairs are needed because the
dipole covariance is diagonal in the chosen basis.  A batch of
positions is differentiated with one G_H call over all its stencils.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import RegionError, StepUnderflowError
from .geometry import (
    AtomSpec,
    DipoleVariances,
    EnergyResult,
    GeometryConfig,
    Method,
    Position,
    as_points,
    local_axes,
    point_norms,
    surface_distance,
    variances_of,
)
from .images import HomogeneousGreen, build_green, g_h
from .units import UnitSystem

_EPS = sys.float_info.epsilon

_AXIS_VECTORS = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}


@dataclass(frozen=True)
class DiffSettings:
    """Finite-difference controls.

    base_step is a fraction of the local length scale
    max(distance-to-surface, 0.01*|r0|).  The default 1e-2 with three
    Richardson levels keeps rounding noise near 1e-11 relative while the
    extrapolated truncation error sits near 1e-12; much smaller raw
    steps drown the stencil in cancellation noise.
    """

    base_step: float = 1e-2
    richardson_levels: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.base_step < 1e-1:
            raise ValueError("base_step must lie in (0, 1e-1)")
        if not 1 <= self.richardson_levels <= 6:
            raise ValueError("richardson_levels must lie in [1, 6]")


DEFAULT_DIFF_SETTINGS = DiffSettings()


def _mixed_second(
    green: HomogeneousGreen,
    points: np.ndarray,
    directions: np.ndarray,
    settings: DiffSettings,
) -> tuple[np.ndarray, np.ndarray]:
    """Mixed second derivatives at (N, 3) points along (N, A, 3) unit
    directions, each (N, A): the Richardson value and its last increment
    (nan for a single level).  Every stencil point of every point,
    direction and level goes to G_H in one call.
    """
    dist = surface_distance(green.geometry, points)
    if not np.all(dist > 0.0):
        raise RegionError("r0 must lie strictly inside the physical region")
    norm = point_norms(points)
    scale = np.maximum(dist, 0.01 * norm)
    h0 = settings.base_step * scale
    # stencil points must not cross the conductor
    h0 = np.where(h0 >= dist, 0.45 * dist, h0)
    levels = settings.richardson_levels
    if np.any(h0 / 2.0 ** (levels - 1) < 1e3 * _EPS * norm):
        raise StepUnderflowError(
            "finite-difference step below floating-point resolution"
        )
    steps = [h0]
    for _ in range(levels - 1):
        steps.append(steps[-1] * 0.5)
    h = np.stack(steps, axis=-1)[:, None, :]                     # (N, 1, L)

    # Stencil points (N, A, L, 3), then the four (r, r') pairs of each
    # stencil along axis -2 in the order ++, +-, -+, --.
    offset = h[..., None] * directions[:, :, None, :]
    center = points[:, None, None, :]
    plus = center + offset
    minus = center - offset
    values = g_h(
        green,
        np.stack([plus, plus, minus, minus], axis=-2),
        np.stack([plus, minus, plus, minus], axis=-2),
    )
    stencil = (
        values[..., 0] - values[..., 1] - values[..., 2] + values[..., 3]
    ) / (4.0 * h * h)

    row_prev: list[np.ndarray] = []
    diag_prev = None
    for i in range(levels):
        row = [stencil[..., i]]
        for j in range(1, i + 1):
            factor = 4.0**j
            row.append(row[j - 1] + (row[j - 1] - row_prev[j - 1]) / (factor - 1.0))
        if i == levels - 2:
            diag_prev = row[-1]
        row_prev = row
    value = row_prev[-1]
    err = np.abs(value - diag_prev) if levels >= 2 else np.full_like(value, math.nan)
    return value, err


def mixed_second_dir(
    green: HomogeneousGreen,
    r0: Position,
    direction: tuple[float, float, float],
    settings: DiffSettings = DEFAULT_DIFF_SETTINGS,
) -> tuple[float, float]:
    """Mixed second derivative of G_H along an arbitrary unit direction.

    Returns (value, err) where err is the last Richardson increment
    (nan for a single level, which has no estimate).
    """
    value, err = _mixed_second(
        green,
        as_points(r0).reshape(1, 3),
        np.asarray(direction, dtype=float).reshape(1, 1, 3),
        settings,
    )
    return float(value[0, 0]), float(err[0, 0])


def mixed_second(
    green: HomogeneousGreen,
    r0: Position,
    axis: str,
    settings: DiffSettings = DEFAULT_DIFF_SETTINGS,
) -> tuple[float, float]:
    """Mixed second derivative along a Cartesian axis 'x', 'y' or 'z'."""
    try:
        direction = _AXIS_VECTORS[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', not {axis!r}") from None
    return mixed_second_dir(green, r0, direction, settings)


def energy_numeric(
    g: GeometryConfig,
    atom: AtomSpec | DipoleVariances,
    r0: Position | np.ndarray,
    settings: DiffSettings = DEFAULT_DIFF_SETTINGS,
    units: UnitSystem = UnitSystem.reduced(),
) -> EnergyResult:
    """Dispersion energy by numerical differentiation of G_H.

    r0 is a Position, giving float value and err_estimate, or an (N, 3)
    array of positions, giving (N,) arrays equal to the per-point
    results; the whole batch takes one G_H call.

    For cylindrical-frame variances the three derivative directions are
    rotated so components follow (rho-hat, phi-hat, z-hat) at the atom's
    azimuth; Cartesian-frame variances use the fixed (x, y, z) axes.
    """
    v = variances_of(atom)
    green = build_green(g)
    points = as_points(r0).reshape(-1, 3)
    weights = (v.m1, v.m2, v.m3)
    active = [m for m in range(3) if weights[m] != 0.0]
    d, e = _mixed_second(
        green, points, local_axes(v.frame, points)[:, active], settings
    )
    prefactor = 2.0 * math.pi / units.four_pi_epsilon0   # = 1/(2*eps0)
    value = np.zeros(len(points))
    err = np.zeros(len(points))
    for k, m in enumerate(active):
        value = value + weights[m] * d[:, k]
        err = err + weights[m] * np.abs(e[:, k])   # nan (one level) stays nan
    value = prefactor * value
    err = prefactor * err
    if isinstance(r0, Position):
        value, err = float(value[0]), float(err[0])
    return EnergyResult(
        value=value,
        err_estimate=err,
        method=Method.NUMERIC_EZ,
        units=units.mode,
    )
