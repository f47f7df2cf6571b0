"""Dispersion energy from mixed second derivatives of the induced
Green function:

    U(r0) = (1/2*eps0) * sum_m <d_m^2> * d_m d'_m G_H(r, r')|_{r=r'=r0}

The derivative along each axis is taken with the 4-point tensor-product
stencil

    [G(+h,+h) - G(+h,-h) - G(-h,+h) + G(-h,-h)] / (4 h^2)

whose error expands in even powers of h, at the fixed steps h0, h0/2
and h0/4, Richardson-extrapolated over the three.  h0 is 1e-2 of the
local length scale max(distance-to-surface, 0.01*|r0|), which keeps
rounding noise near 1e-11 relative while the extrapolated truncation
error sits near 1e-12; much smaller raw steps drown the stencil in
cancellation noise.  Only diagonal axis pairs are needed because the
dipole covariance is diagonal in the chosen basis.  A batch of
positions is differentiated with one G_H call over all its stencils.
"""

from __future__ import annotations

import math
import sys

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
from .images import build_green, g_h
from .units import UnitSystem

_EPS = sys.float_info.epsilon

# First step as a fraction of the local length scale.
_BASE_STEP = 1e-2


def energy_numeric(
    g: GeometryConfig,
    atom: AtomSpec | DipoleVariances,
    r0: Position | np.ndarray,
    units: UnitSystem = UnitSystem.reduced(),
) -> EnergyResult:
    """Dispersion energy by numerical differentiation of G_H.

    r0 is a Position, giving float value and err_estimate, or an (N, 3)
    array of positions, giving (N,) arrays equal to the per-point
    results; the whole batch takes one G_H call.  err_estimate is the
    variance-weighted sum of the last Richardson increments of the axes.

    For cylindrical-frame variances the three derivative directions are
    rotated so components follow (rho-hat, phi-hat, z-hat) at the atom's
    azimuth; Cartesian-frame variances use the fixed (x, y, z) axes.
    """
    v = variances_of(atom)
    green = build_green(g)
    points = as_points(r0).reshape(-1, 3)
    weights = (v.m1, v.m2, v.m3)
    active = [m for m in range(3) if weights[m] != 0.0]
    directions = local_axes(v.frame, points)[:, active]            # (N, A, 3)

    dist = surface_distance(g, points)
    if not np.all(dist > 0.0):
        raise RegionError("r0 must lie strictly inside the physical region")
    norm = point_norms(points)
    h0 = _BASE_STEP * np.maximum(dist, 0.01 * norm)
    # stencil points must not cross the conductor
    h0 = np.where(h0 >= dist, 0.45 * dist, h0)
    if np.any(h0 / 4.0 < 1e3 * _EPS * norm):
        raise StepUnderflowError(
            "finite-difference step below floating-point resolution"
        )
    h1 = h0 * 0.5
    h = np.stack([h0, h1, h1 * 0.5], axis=-1)[:, None, :]           # (N, 1, 3)

    # Stencil points (N, A, 3, 3), then the four (r, r') pairs of each
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
    s0, s1, s2 = stencil[..., 0], stencil[..., 1], stencil[..., 2]  # (N, A)
    r1 = s1 + (s1 - s0) / 3.0
    r2 = s2 + (s2 - s1) / 3.0
    d = r2 + (r2 - r1) / 15.0
    e = np.abs(d - r1)

    prefactor = 2.0 * math.pi / units.four_pi_epsilon0   # = 1/(2*eps0)
    value = np.zeros(len(points))
    err = np.zeros(len(points))
    for k, m in enumerate(active):
        value = value + weights[m] * d[:, k]
        err = err + weights[m] * e[:, k]
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
