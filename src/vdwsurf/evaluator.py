"""Dispersion energy from mixed second derivatives of the induced
Green function:

    U(r0) = (1/2*eps0) * sum_m <d_m^2> * d_m d'_m G_H(r, r')|_{r=r'=r0}

G_H is a finite sum of image charges w(r')/(4*pi*|r - L(r')|), so the
derivative is exact: with u = r - L, phi = 1/|u| and J the Jacobian of
the image location L in r' (images.image_records), each image adds

    e . d d' [w phi(u)] . e = (grad w . e)(grad phi(u) . e) - w e^T H(u) J e,
    H(u) = (3 u u^T - |u|^2 I)/|u|^5.

Only diagonal axis pairs are needed because the dipole covariance is
diagonal in the chosen basis; DipoleVariances.contract weights them.
There is no step: the error is rounding alone, bounded term by term.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import RegionError
from .geometry import (
    DipoleVariances,
    EnergyResult,
    GeometryConfig,
    Method,
    Position,
    as_points,
    local_axes,
    surface_distance,
)
from .images import _distances, _dot, build_green, g_h, image_records  # g_h: perfbench wraps it
from .units import UnitSystem

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def energy_numeric(
    g: GeometryConfig,
    variances: DipoleVariances,
    r0: Position | np.ndarray,
    units: UnitSystem = UnitSystem.reduced(),
) -> EnergyResult:
    """Dispersion energy from the exact mixed derivatives of G_H, for the
    dipole variances of the atom.

    r0 is a Position, giving float value and err_estimate, or an (N, 3)
    array of positions, giving (N,) arrays equal to the per-point
    results: variances.contract of the kernel on the three axes of the frame.
    err_estimate bounds the rounding error: 8*eps times the contraction of the absolute
    image terms, each Kelvin term scaled by (1 + |r0|/|u|), as u = r0 - L cancels near the
    sphere.  Magnitudes under the normal range count as its least, the scale of underflow.

    For cylindrical-frame variances the three derivative directions are
    rotated so components follow (rho-hat, phi-hat, z-hat) at the atom's
    azimuth; Cartesian-frame variances use the fixed (x, y, z) axes.
    """
    points = as_points(r0).reshape(-1, 3)
    if not np.all(surface_distance(g, points) > 0.0):
        raise RegionError("r0 must lie strictly inside the physical region")

    # Components first, points last: r (3, 1, N), e (3, 3, N) for the three axes of the frame.
    r = np.ascontiguousarray(points.T)[:, None]
    e = np.ascontiguousarray(local_axes(variances.frame, points).T)
    norm = np.sqrt(_dot(r, r))
    w, grad_w, loc, j_e, kelvin = image_records(build_green(g), r, e)
    u, dist = _distances(points, r, norm, loc)                     # (3, K, 1, N), (K, 1, N)

    # The image terms times |u|^3, with u-hat = u/|u| so that no product
    # overflows before the energy does.
    e = e[:, None]
    inv = 1.0 / dist
    u_e = _dot(u, e) * inv                                         # (K, 3, N)
    first = _dot(grad_w, e) * u_e * dist
    second = w * (3.0 * u_e * (_dot(u, j_e) * inv) - _dot(e, j_e))
    # with the 1/2 of 1/(2 eps0), exact: no kernel overflows before its unit-variance energy
    inv3 = 0.5 * inv * inv * inv
    cond = np.where(kelvin[:, None, None], 1.0 + norm * inv, 1.0)
    # the 1/(4 pi) of G_H, via 4*pi*eps0; the 8*eps, a power of two, before the contraction,
    # so that err overflows only where value does; err is inf wherever value is
    scale = 1.0 / units.four_pi_epsilon0
    # an axis may overflow to inf here, where its variance is 0 and contract drops it;
    # the caller's finite check names an energy that overflowed
    with np.errstate(over="ignore"):
        kernel = scale * -np.add.reduce((first + second) * inv3)   # (3, N)
        # below the normal range, rounding errors are absolute: up to eps/2 * _TINY
        size = np.maximum((np.abs(first) + np.abs(second)) * np.maximum(inv3, _TINY), _TINY)
        bound = 8.0 * _EPS * (scale * np.add.reduce(size * cond))
    value = variances.contract(kernel)
    err = np.maximum(variances.contract(bound), 8.0 * _EPS * _TINY)
    err[~np.isfinite(value)] = np.inf
    if isinstance(r0, Position):
        return EnergyResult(float(value[0]), float(err[0]), Method.NUMERIC_EZ, units.mode)
    return EnergyResult(value, err, Method.NUMERIC_EZ, units.mode)
