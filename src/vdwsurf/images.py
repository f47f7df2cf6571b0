"""Image-charge systems and the induced part of the electrostatic
Green function.

For each conductor the full Green function splits as

    G(r, r') = 1/(4*pi*|r - r'|) + G_H(r, r')

where the induced part G_H is harmonic in the vacuum region and
enforces the boundary condition on the surface.  For every supported
geometry G_H is a finite sum of image-charge Coulomb terms

    G_H(r, r') = (1/4*pi) * sum_k w_k(r') / |r - loc_k(r')|  (+ extra)

with weights w_k and locations loc_k depending on the source point r'.
The isolated sphere carries an additional separable term
R/(4*pi*|r|*|r'|) that restores charge neutrality on the sphere.

An image system is plain data: a tuple of Image records, each a sign
and one of three kinds, with the radius R taken from the geometry.

  mirror           weight sign*1,        at P r' = (x', y', -z'),   J = P
  kelvin           weight sign*R/|r'|,   at f r', f = R^2/|r'|^2,  J = f (I - 2 r'r'^T/|r'|^2)
  mirrored kelvin  weight sign*R/|r'|,   at P f r',                J = P times the kelvin J

with J the Jacobian of the location in r'.

  plane            one mirror image, sign -1
  grounded sphere  one kelvin image, sign -1
  isolated sphere  the grounded image; the neutrality term follows from
                   the geometry kind
  boss hat         kelvin (-1), mirrored kelvin (+1) and mirror (-1):
                   a hemisphere of radius R capping an infinite plane

g_h evaluates the sum with operators and numpy ufuncs only, for one
pair of Positions or for arrays of point pairs of shape (..., 3), so
one call serves a whole batch.  image_records gives the same images as
arrays together with their first derivatives in the source point, from
which the numeric route and bc_residual differentiate G_H exactly.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSourceError
from .geometry import GeometryConfig, GeometryKind, Position, as_points, point_norms

FOUR_PI = 4.0 * math.pi
_EPS = sys.float_info.epsilon

# Fraction of the source-to-prime distance below which two points are
# treated as coincident with an image location.
_DEGENERATE_RTOL = 8.0 * _EPS


class ImageKind(enum.Enum):
    MIRROR = "mirror"
    KELVIN = "kelvin"
    MIRRORED_KELVIN = "mirrored_kelvin"


@dataclass(frozen=True)
class Image:
    """One image charge: the sign of its weight and its kind."""

    sign: float
    kind: ImageKind


@dataclass(frozen=True)
class HomogeneousGreen:
    """Induced Green function of a geometry as its image records."""

    images: tuple[Image, ...]
    geometry: GeometryConfig


_MIRROR = Image(-1.0, ImageKind.MIRROR)
_KELVIN = Image(-1.0, ImageKind.KELVIN)

_IMAGE_SYSTEMS = {
    GeometryKind.PLANE: (_MIRROR,),
    GeometryKind.GROUNDED_SPHERE: (_KELVIN,),
    GeometryKind.ISOLATED_SPHERE: (_KELVIN,),
    GeometryKind.BOSS_HAT: (_KELVIN, Image(1.0, ImageKind.MIRRORED_KELVIN), _MIRROR),
}


def build_green(g: GeometryConfig) -> HomogeneousGreen:
    """Construct the image system for a geometry."""
    return HomogeneousGreen(_IMAGE_SYSTEMS[g.kind], g)


def _reject_coincident(r: np.ndarray, degenerate) -> None:
    """Raise DegenerateSourceError naming the first field point of r,
    shape (..., 3), in C order over the shape of degenerate, where a
    field point is within _DEGENERATE_RTOL * max(|r|, |loc|) of an
    image location loc."""
    if np.any(degenerate):
        first = np.argmax(np.ravel(degenerate))
        fx, fy, fz = np.broadcast_to(r, np.shape(degenerate) + (3,)).reshape(-1, 3)[first].tolist()
        raise DegenerateSourceError(f"field point ({fx}, {fy}, {fz}) coincides with an image location")


def g_h(green: HomogeneousGreen, r, r_prime):
    """Induced Green function G_H(r, r').

    r and r_prime are Positions, giving a float, or arrays of points of
    shape (..., 3) that broadcast together, giving an array.

    Membership of r and r' in the physical region is the caller's
    responsibility (boundary-condition checks evaluate r on the surface
    on purpose); only coincidence with an image location is rejected,
    naming the first such field point in C order.
    """
    scalar = isinstance(r, Position) and isinstance(r_prime, Position)
    r = as_points(r)
    rp = as_points(r_prime)
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    xp, yp, zp = rp[..., 0], rp[..., 1], rp[..., 2]
    radius = green.geometry.radius
    r_norm = point_norms(r)
    if any(img.kind is not ImageKind.MIRROR for img in green.images):
        rp_norm = point_norms(rp)
        f = radius * radius / (xp * xp + yp * yp + zp * zp)   # Kelvin inversion
        kelvin = (f * xp, f * yp, f * zp)
        kelvin_weight = radius / rp_norm

    terms = []
    degenerate = False
    for img in green.images:
        if img.kind is ImageKind.MIRROR:
            loc = (xp, yp, -zp)
            weight = img.sign
        else:
            if img.kind is ImageKind.KELVIN:
                loc = kelvin
            else:
                loc = (kelvin[0], kelvin[1], -kelvin[2])
            weight = img.sign * kelvin_weight
        dx = x - loc[0]
        dy = y - loc[1]
        dz = z - loc[2]
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        loc_norm = np.sqrt(loc[0] * loc[0] + loc[1] * loc[1] + loc[2] * loc[2])
        degenerate = degenerate | (dist <= _DEGENERATE_RTOL * np.maximum(r_norm, loc_norm))
        terms.append((weight, dist))
    _reject_coincident(r, degenerate)

    total = 0.0
    for weight, dist in terms:
        total = total + weight / dist
    total = total / FOUR_PI
    if green.geometry.kind is GeometryKind.ISOLATED_SPHERE:
        total = total + radius / (FOUR_PI * r_norm * rp_norm)
    return float(total) if scalar else total


def surface_deviation(g: GeometryConfig, p):
    """Distance from p to the conductor surface itself (not the region
    boundary rule): used to validate points claimed to lie on S.  A
    float for a Position, an array for an array of points."""
    points = as_points(p)
    z = points[..., 2]
    norm = point_norms(points)
    if g.kind is GeometryKind.PLANE:
        deviation = np.abs(z)
    elif g.kind in (GeometryKind.GROUNDED_SPHERE, GeometryKind.ISOLATED_SPHERE):
        deviation = np.abs(norm - g.radius)
    else:
        # Boss hat surface: hemisphere {|p|=R, z>=0} union annulus {z=0, rho>=R}.
        rho = np.hypot(points[..., 0], points[..., 1])
        rim = np.hypot(rho - g.radius, z)
        d_hemisphere = np.where(z >= 0.0, np.abs(norm - g.radius), rim)
        d_annulus = np.where(rho >= g.radius, np.abs(z), rim)
        deviation = np.minimum(d_hemisphere, d_annulus)
    return float(deviation) if isinstance(p, Position) else deviation


_SURFACE_MEMBERSHIP_RTOL = 1e-9


def image_records(green: HomogeneousGreen, rp: np.ndarray, e: np.ndarray) -> tuple:
    """The images of G_H at source points rp, with their derivatives in rp
    along directions e: (w, grad_w, loc, j_e, kelvin), so that
    G_H(r, r') = (1/4*pi) * sum_k w[k] / |r - loc[:, k]|.

    Vectors hold their components first, so that every operation runs
    along the long point axes: rp and e have shape (3, ...) and
    broadcast together.  The images stack along the axis after the
    components: w[k] has the shape of rp[0], grad_w[:, k] (the gradient
    of w) and loc[:, k] that of rp, and j_e[:, k] = J e the broadcast
    shape.  kelvin[k] is True where loc is an inversion, whose distance
    to r cancels near the sphere.  The isolated sphere's neutrality term
    comes last: a charge R/|r'| at the centre, which does not move.
    """
    neutral = green.geometry.kind is GeometryKind.ISOLATED_SPHERE
    count = len(green.images) + neutral
    w = np.empty((count,) + rp.shape[1:])
    grad_w = np.zeros((3, count) + rp.shape[1:])
    loc = np.zeros((3, count) + rp.shape[1:])
    j_e = np.zeros((3, count) + np.broadcast(rp, e).shape[1:])
    if green.geometry.kind is not GeometryKind.PLANE:   # Kelvin images
        radius = green.geometry.radius
        n2 = rp[0] * rp[0] + rp[1] * rp[1] + rp[2] * rp[2]
        kelvin_w = radius / np.sqrt(n2)
        kelvin_grad = -(kelvin_w / n2) * rp
        f = radius * radius / n2
        kelvin_loc = f * rp
        kelvin_j_e = f * (e - 2.0 * (rp[0] * e[0] + rp[1] * e[1] + rp[2] * e[2]) / n2 * rp)
    for k, img in enumerate(green.images):
        if img.kind is ImageKind.MIRROR:
            w[k], loc[:, k], j_e[:, k] = img.sign, rp, e
        else:
            w[k], grad_w[:, k] = img.sign * kelvin_w, img.sign * kelvin_grad
            loc[:, k], j_e[:, k] = kelvin_loc, kelvin_j_e
        if img.kind is not ImageKind.KELVIN:   # reflected in z = 0
            loc[2, k] = -loc[2, k]
            j_e[2, k] = -j_e[2, k]
    if neutral:
        w[-1], grad_w[:, -1] = kelvin_w, kelvin_grad
    kelvin = np.array([img.kind is not ImageKind.MIRROR for img in green.images] + [False] * neutral)
    return w, grad_w, loc, j_e, kelvin


def bc_residual(green: HomogeneousGreen, g: GeometryConfig, r_surface, r_prime):
    """Boundary-condition residual at surface points.

    r_surface and r_prime are Positions, giving a float, or arrays of
    points of shape (..., 3) that broadcast together, giving an array.

    Grounded geometries: the full Green function
    1/(4*pi*|r_s - r'|) + G_H(r_s, r') must vanish on the surface; the
    returned value is that sum.

    Isolated sphere: the surface holds the full Green function at the
    constant 1/(4*pi*|r'|), so its gradient with respect to the source
    point equals -r'/(4*pi*|r'|^3).  The residual is the max-norm of
    (grad' G + r'/(4*pi*|r'|^3)), with the gradient taken exactly from
    the image records: grad'[w/|u|] = grad_w/|u| + w J^T u/|u|^3 with
    u = r_s - loc, plus (r_s - r')/|r_s - r'|^3 from the direct term.
    """
    scalar = isinstance(r_surface, Position) and isinstance(r_prime, Position)
    rs = as_points(r_surface)
    rp = as_points(r_prime)
    scale = g.radius if g.kind is not GeometryKind.PLANE else np.maximum(1.0, point_norms(rs))
    if np.any(surface_deviation(g, rs) > _SURFACE_MEMBERSHIP_RTOL * scale):
        raise ValueError("r_surface does not lie on the conductor surface")

    if g.kind is not GeometryKind.ISOLATED_SPHERE:
        residual = 1.0 / (FOUR_PI * point_norms(rs - rp)) + g_h(green, rs, rp)
        return float(residual) if scalar else residual

    # components first, as image_records takes them
    rs, rp = (np.moveaxis(a, -1, 0) for a in np.broadcast_arrays(rs, rp))
    d = rs - rp
    d2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    grad = d / (d2 * np.sqrt(d2))
    # the records along the axes e_j, so that component j of J^T u is u . (J e_j)
    axes = np.eye(3).reshape((3, 3) + (1,) * (rp.ndim - 1))
    w, grad_w, loc, j_e, _ = image_records(green, rp[:, None], axes)
    u = rs[:, None] - loc[:, :, 0]                                  # (3, K, ...)
    dist = np.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    j_t_u = j_e[0] * u[0, :, None] + j_e[1] * u[1, :, None] + j_e[2] * u[2, :, None]
    grad = grad + np.sum(grad_w[:, :, 0] / dist, axis=1)
    grad = grad + np.sum(w * j_t_u / (dist * dist * dist)[:, None], axis=0)
    n2 = rp[0] * rp[0] + rp[1] * rp[1] + rp[2] * rp[2]
    residual = np.max(np.abs(grad + rp / (n2 * np.sqrt(n2))), axis=0) / FOUR_PI
    return float(residual) if scalar else residual


def surface_sample(
    g: GeometryConfig, n: int, rng_seed: int, extent: float = 10.0
) -> np.ndarray:
    """n deterministic pseudo-random points on the conductor surface, as
    an (n, 3) array.

    Plane: uniform over a disk of the given radius (extent).  Spheres:
    uniform over the full sphere.  Boss hat: hemisphere plus the annulus
    z=0, R < rho <= extent, split proportional to area.  The unbounded
    supports are truncated at extent because boundary-condition
    residuals decay with distance.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(rng_seed)

    def disk(count: int, r_inner: float, r_outer: float) -> np.ndarray:
        u = rng.random(count)
        ang = (rng.random(count) * (2.0 * math.pi)).tolist()
        rad = np.sqrt(r_inner**2 + u * (r_outer**2 - r_inner**2))
        # math.cos and math.sin, the C library's; np.cos may round differently
        cos = np.fromiter(map(math.cos, ang), float, count)
        sin = np.fromiter(map(math.sin, ang), float, count)
        return np.column_stack([rad * cos, rad * sin, np.zeros(count)])

    def sphere(count: int, hemisphere: bool) -> np.ndarray:
        v = rng.normal(size=(count, 3))
        norms = np.linalg.norm(v, axis=1)
        norms[norms == 0.0] = 1.0   # measure-zero guard
        v = v / norms[:, None] * g.radius
        if hemisphere:
            v[:, 2] = np.abs(v[:, 2])
        return v

    if g.kind is GeometryKind.PLANE:
        return disk(n, 0.0, extent)
    if g.kind in (GeometryKind.GROUNDED_SPHERE, GeometryKind.ISOLATED_SPHERE):
        return sphere(n, hemisphere=False)

    area_hemisphere = 2.0 * math.pi * g.radius**2
    outer = max(extent, g.radius)
    area_annulus = math.pi * (outer**2 - g.radius**2)
    n_hemisphere = int(round(n * area_hemisphere / (area_hemisphere + area_annulus)))
    n_hemisphere = min(max(n_hemisphere, 1), n)
    return np.concatenate(
        [sphere(n_hemisphere, hemisphere=True), disk(n - n_hemisphere, g.radius, outer)]
    )
