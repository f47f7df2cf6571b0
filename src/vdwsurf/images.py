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

One table, _image_table, turns the records into numbers: the weights
(K, ...) and locations (3, K, ...) of all images, components first, so
that each vector step is one ufunc over a block.  It has three
consumers: g_h, for one pair of Positions or arrays of point pairs,
(..., 3), per call; image_records, which adds the first derivatives in
the source point; and through it the numeric route and bc_residual,
which differentiate G_H exactly.  One rule, in _distances, rejects a
field point on an image location for all of them, before any division.
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


def _dot(a, b):
    """a . b of vectors that hold their components first, (3, ...), with
    one number of axes, element by element, so that a batch gives each
    point the bits of its own call."""
    ab = a * b
    return ab[0] + ab[1] + ab[2]


def _components_first(*arrays: np.ndarray) -> list:
    """Views of point arrays, (..., 3), padded to one ndim, components first."""
    ndim = max(a.ndim for a in arrays)
    order = (ndim - 1,) + tuple(range(ndim - 1))
    return [a.reshape((1,) * (ndim - a.ndim) + a.shape).transpose(order) for a in arrays]


def _image_table(green: HomogeneousGreen, rp: np.ndarray) -> tuple:
    """Weights w (K, ...) and locations loc (3, K, ...) of the images at
    source points rp (3, ...), without the isolated sphere's neutrality
    term, and f = R^2/|r'|^2 of the Kelvin images (None if there are
    none): the one place where Image records become numbers."""
    images = green.images
    w = np.empty((len(images),) + rp.shape[1:])
    loc = np.empty((3, len(images)) + rp.shape[1:])
    f = None
    if green.geometry.kind is not GeometryKind.PLANE:
        radius = green.geometry.radius
        n2 = _dot(rp, rp)
        kelvin_w = radius / np.sqrt(n2)
        f = radius * radius / n2   # Kelvin inversion
        kelvin_loc = f * rp
    for k, img in enumerate(images):
        if img.kind is ImageKind.MIRROR:
            w[k], loc[:, k] = img.sign, rp
        else:
            w[k], loc[:, k] = img.sign * kelvin_w, kelvin_loc
        if img.kind is not ImageKind.KELVIN:   # reflected in z = 0
            loc[2, k] = -loc[2, k]
    return w, loc, f


def _distances(points: np.ndarray, r: np.ndarray, r_norm, loc: np.ndarray) -> tuple:
    """u = r - loc and |u| of field points r (3, ...) and locations loc
    (3, K, ...).  Raises DegenerateSourceError, before any division,
    naming the first of points (..., 3) in C order that lies within
    _DEGENERATE_RTOL * max(|r|, |loc|) of a location."""
    u = r[:, None] - loc
    dist = np.sqrt(_dot(u, u))
    degenerate = dist <= _DEGENERATE_RTOL * np.maximum(r_norm, np.sqrt(_dot(loc, loc)))
    if degenerate.any():
        degenerate = np.any(degenerate, axis=0)
        first = np.argmax(np.ravel(degenerate))
        fx, fy, fz = np.broadcast_to(points, degenerate.shape + (3,)).reshape(-1, 3)[first].tolist()
        raise DegenerateSourceError(f"field point ({fx}, {fy}, {fz}) coincides with an image location")
    return u, dist


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
    points = as_points(r)
    r, rp = _components_first(points, as_points(r_prime))
    w, loc, _ = _image_table(green, rp)
    r_norm = np.sqrt(_dot(r, r))
    _, dist = _distances(points, r, r_norm, loc)
    total = sum(w / dist) / FOUR_PI   # image by image, in the order of the records
    if green.geometry.kind is GeometryKind.ISOLATED_SPHERE:
        total = total + green.geometry.radius / (FOUR_PI * r_norm * np.sqrt(_dot(rp, rp)))
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
    w, loc, f = _image_table(green, rp)
    kelvin = [img.kind is not ImageKind.MIRROR for img in green.images]
    grad_w = np.zeros((3,) + w.shape)
    j_e = np.empty((3, len(kelvin)) + np.broadcast(rp, e).shape[1:])
    if f is not None:   # the inversion's Jacobian, J = f (I - 2 r'r'^T/|r'|^2)
        n2 = _dot(rp, rp)
        kelvin_j_e = f * (e - 2.0 * _dot(rp, e) / n2 * rp)
    for k, img in enumerate(green.images):
        if kelvin[k]:
            grad_w[:, k], j_e[:, k] = -(w[k] / n2) * rp, kelvin_j_e
        else:
            j_e[:, k] = e
        if img.kind is not ImageKind.KELVIN:   # reflected in z = 0
            j_e[2, k] = -j_e[2, k]
    if green.geometry.kind is GeometryKind.ISOLATED_SPHERE:   # the Kelvin charge, reversed
        w = np.concatenate([w, -w[:1]])
        grad_w = np.concatenate([grad_w, -grad_w[:, :1]], axis=1)
        loc, j_e = (np.concatenate([a, np.zeros_like(a[:, :1])], axis=1) for a in (loc, j_e))
        kelvin.append(False)
    return w, grad_w, loc, j_e, np.array(kelvin)


def bc_residual(green: HomogeneousGreen, r_surface, r_prime):
    """Boundary-condition residual at surface points of green.geometry.

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

    A surface point on the source or an image is rejected before any
    division, naming the first one.
    """
    g = green.geometry
    scalar = isinstance(r_surface, Position) and isinstance(r_prime, Position)
    points, source = as_points(r_surface), as_points(r_prime)
    scale = g.radius if g.kind is not GeometryKind.PLANE else np.maximum(1.0, point_norms(points))
    if np.any(surface_deviation(g, points) > _SURFACE_MEMBERSHIP_RTOL * scale):
        raise ValueError("r_surface does not lie on the conductor surface")
    rs, rp = _components_first(points, source)
    rs_norm = np.sqrt(_dot(rs, rs))
    d, d_norm = _distances(points, rs, rs_norm, rp[:, None])   # the source, checked as an image

    if g.kind is not GeometryKind.ISOLATED_SPHERE:
        residual = g_h(green, points, source) + 1.0 / (FOUR_PI * d_norm[0])
        return float(residual) if scalar else residual

    d = d[:, 0]
    grad = d / (_dot(d, d) * d_norm[0])
    # the records along the axes e_j, so that component j of J^T u is u . (J e_j)
    axes = np.eye(3).reshape((3, 3) + (1,) * (rp.ndim - 1))
    w, grad_w, loc, j_e, _ = image_records(green, rp[:, None], axes)
    u, dist = _distances(points, rs, rs_norm, loc[:, :, 0])          # (3, K, ...), (K, ...)
    grad = grad + np.sum(grad_w[:, :, 0] / dist, axis=1)
    grad = grad + np.sum(w * _dot(j_e, u[:, :, None]) / (dist * dist * dist)[:, None], axis=0)
    n2 = _dot(rp, rp)
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
