import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vdwsurf.errors import DegenerateSourceError
from vdwsurf.geometry import GeometryConfig, GeometryKind, Position, as_points, physical_region
from vdwsurf._errata import bosshat_radicals, g_h_bosshat_cylindrical
from vdwsurf.images import (
    bc_residual,
    build_green,
    g_h,
    image_records,
    surface_deviation,
    surface_sample,
)

FOUR_PI = 4.0 * math.pi


def plane_points():
    return st.builds(
        Position,
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(0.05, 3),
    )


def sphere_points(radius=1.0):
    def make(ct, phi, r):
        s = math.sqrt(1.0 - ct * ct)
        return Position(r * s * math.cos(phi), r * s * math.sin(phi), r * ct)

    return st.builds(
        make,
        st.floats(-1.0, 1.0),
        st.floats(-math.pi, math.pi),
        st.floats(radius * 1.1, radius * 4.0),
    )


def bosshat_points(radius=1.0):
    return plane_points().filter(lambda p: p.norm > radius * 1.05)


def test_plane_image_value():
    green = build_green(GeometryConfig.plane())
    got = g_h(green, Position(0, 0, 1), Position(0, 0, 2))
    assert got == pytest.approx(-1.0 / (12.0 * math.pi), rel=1e-14)


def test_grounded_sphere_self_value():
    green = build_green(GeometryConfig.grounded_sphere(1.0))
    got = g_h(green, Position(0, 0, 2), Position(0, 0, 2))
    # image at 1/4 with weight -1/2: -(1/2)/(4 pi (2 - 1/4))
    assert got == pytest.approx(-1.0 / (12.0 * math.pi), rel=1e-14)


def test_bosshat_three_image_value():
    green = build_green(GeometryConfig.boss_hat(1.0))
    got = g_h(green, Position(0, 0, 3), Position(0, 0, 2))
    want = (-1.0 / 5.0 - 0.5 / 2.5 + 0.5 / 3.5) / FOUR_PI
    assert got == pytest.approx(want, rel=1e-14)


def test_isolated_adds_monopole_compensation():
    gg = build_green(GeometryConfig.grounded_sphere(1.0))
    gi = build_green(GeometryConfig.isolated_sphere(1.0))
    r, rp = Position(0.3, -0.4, 2.0), Position(-1.0, 0.2, 1.7)
    extra = gi.geometry.radius / (FOUR_PI * r.norm * rp.norm)
    assert g_h(gi, r, rp) - g_h(gg, r, rp) == pytest.approx(extra, rel=1e-13)


GROUNDED_CASES = [
    (GeometryConfig.plane(), plane_points()),
    (GeometryConfig.grounded_sphere(1.0), sphere_points()),
    (GeometryConfig.isolated_sphere(1.0), sphere_points()),
    (GeometryConfig.boss_hat(1.0), bosshat_points()),
]


@pytest.mark.parametrize(
    "config,points", GROUNDED_CASES, ids=["plane", "gsphere", "isphere", "bosshat"]
)
def test_symmetry_property(config, points):
    green = build_green(config)
    isolated = config.kind is GeometryKind.ISOLATED_SPHERE
    kelvin = build_green(GeometryConfig.grounded_sphere(config.radius)) if isolated else None

    def scale(r, rp, value):
        """The size that rounding in G_H is relative to. For the isolated
        sphere it is the sum of the magnitudes of the Kelvin term and the
        neutrality term R/(4 pi |r||r'|), which cancel where G_H is small."""
        if not isolated:
            return abs(value)
        return abs(g_h(kelvin, r, rp)) + config.radius / (FOUR_PI * r.norm * rp.norm)

    @given(r=points, rp=points)
    @settings(max_examples=200, deadline=None)
    def check(r, rp):
        a = g_h(green, r, rp)
        b = g_h(green, rp, r)
        assert abs(a - b) <= 1e-12 * scale(r, rp, a)

    if isolated:
        # G_H = 1.53e-6 from terms of -7.858e-3 and +7.860e-3: the
        # asymmetry is 1.1e-16 of the terms but 1.13e-12 of G_H
        check = example(
            r=Position(1.4125376324999652, 0.0, 3.065185546875),
            rp=Position(2.7810744326608736, 0.0, -1.125),
        )(check)
    check()


@given(r=bosshat_points(), rp=bosshat_points())
@settings(max_examples=200, deadline=None)
def test_bosshat_dual_evaluation_paths_agree(r, rp):
    radius = 1.0
    green = build_green(GeometryConfig.boss_hat(radius))
    a = g_h(green, r, rp)
    b = g_h_bosshat_cylindrical(radius, r, rp)
    assert a == pytest.approx(b, rel=1e-12)


def test_bosshat_radicals_are_image_distances():
    radius = 1.0
    r, rp = Position(0.6, 0.2, 1.4), Position(-0.3, 0.8, 0.9)
    xi, xi_minus, xi_plus = bosshat_radicals(radius, r, rp)
    # xi is the distance to the plane mirror of the source
    assert xi == pytest.approx(
        math.dist((r.x, r.y, r.z), (rp.x, rp.y, -rp.z)), rel=1e-13
    )
    # xi -/+ carry a |r'|^2 normalization of the sphere-image distances
    sp2 = rp.norm**2
    scale = radius**2 / sp2
    sphere_img = (rp.x * scale, rp.y * scale, rp.z * scale)
    mirror_img = (rp.x * scale, rp.y * scale, -rp.z * scale)
    assert xi_minus == pytest.approx(sp2 * math.dist((r.x, r.y, r.z), sphere_img), rel=1e-12)
    assert xi_plus == pytest.approx(sp2 * math.dist((r.x, r.y, r.z), mirror_img), rel=1e-12)


@given(rp=plane_points())
@settings(max_examples=100, deadline=None)
def test_bosshat_reduces_to_plane_as_radius_vanishes(rp):
    r = Position(0.4, -0.2, 0.9)
    assume(math.dist((r.x, r.y, r.z), (rp.x, rp.y, rp.z)) > 0.05)
    tiny = 1e-7 * min(r.norm, rp.norm)
    a = g_h(build_green(GeometryConfig.boss_hat(tiny)), r, rp)
    b = g_h(build_green(GeometryConfig.plane()), r, rp)
    assert a == pytest.approx(b, rel=1e-5)


def test_degenerate_source_raises():
    green = build_green(GeometryConfig.grounded_sphere(1.0))
    # image of (0,0,2) sits at (0,0,1/2)
    with pytest.raises(DegenerateSourceError):
        g_h(green, Position(0, 0, 0.5), Position(0, 0, 2))


@pytest.mark.parametrize(
    "config,sources",
    [
        (GeometryConfig.plane(), [Position(0.3, -0.2, 0.8), Position(1.5, 0.5, 0.3)]),
        (
            GeometryConfig.grounded_sphere(1.0),
            [Position(0, 0, 1.8), Position(0.9, -0.8, 1.2)],
        ),
        (
            GeometryConfig.boss_hat(1.0),
            [Position(0.5, 0.5, 1.2), Position(1.8, 0.0, 0.2)],
        ),
    ],
    ids=["plane", "gsphere", "bosshat"],
)
def test_grounded_bc_vanishes_on_sampled_surface(config, sources):
    green = build_green(config)
    surface = surface_sample(config, 64, rng_seed=7)
    for rp in sources:
        assert np.all(np.abs(bc_residual(green, surface, as_points(rp))) < 1e-11)


def test_bc_residual_rejects_off_surface_point():
    config = GeometryConfig.grounded_sphere(1.0)
    green = build_green(config)
    with pytest.raises(ValueError):
        bc_residual(green, Position(0, 0, 1.5), Position(0, 0, 2.0))


def test_isolated_bc_gradient_condition():
    config = GeometryConfig.isolated_sphere(1.0)
    green = build_green(config)
    surface = surface_sample(config, 32, rng_seed=3)
    rp = as_points(Position(0.4, -0.9, 1.9))
    assert np.all(np.abs(bc_residual(green, surface, rp)) < 1e-9)


@pytest.mark.parametrize(
    "config",
    [
        GeometryConfig.plane(),
        GeometryConfig.grounded_sphere(2.0),
        GeometryConfig.isolated_sphere(0.5),
        GeometryConfig.boss_hat(1.5),
    ],
    ids=["plane", "gsphere", "isphere", "bosshat"],
)
def test_surface_sample_membership_and_determinism(config):
    pts = surface_sample(config, 200, rng_seed=123)
    assert pts.shape == (200, 3) and pts.dtype == np.float64
    scale = max(config.radius, 1.0)
    assert np.all(surface_deviation(config, pts) <= 1e-12 * scale)
    again = surface_sample(config, 200, rng_seed=123)
    assert pts.tobytes() == again.tobytes()
    different = surface_sample(config, 200, rng_seed=124)
    assert pts.tobytes() != different.tobytes()


def test_bosshat_sample_covers_boss_and_brim():
    config = GeometryConfig.boss_hat(1.0)
    pts = [Position(*p) for p in surface_sample(config, 400, rng_seed=5, extent=4.0).tolist()]
    on_boss = [p for p in pts if p.z > 1e-9]
    on_brim = [p for p in pts if p.z <= 1e-9]
    assert on_boss and on_brim
    for p in on_boss:
        assert p.norm == pytest.approx(1.0, abs=1e-12)
    for p in on_brim:
        assert p.rho > 1.0


# Reference for the batched kernel: G_H as it was evaluated before image
# systems became records, one (r, r') pair at a time through per-image
# weight and location closures.  Test-only code.
def _reference_images(config):
    radius = config.radius

    def mirror(rp):
        return Position(rp.x, rp.y, -rp.z)

    def kelvin_location(rp):
        f = radius * radius / (rp.x * rp.x + rp.y * rp.y + rp.z * rp.z)
        return Position(f * rp.x, f * rp.y, f * rp.z)

    def kelvin_weight(rp):
        return -radius / rp.norm

    plane = (lambda rp: -1.0, mirror)
    sphere = (kelvin_weight, kelvin_location)
    if config.kind is GeometryKind.PLANE:
        return (plane,)
    if config.kind is not GeometryKind.BOSS_HAT:
        return (sphere,)
    mirrored = (lambda rp: -kelvin_weight(rp), lambda rp: kelvin_location(mirror(rp)))
    return (sphere, mirrored, plane)


def _reference_g_h(config, r, rp):
    total = 0.0
    for weight, location in _reference_images(config):
        loc = location(rp)
        dx = r.x - loc.x
        dy = r.y - loc.y
        dz = r.z - loc.z
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dist <= 8.0 * sys.float_info.epsilon * max(r.norm, loc.norm):
            raise DegenerateSourceError("field point coincides with an image location")
        total += weight(rp) / dist
    total /= FOUR_PI
    if config.kind is GeometryKind.ISOLATED_SPHERE:
        total += config.radius / (FOUR_PI * r.norm * rp.norm)
    return total


def _region_points(config, rng, n):
    """n points of the physical region, a tenth of them within 1e-6 R
    of the surface (and, for the boss hat, of its rim)."""
    radius = config.radius or 1.0
    points = []
    while len(points) < n:
        near = len(points) % 10 == 0
        p = rng.uniform(-3.0, 3.0, size=3) * radius
        if config.kind in (GeometryKind.PLANE, GeometryKind.BOSS_HAT):
            p[2] = abs(p[2]) if not near else radius * rng.uniform(1e-7, 1e-6)
        if config.kind is not GeometryKind.PLANE:
            norm = np.linalg.norm(p)
            if near:
                p = p / norm * radius * (1.0 + rng.uniform(1e-7, 1e-6))
                p[2] = abs(p[2]) if config.kind is GeometryKind.BOSS_HAT else p[2]
            elif norm <= 1.05 * radius:
                continue
        if physical_region(config, Position(*p.tolist())):
            points.append(p)
    return np.array(points)


_CONFIGS = [
    GeometryConfig.plane(),
    GeometryConfig.grounded_sphere(1.3),
    GeometryConfig.isolated_sphere(0.7),
    GeometryConfig.boss_hat(1.0),
]
_CONFIG_IDS = ["plane", "gsphere", "isphere", "bosshat"]


def _assert_reference_bits(config, got, left, right):
    """got has the broadcast shape of the (..., 3) point arrays left and
    right, and each element the bits of _reference_g_h at its pair."""
    left, right = np.broadcast_arrays(left, right)
    want = [
        _reference_g_h(config, Position(*r), Position(*rp))
        for r, rp in zip(left.reshape(-1, 3).tolist(), right.reshape(-1, 3).tolist())
    ]
    assert got.shape == left.shape[:-1]
    assert got.ravel().tolist() == want


@pytest.mark.parametrize("config", _CONFIGS, ids=_CONFIG_IDS)
def test_batched_g_h_equals_per_image_loop(config):
    rng = np.random.default_rng(20120411)
    left = _region_points(config, rng, 500)
    right = _region_points(config, rng, 500)
    green = build_green(config)
    batch = g_h(green, left, right)
    want = [
        _reference_g_h(config, Position(*r), Position(*rp))
        for r, rp in zip(left.tolist(), right.tolist())
    ]
    assert batch.shape == (500,)
    assert batch.tolist() == want
    # a pair of Positions gives a float with the same bits
    first = g_h(green, Position(*left[0].tolist()), Position(*right[0].tolist()))
    assert type(first) is float and first == want[0]

    # (2, 1, M, 3) against (1, 2, M, 3)
    m = 30
    left, right = left[:2 * m].reshape(2, 1, m, 3), right[:2 * m].reshape(1, 2, m, 3)
    _assert_reference_bits(config, g_h(green, left, right), left, right)
    # a Position against an (N, 3) array, both ways
    points = right.reshape(-1, 3)
    p = Position(*left[0, 0, 0].tolist())
    _assert_reference_bits(config, g_h(green, p, points), as_points(p), points)
    _assert_reference_bits(config, g_h(green, points, p), points, as_points(p))
    # components-last views of components-first memory, as the oracle passes them
    memory = np.ascontiguousarray(np.concatenate([left[:, 0], right[0]]).transpose(2, 0, 1))
    pair = memory.transpose(1, 2, 0)   # (4, m, 3), not contiguous
    _assert_reference_bits(config, g_h(green, pair[:, None], pair[None]), pair[:, None], pair[None])


def test_batched_degenerate_source_names_first_point():
    green = build_green(GeometryConfig.grounded_sphere(1.0))
    # image of (0,0,2) sits at (0,0,1/2); pairs 1 and 2 both hit an image
    r = np.array([(0.0, 0.0, 3.0), (0.0, 0.0, 0.5), (0.0, 0.25, 0.0)])
    rp = np.array([(0.0, 0.0, 2.0), (0.0, 0.0, 2.0), (0.0, 4.0, 0.0)])
    with pytest.raises(DegenerateSourceError, match=r"\(0\.0, 0\.0, 0\.5\)"):
        g_h(green, r, rp)
    assert np.all(np.isfinite(g_h(green, r[::2], rp[::2][::-1])))


@pytest.mark.parametrize("config", _CONFIGS, ids=_CONFIG_IDS)
def test_coincidence_in_a_multi_axis_batch_is_named_before_any_division(config):
    green = build_green(config)

    def image(rp):   # the Kelvin image, on the plane the mirror image
        if config.kind is GeometryKind.PLANE:
            return (rp[0], rp[1], -rp[2])
        f = config.radius * config.radius / (rp[0] * rp[0] + rp[1] * rp[1] + rp[2] * rp[2])
        return tuple(f * c for c in rp)

    sources = [(0.5, 2.0, 3.0), (0.0, 4.0, 0.0), (0.0, 0.0, 2.0)]   # broadcast over axis 0
    fields = np.array([[(1.0, 1.5, 2.0), (2.5, -1.0, 1.0), image(sources[2])],
                       [image(sources[0]), (0.0, 1.0, 3.0), image(sources[1])]])
    # (0, 2) is first in C order; (1, 0) would come first in Fortran order
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        with pytest.raises(DegenerateSourceError) as excinfo:
            g_h(green, fields, np.array(sources))
    fx, fy, fz = image(sources[2])
    assert f"field point ({fx}, {fy}, {fz}) coincides" in str(excinfo.value)


@pytest.mark.parametrize(
    "config",
    [GeometryConfig.grounded_sphere(1.0), GeometryConfig.isolated_sphere(1.0)],
    ids=["gsphere", "isphere"],
)
def test_bc_residual_arrays_equal_per_pair_calls(config):
    green = build_green(config)
    surface = surface_sample(config, 40, rng_seed=11)
    sources = [Position(0.4, -0.9, 1.9), Position(-2.0, 0.1, 0.3)] * 20
    batch = bc_residual(green, surface, np.array([(p.x, p.y, p.z) for p in sources]))
    assert batch.tolist() == [
        bc_residual(green, Position(*rs), rp) for rs, rp in zip(surface.tolist(), sources)
    ]


@pytest.mark.parametrize(
    "config",
    [GeometryConfig.grounded_sphere(1.0), GeometryConfig.isolated_sphere(1.0)],
    ids=["gsphere", "isphere"],
)
@pytest.mark.parametrize(
    "surface,source",
    [
        # the source on the surface point, which is its own Kelvin image
        ((0.6, 0.0, 0.8), (0.6, 0.0, 0.8)),
        # an ulp outside it: the image lies an ulp inside, within the rule
        ((0.6, 0.0, 0.8), (0.6, 0.0, 0.8000000000000002)),
        # a point 1e-10 off the sphere, within the surface tolerance: the
        # source coincides with it, its image lies 2e-10 away
        ((0.6 * (1 + 1e-10), 0.0, 0.8 * (1 + 1e-10)),) * 2,
    ],
    ids=["on-image", "ulp-off-image", "on-source-only"],
)
def test_bc_residual_names_a_surface_point_on_the_source_or_an_image(config, surface, source):
    green = build_green(config)
    named = re.escape("field point ({}, {}, {})".format(*surface))
    with np.errstate(all="raise"):
        with pytest.raises(DegenerateSourceError, match=named):
            bc_residual(green, Position(*surface), Position(*source))
        # the first of two such points of a batch
        sources = np.array([(0.4, -0.9, 1.9), source, (0.0, 1.0, 0.0)])
        surfaces = np.array([(0.0, 0.0, 1.0), surface, (0.0, 1.0, 0.0)])
        with pytest.raises(DegenerateSourceError, match=named):
            bc_residual(green, surfaces, sources)


def _surface_sample_reference(g, n, rng_seed, extent=10.0):
    """surface_sample as it was, a list of Positions built point by
    point, kept as the reference of the array sampler."""
    rng = np.random.default_rng(rng_seed)

    def disk(count, r_inner, r_outer):
        u = rng.random(count)
        ang = rng.random(count) * (2.0 * math.pi)
        rad = np.sqrt(r_inner**2 + u * (r_outer**2 - r_inner**2))
        return [
            Position(rad[i] * math.cos(ang[i]), rad[i] * math.sin(ang[i]), 0.0)
            for i in range(count)
        ]

    def sphere(count, hemisphere):
        v = rng.normal(size=(count, 3))
        norms = np.linalg.norm(v, axis=1)
        norms[norms == 0.0] = 1.0
        v = v / norms[:, None] * g.radius
        if hemisphere:
            v[:, 2] = np.abs(v[:, 2])
        return [Position(float(a), float(b), float(c)) for a, b, c in v]

    if g.kind is GeometryKind.PLANE:
        return disk(n, 0.0, extent)
    if g.kind in (GeometryKind.GROUNDED_SPHERE, GeometryKind.ISOLATED_SPHERE):
        return sphere(n, hemisphere=False)
    area_hemisphere = 2.0 * math.pi * g.radius**2
    outer = max(extent, g.radius)
    area_annulus = math.pi * (outer**2 - g.radius**2)
    n_hemisphere = int(round(n * area_hemisphere / (area_hemisphere + area_annulus)))
    n_hemisphere = min(max(n_hemisphere, 1), n)
    points = sphere(n_hemisphere, hemisphere=True)
    if n - n_hemisphere > 0:
        points.extend(disk(n - n_hemisphere, g.radius, outer))
    return points


@pytest.mark.parametrize(
    "config",
    [GeometryConfig.plane()]
    + [
        make(radius)
        for make in (GeometryConfig.grounded_sphere, GeometryConfig.isolated_sphere,
                     GeometryConfig.boss_hat)
        for radius in (0.5, 1.0, 1.9)
    ],
    ids=lambda g: f"{g.kind.value}-{g.radius}",
)
def test_surface_sample_equals_the_position_loop_bit_for_bit(config):
    for seed in range(50):
        for n in (1, 2, 7, 50, 200, 1000, 1001):
            want = np.array([(p.x, p.y, p.z) for p in _surface_sample_reference(config, n, seed)])
            assert surface_sample(config, n, seed).tobytes() == want.tobytes()


def _points_outside(config, rng, n):
    """n points at 1.2 to 3 R from the centre (above the plane z = 0.2
    to 2 for the plane), above z = 0 for the boss hat."""
    if config.kind is GeometryKind.PLANE:
        return np.column_stack([rng.uniform(-2.0, 2.0, (n, 2)), rng.uniform(0.2, 2.0, n)])
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    if config.kind is GeometryKind.BOSS_HAT:
        u[:, 2] = np.abs(u[:, 2])
    return u * (config.radius * rng.uniform(1.2, 3.0, n))[:, None]


@pytest.mark.parametrize(
    "config,kelvin",
    [
        (GeometryConfig.plane(), [False]),
        (GeometryConfig.grounded_sphere(1.3), [True]),
        (GeometryConfig.isolated_sphere(0.7), [True, False]),
        (GeometryConfig.boss_hat(1.0), [True, True, False]),
    ],
    ids=["plane", "gsphere", "isphere", "bosshat"],
)
def test_image_records_sum_to_g_h_and_carry_their_derivatives(config, kelvin):
    rng = np.random.default_rng(17)
    green = build_green(config)
    fields = _points_outside(config, rng, 50)
    sources = _points_outside(config, rng, 50).T                  # components first
    e = rng.normal(size=(3, 50))
    e /= np.linalg.norm(e, axis=0)
    w, grad_w, loc, j_e, flags = image_records(green, sources, e)
    assert flags.tolist() == kelvin
    u = fields.T[:, None] - loc
    total = np.sum(w / np.sqrt(np.sum(u * u, axis=0)), axis=0) / FOUR_PI
    np.testing.assert_allclose(total, g_h(green, fields, sources.T), rtol=1e-13)
    # the derivatives along e, against central differences
    h = 1e-6
    w_plus, _, loc_plus, _, _ = image_records(green, sources + h * e, e)
    w_minus, _, loc_minus, _, _ = image_records(green, sources - h * e, e)
    np.testing.assert_allclose((loc_plus - loc_minus) / (2.0 * h), j_e, rtol=1e-7, atol=1e-8)
    np.testing.assert_allclose(
        (w_plus - w_minus) / (2.0 * h), np.sum(grad_w * e[:, None], axis=0), rtol=1e-7, atol=1e-8
    )
