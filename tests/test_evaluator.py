import math
import sys
from fractions import Fraction

try:
    import mpmath
except ImportError:   # the referee tests skip
    mpmath = None
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vdwsurf.errors import DegenerateSourceError, RegionError
from vdwsurf.evaluator import energy_numeric
from vdwsurf.geometry import (
    DipoleVariances,
    GeometryConfig,
    GeometryKind,
    Position,
    VarianceFrame,
    local_axes,
    point_norms,
    surface_distance,
)
from vdwsurf.images import build_green, g_h
from vdwsurf.oracle import extrapolated_energy
from vdwsurf.closed import (
    energy_closed,
    u_bosshat_corrected,
    u_grounded_sphere,
    u_isolated_sphere,
    u_plane,
)

from referee import NEAR_GAPS, points_at_gaps, referee_energy, rim_points

ISO = DipoleVariances.isotropic(1.0)
ISO_CYL = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL)


GEOMETRIES = [
    GeometryConfig.plane(),
    GeometryConfig.grounded_sphere(1.3),
    GeometryConfig.isolated_sphere(0.7),
    GeometryConfig.boss_hat(1.0),
]
GEOMETRY_IDS = ["plane", "gsphere", "isphere", "bosshat"]

def _assert_covered_by_err(g, v, points, bulk=False):
    """|U - referee| <= err_estimate at every point, and in the bulk
    also <= 1e-13 |U|."""
    pytest.importorskip("mpmath")
    got = energy_numeric(g, v, points)
    assert np.all(np.isfinite(got.value)) and np.all(np.isfinite(got.err_estimate))
    for p, value, err in zip(points.tolist(), got.value.tolist(), got.err_estimate.tolist()):
        with mpmath.workdps(50):
            miss = abs(mpmath.mpf(value) - referee_energy(g, v, p))
            assert miss <= err, (p, value, err, miss)
            if bulk:
                assert miss <= 1e-13 * abs(value), (p, value, miss)


def _bulk_and_near_points(g, rng):
    """12 bulk points at gaps R*10^U(-2, 0.5), and two points at each
    gap 1e-2 ... 1e-12 R, plus as many beside the rim of the boss hat."""
    bulk = points_at_gaps(g, rng, 10.0 ** rng.uniform(-2.0, 0.5, 12))
    near = points_at_gaps(g, rng, np.repeat(NEAR_GAPS, 2))
    if g.kind is GeometryKind.BOSS_HAT:
        near = np.concatenate([near, rim_points(g.radius, rng, np.repeat(NEAR_GAPS, 2))])
    return bulk, near


@pytest.mark.parametrize("g", GEOMETRIES, ids=GEOMETRY_IDS)
def test_numeric_within_err_of_referee_on_random_points(g):
    rng = np.random.default_rng(20261018)
    bulk, near = _bulk_and_near_points(g, rng)
    for frame in VarianceFrame:
        for weights in ((0.5, 1.0, 2.0), (0.0, 0.0, 1.0), (1.0, 0.3, 0.0)):
            v = DipoleVariances(*weights, frame)
            _assert_covered_by_err(g, v, bulk, bulk=True)
            _assert_covered_by_err(g, v, near)


@pytest.mark.parametrize("frame", list(VarianceFrame), ids=["cartesian", "cylindrical"])
def test_numeric_within_err_of_referee_on_grid(region_grid, frame):
    g, variances, points = region_grid
    v = DipoleVariances(variances.m1, variances.m2, variances.m3, frame)
    _assert_covered_by_err(g, v, points)


def test_numeric_is_finite_and_covered_near_contact():
    # A plane point whose gap 1.2145e-4 is 1e-4 of its distance from the
    # origin, and a grounded-sphere gap of 1e-12: no finite-difference
    # step fits such gaps above rounding noise.
    plane = GeometryConfig.plane()
    _assert_covered_by_err(plane, ISO, np.array([(1.2144, 0.0, 1.2145e-4)]))
    got = energy_numeric(plane, ISO, Position(1.2144, 0.0, 1.2145e-4))
    assert got.value == pytest.approx(u_plane(ISO, 1.2145e-4).value, rel=1e-15)
    sphere = GeometryConfig.grounded_sphere(1.0)
    for v in (Z_ONLY, ISO):
        _assert_covered_by_err(sphere, v, np.array([(0.0, 0.0, 2.0), (0.0, 0.0, 1.0 + 1e-12)]))


@pytest.mark.parametrize("z0", [4e102, 5e102, 1e103])
def test_numeric_bound_covers_subnormal_energies(z0):
    # U = -(m1 + m2 + 2 m3)/(16 z0^3) above the plane is subnormal at
    # these heights, where rounding errors are absolute, not relative
    for v in (ISO, DipoleVariances(1e6, 0.0, 3e6)):
        got = energy_numeric(GeometryConfig.plane(), v, Position(0.0, 0.0, z0))
        exact = -(Fraction(v.m1) + Fraction(v.m2) + 2 * Fraction(v.m3)) / (16 * Fraction(z0) ** 3)
        assert abs(Fraction(got.value) - exact) <= Fraction(got.err_estimate)
        assert 0.0 < got.err_estimate < 1e-12 * abs(got.value) + 1e-320


def test_numeric_energy_is_finite_where_the_variance_sum_overflows():
    # beside the boss at z0 = 0.6 the energy is about -1.16e308: the
    # variance-weighted sum of the axes overflowed before it
    g = GeometryConfig.boss_hat(1.0)
    v = DipoleVariances(1e308, 1e308, 1e308)
    with np.errstate(over="raise"):
        got = energy_numeric(g, v, Position(3.0, 0.4, 0.6))
    want = energy_closed(g, v, Position(3.0, 0.4, 0.6)).value
    assert math.isfinite(got.value) and abs(got.value - want) <= got.err_estimate


def test_numeric_bound_is_unchanged_in_the_normal_range():
    # on the plane's axis at z0 = 2^k the terms are exact: 1 (x, y) and
    # 2 (z) times (2 z0)^-3, so the bound is 8 eps * 1/2 * (m1 + m2 + 2 m3)
    # (2 z0)^-3 exactly, wherever that is a normal number
    v = DipoleVariances(1.0, 2.0, 4.0)
    for k in (-20, 0, 100, 330, 339):
        z0 = 2.0**k
        got = energy_numeric(GeometryConfig.plane(), v, Position(0.0, 0.0, z0))
        assert got.err_estimate == 4.0 * sys.float_info.epsilon * 11.0 * (2.0 * z0) ** -3


def _richardson_reference(g, v, points, base_step=1e-2):
    """A finite-difference reference: the energy by the 4-point stencil at
    the steps h0, h0/2 and h0/4, h0 = base_step * max(distance to the
    surface, 0.01 |r0|), and three levels of Richardson extrapolation,
    with its last Richardson increment as the error; good to 1e-10 to
    1e-7 in the bulk."""
    weights = (v.m1, v.m2, v.m3)
    active = [m for m in range(3) if weights[m] != 0.0]
    directions = local_axes(v.frame, points)[:, active]
    h0 = base_step * np.maximum(surface_distance(g, points), 0.01 * point_norms(points))
    h = np.stack([h0, h0 / 2.0, h0 / 4.0], axis=-1)[:, None, :]
    offset = h[..., None] * directions[:, :, None, :]
    plus = points[:, None, None, :] + offset
    minus = points[:, None, None, :] - offset
    values = g_h(
        build_green(g),
        np.stack([plus, plus, minus, minus], axis=-2),
        np.stack([plus, minus, plus, minus], axis=-2),
    )
    s = (values[..., 0] - values[..., 1] - values[..., 2] + values[..., 3]) / (4.0 * h * h)
    r1 = s[..., 1] + (s[..., 1] - s[..., 0]) / 3.0
    r2 = s[..., 2] + (s[..., 2] - s[..., 1]) / 3.0
    d = r2 + (r2 - r1) / 15.0
    value = 2.0 * math.pi * sum(weights[m] * d[:, k] for k, m in enumerate(active))
    err = 2.0 * math.pi * sum(weights[m] * np.abs(d - r1)[:, k] for k, m in enumerate(active))
    return value, err


@pytest.mark.parametrize("g", GEOMETRIES, ids=GEOMETRY_IDS)
def test_numeric_agrees_with_richardson_reference_in_the_bulk(g):
    rng = np.random.default_rng(7)
    points = points_at_gaps(g, rng, 10.0 ** rng.uniform(-2.0, 0.5, 200))
    for frame in VarianceFrame:
        v = DipoleVariances(0.5, 1.0, 2.0, frame)
        got = energy_numeric(g, v, points).value
        value, err = _richardson_reference(g, v, points)
        assert np.all(np.abs(got - value) <= err)


# The energy of a single unit variance along one axis is 2*pi times the
# mixed second derivative of G_H along it (reduced units).
X_ONLY = DipoleVariances(1.0, 0.0, 0.0)
Y_ONLY = DipoleVariances(0.0, 1.0, 0.0)
Z_ONLY = DipoleVariances(0.0, 0.0, 1.0)


def test_mixed_second_plane_examples():
    g = GeometryConfig.plane()
    ex = energy_numeric(g, X_ONLY, Position(0, 0, 1)).value
    ez = energy_numeric(g, Z_ONLY, Position(0, 0, 1)).value
    assert ex == pytest.approx(2.0 * math.pi * (-1.0 / (32.0 * math.pi)), rel=1e-9)
    assert ez == pytest.approx(2.0 * math.pi * (-1.0 / (16.0 * math.pi)), rel=1e-9)


def test_mixed_second_sphere_example():
    g = GeometryConfig.grounded_sphere(1.0)
    ex = energy_numeric(g, X_ONLY, Position(0, 0, 2)).value
    assert ex == pytest.approx(2.0 * math.pi * (-1.0 / (108.0 * math.pi)), rel=1e-9)


def test_axis_exchange_symmetry():
    g = GeometryConfig.grounded_sphere(1.0)
    r0 = Position(0, 0, 2.3)
    ex = energy_numeric(g, X_ONLY, r0).value
    ey = energy_numeric(g, Y_ONLY, r0).value
    assert ex == pytest.approx(ey, rel=1e-10)


def test_error_estimate_brackets_true_error():
    got = energy_numeric(GeometryConfig.plane(), Z_ONLY, Position(0, 0, 1))
    truth = 2.0 * math.pi * (-1.0 / (16.0 * math.pi))
    assert abs(got.value - truth) <= 10.0 * got.err_estimate + 1e-15


def test_invalid_axis_weights():
    # the axes are chosen by the variance components, which must be >= 0
    with pytest.raises(ValueError):
        energy_numeric(GeometryConfig.plane(), DipoleVariances(1.0, -1.0, 0.0), Position(0, 0, 1))
    with pytest.raises(ValueError):
        energy_numeric(GeometryConfig.plane(), DipoleVariances(math.nan, 0.0, 1.0), Position(0, 0, 1))


def test_region_error_outside():
    with pytest.raises(RegionError):
        energy_numeric(GeometryConfig.plane(), ISO, Position(0, 0, -1.0))
    with pytest.raises(RegionError):
        energy_numeric(GeometryConfig.grounded_sphere(1.0), ISO, Position(0, 0, 0.5))
    with pytest.raises(RegionError):
        energy_numeric(GeometryConfig.boss_hat(1.0), ISO_CYL, Position(0, 0, -0.2))


@given(z0=st.floats(0.5, 20.0))
@settings(max_examples=40, deadline=None)
def test_numeric_matches_plane_closed_form(z0):
    got = energy_numeric(GeometryConfig.plane(), ISO, Position(0, 0, z0))
    want = u_plane(ISO, z0).value
    assert got.value == pytest.approx(want, rel=1e-8)


@given(ratio=st.floats(1.1, 30.0))
@settings(max_examples=40, deadline=None)
def test_numeric_matches_sphere_closed_forms(ratio):
    z0 = ratio
    got_g = energy_numeric(GeometryConfig.grounded_sphere(1.0), ISO, Position(0, 0, z0))
    assert got_g.value == pytest.approx(u_grounded_sphere(1.0, z0, 1.0).value, rel=1e-7)
    got_i = energy_numeric(GeometryConfig.isolated_sphere(1.0), ISO, Position(0, 0, z0))
    assert got_i.value == pytest.approx(u_isolated_sphere(1.0, z0, 1.0).value, rel=1e-7)


@given(
    rho0=st.floats(0.0, 2.0),
    z0=st.floats(0.3, 2.5),
    phi=st.floats(-math.pi, math.pi),
)
@settings(max_examples=40, deadline=None)
@example(rho0=5e-324, z0=1.0, phi=1.0)   # subnormal x and y: the azimuth's (cos, sin) was (1, 1)
def test_numeric_bosshat_is_azimuth_invariant_and_matches_corrected(rho0, z0, phi):
    if math.hypot(rho0, z0) < 1.15:
        z0 = math.sqrt(1.15**2 - rho0**2) + 0.05
    g = GeometryConfig.boss_hat(1.0)
    at_zero = energy_numeric(g, ISO_CYL, Position(rho0, 0.0, z0))
    rotated = energy_numeric(
        g, ISO_CYL, Position(rho0 * math.cos(phi), rho0 * math.sin(phi), z0)
    )
    assert rotated.value == pytest.approx(at_zero.value, rel=1e-9)
    want = u_bosshat_corrected(ISO_CYL, rho0, z0, 1.0).value
    assert at_zero.value == pytest.approx(want, rel=1e-7)


def test_energy_numeric_skips_zero_weight_axes():
    g = GeometryConfig.plane()
    only_z = DipoleVariances(0.0, 0.0, 1.0)
    got = energy_numeric(g, only_z, Position(0, 0, 1.0))
    assert got.value == pytest.approx(-0.125, rel=1e-9)
    # at z0 = 1e-103 the energy of (1, 1, 0) is -1.25e308, finite, and the
    # z kernel, twice the others, must not overflow before it
    flat = DipoleVariances(1.0, 1.0, 0.0)
    with np.errstate(over="raise"):
        got = energy_numeric(g, flat, Position(0, 0, 1e-103))
    exact = -2 / (16 * Fraction(1e-103) ** 3)
    assert abs(Fraction(got.value) - exact) <= Fraction(got.err_estimate)


def test_energy_numeric_si_units_scale():
    atom_d2 = 1e-59           # C^2 m^2, loosely atomic scale
    z0 = 5e-9                 # m
    from vdwsurf.units import UnitSystem, reduced_to_si_factor

    si = UnitSystem.si()
    v = DipoleVariances.isotropic(atom_d2)
    got = energy_numeric(GeometryConfig.plane(), v, Position(0, 0, z0), units=si)
    want = u_plane(v, z0, si).value
    assert got.value == pytest.approx(want, rel=1e-8)
    reduced = u_plane(ISO, 1.0).value
    factor = reduced_to_si_factor(atom_d2, z0)
    assert want == pytest.approx(reduced * factor, rel=1e-12)


def test_energy_numeric_grid_equals_per_point_calls(region_grid):
    g, variances, points = region_grid
    batch = energy_numeric(g, variances, points)
    assert batch.value.shape == batch.err_estimate.shape == (len(points),)
    for i, p in enumerate(points.tolist()):
        single = energy_numeric(g, variances, Position(*p))
        assert batch.value[i] == single.value
        assert batch.err_estimate[i] == single.err_estimate


def test_energy_numeric_grid_rejects_any_point_outside():
    g = GeometryConfig.grounded_sphere(1.0)
    grid = np.array([(0.0, 0.0, 2.0), (0.0, 0.0, 0.9), (0.0, 0.0, 3.0)])
    with pytest.raises(RegionError):
        energy_numeric(g, ISO, grid)


@pytest.mark.parametrize("route", [energy_numeric, extrapolated_energy], ids=["numeric", "oracle"])
def test_both_routes_name_the_first_coincident_point_of_a_batch(route):
    # points 3 and 4 lie 2e-17 from their mirror images, well within the rule
    points = np.array([(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (1.0, 0.0, 1e-17), (2.0, 0.0, 1e-17)])
    with np.errstate(all="raise"):
        with pytest.raises(DegenerateSourceError, match=r"field point \(1\.0, 0\.0, 1e-17\)"):
            route(GeometryConfig.plane(), ISO, points)
