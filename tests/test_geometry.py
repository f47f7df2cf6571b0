import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vdwsurf.geometry import (
    DipoleVariances,
    GeometryConfig,
    GeometryKind,
    Position,
    VarianceFrame,
    local_axes,
    physical_region,
    surface_distance,
)
from vdwsurf.units import UnitSystem

coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(x=coords, y=coords, z=coords)
def test_cylindrical_round_trip(x, y, z):
    p = Position(x, y, z)
    q = Position(p.rho * math.cos(p.phi), p.rho * math.sin(p.phi), p.z)
    scale = max(1.0, p.norm)
    assert math.hypot(q.x - x, q.y - y) <= 1e-12 * scale
    assert q.z == z


def test_phi_conventions():
    assert Position(0.0, 0.0, 1.0).phi == 0.0
    assert Position(1.0, 0.0, 0.0).phi == 0.0
    assert Position(-1.0, 0.0, 0.0).phi == pytest.approx(math.pi)
    assert Position(0.0, -1.0, 0.0).phi == pytest.approx(-math.pi / 2)
    # range is (-pi, pi]
    assert -math.pi < Position(-1.0, -1e-300, 0.0).phi <= math.pi


def test_physical_region_examples():
    plane = GeometryConfig.plane()
    assert physical_region(plane, Position(0, 0, 1e-9))
    assert not physical_region(plane, Position(5, 5, 0.0))
    assert not physical_region(plane, Position(0, 0, -1.0))

    sphere = GeometryConfig.grounded_sphere(2.0)
    assert physical_region(sphere, Position(0, 0, -2.5))
    assert not physical_region(sphere, Position(0, 0, 1.5))
    assert not physical_region(sphere, Position(2.0, 0, 0))

    hat = GeometryConfig.boss_hat(1.0)
    assert physical_region(hat, Position(0, 0, 1.5))
    assert physical_region(hat, Position(2.0, 0, 0.1))
    assert not physical_region(hat, Position(0, 0, 0.5))      # inside the boss
    assert not physical_region(hat, Position(2.0, 0, -0.1))   # below the plane


def test_surface_distance_examples():
    assert surface_distance(GeometryConfig.plane(), Position(3, 4, 0.5)) == 0.5
    assert surface_distance(GeometryConfig.grounded_sphere(1.0), Position(0, 0, 2.5)) == 1.5
    hat = GeometryConfig.boss_hat(1.0)
    assert surface_distance(hat, Position(0, 0, 3.0)) == 2.0       # sphere is nearest
    assert surface_distance(hat, Position(5.0, 0, 0.25)) == 0.25   # plane is nearest


def test_geometry_config_validation():
    with pytest.raises(ValueError):
        GeometryConfig(GeometryKind.GROUNDED_SPHERE, 0.0)
    with pytest.raises(ValueError):
        GeometryConfig(GeometryKind.BOSS_HAT, -1.0)
    assert GeometryConfig.plane().radius == 0.0


def test_variances_validation_and_total():
    with pytest.raises(ValueError):
        DipoleVariances(-1.0, 0.0, 0.0)
    v = DipoleVariances(0.1, 0.2, 0.3)
    assert v.total == pytest.approx(0.6)


@given(total=st.floats(1e-12, 1e12))
def test_isotropic_thirds(total):
    v = DipoleVariances.isotropic(total)
    assert v.m1 == v.m2 == v.m3
    assert v.m1 == total / 3.0


def test_variances_from_dominant_transition():
    u = UnitSystem.reduced()
    v = DipoleVariances.from_dominant_transition(alpha=2.0, omega10=3.0, units=u)
    # <d^2> = (3/2) hbar omega alpha
    assert v.total == pytest.approx(9.0)
    assert v == DipoleVariances.isotropic(9.0)


def test_local_axes_cylindrical():
    p = Position(1.0, 1.0, 0.5)
    e_rho, e_phi, e_z = local_axes(VarianceFrame.CYLINDRICAL_LOCAL, p)
    s = math.sqrt(0.5)
    assert e_rho == pytest.approx((s, s, 0.0))
    assert e_phi == pytest.approx((-s, s, 0.0))
    assert e_z == (0.0, 0.0, 1.0)
    # orthonormality
    assert sum(a * b for a, b in zip(e_rho, e_phi)) == pytest.approx(0.0, abs=1e-15)


def test_local_axes_cartesian_ignores_position():
    axes = local_axes(VarianceFrame.CARTESIAN, Position(5, -2, 7))
    assert axes == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


@pytest.mark.parametrize("frame", list(VarianceFrame))
def test_local_axes_of_an_array_equal_per_position_axes(region_grid, frame):
    _, _, points = region_grid
    axes = local_axes(frame, points)
    assert axes.shape == (len(points), 3, 3)
    for i, p in enumerate(points.tolist()):
        assert axes[i].tobytes() == np.array(local_axes(frame, Position(*p))).tobytes()


def _physical_region_reference(g, p):
    """physical_region as it was written before it became
    surface_distance > 0: its own test per geometry."""
    if isinstance(p, Position):
        z, norm = p.z, p.norm
    else:
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        norm = np.sqrt(x * x + y * y + z * z)
    if g.kind is GeometryKind.PLANE:
        return z > 0.0
    if g.kind in (GeometryKind.GROUNDED_SPHERE, GeometryKind.ISOLATED_SPHERE):
        return norm > g.radius
    return (z > 0.0) & (norm > g.radius)


def _region_probe_points(g, grid):
    """The grid, points exactly on the surface, and every triple of
    special and ordinary coordinates: +-0.0, +-inf, NaN, a huge value
    whose square overflows, and finite values around the radius."""
    r = g.radius or 1.0
    on_surface = [(r, 0.0, 0.0), (0.0, -r, 0.0), (0.0, 0.0, r), (0.0, 0.0, -r),
                  (3.0 * r, 4.0 * r, 0.0), (-2.0 * r, 0.0, 0.0)]
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1.0, 0.5 * r, r, 2.5 * r]
    special = [(x, y, z) for x in values for y in values for z in values]
    return np.array(grid.tolist() + on_surface + special)


def test_physical_region_equals_its_reference_and_positive_surface_distance(region_grid):
    g, _, grid = region_grid
    points = _region_probe_points(g, grid)
    with np.errstate(over="ignore"):
        expected = _physical_region_reference(g, points)
        got = physical_region(g, points)
        distance = surface_distance(g, points)
        assert got.tolist() == expected.tolist()
        assert got.tolist() == (distance > 0.0).tolist()
        for p, d, inside in zip(points.tolist(), distance.tolist(), expected.tolist()):
            position = Position(*p)
            assert physical_region(g, position) is inside
            assert _physical_region_reference(g, position) == inside
            d_position = surface_distance(g, position)
            assert type(d_position) is float
            assert d_position == d or (math.isnan(d_position) and math.isnan(d))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_a_nan_coordinate_gives_a_nan_surface_distance(region_grid, axis):
    g, _, grid = region_grid
    points = grid.copy()
    points[:, axis] = math.nan
    # the plane's distance is its z coordinate alone
    depends = g.kind is not GeometryKind.PLANE or axis == 2
    for p, d in zip(points.tolist(), surface_distance(g, points).tolist()):
        assert math.isnan(d) == depends
        assert math.isnan(surface_distance(g, Position(*p))) == depends
        if depends:
            assert not physical_region(g, Position(*p))


def test_contract_adds_exactly_zero_for_an_axis_of_zero_variance():
    kernel = (np.array([-2.0, 3.0, -1e308]), np.array([-np.inf, np.inf, 5.0]),
              np.array([-4.0, -0.0, np.inf]))
    got = DipoleVariances(1.0, 0.0, 0.0).contract(kernel)
    assert got.tolist() == [-2.0, 3.0, -1e308]
    # where the kernel is finite, the bits of m * K_a, the sign of a zero included
    finite = (np.array([-1e-320, 2.0]), np.array([-3.0, -0.0]), np.array([-5e-324, 7.0]))
    for v in (DipoleVariances(0.0, 0.0, 0.0), DipoleVariances(0.0, 2.0, -0.0)):
        want = v.m1 * finite[0] + v.m2 * finite[1] + v.m3 * finite[2]
        assert v.contract(finite).view(np.uint64).tolist() == want.view(np.uint64).tolist()
