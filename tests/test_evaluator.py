import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwsurf.errors import RegionError, StepUnderflowError
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
from vdwsurf.closed import (
    u_bosshat_corrected,
    u_grounded_sphere,
    u_isolated_sphere,
    u_plane,
)

ISO = DipoleVariances.isotropic(1.0)
ISO_CYL = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL)


def _richardson_reference(green, points, directions, base_step=1e-2, levels=3):
    """The general Richardson tableau the numeric route used when its
    step and level count were settable, kept as the reference of the
    fixed three-level schedule: mixed second derivatives at (N, 3)
    points along (N, A, 3) unit directions, each (N, A), as the value
    and its last increment."""
    dist = surface_distance(green.geometry, points)
    if not np.all(dist > 0.0):
        raise RegionError("r0 must lie strictly inside the physical region")
    norm = point_norms(points)
    scale = np.maximum(dist, 0.01 * norm)
    h0 = base_step * scale
    h0 = np.where(h0 >= dist, 0.45 * dist, h0)
    if np.any(h0 / 2.0 ** (levels - 1) < 1e3 * sys.float_info.epsilon * norm):
        raise StepUnderflowError(
            "finite-difference step below floating-point resolution"
        )
    steps = [h0]
    for _ in range(levels - 1):
        steps.append(steps[-1] * 0.5)
    h = np.stack(steps, axis=-1)[:, None, :]
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
    row_prev = []
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
    return value, np.abs(value - diag_prev)


def _reference_energy(g, v, points):
    """energy_numeric summed over the axes of _richardson_reference, as
    the bytes of value and err_estimate."""
    weights = (v.m1, v.m2, v.m3)
    active = [m for m in range(3) if weights[m] != 0.0]
    d, e = _richardson_reference(
        build_green(g), points, local_axes(v.frame, points)[:, active]
    )
    value = np.zeros(len(points))
    err = np.zeros(len(points))
    for k, m in enumerate(active):
        value = value + weights[m] * d[:, k]
        err = err + weights[m] * np.abs(e[:, k])
    return (2.0 * math.pi * value).tobytes(), (2.0 * math.pi * err).tobytes()


def _route_bytes(g, v, points):
    result = energy_numeric(g, v, points)
    return result.value.tobytes(), result.err_estimate.tobytes()


def test_fixed_schedule_equals_richardson_reference_on_grid(region_grid):
    g, variances, points = region_grid
    assert _route_bytes(g, variances, points) == _reference_energy(g, variances, points)


def _random_points(g, rng, n):
    """n points at gaps R*10^U(-9, 0) from the surface (R = 1 for the
    plane), in every direction; for the boss hat half of them lie above
    the plane, beside or over the boss."""
    radius = g.radius or 1.0
    gap = radius * 10.0 ** rng.uniform(-9.0, 0.0, n)
    if g.kind is GeometryKind.PLANE:
        points = rng.uniform(-2.0, 2.0, (n, 3))
        points[:, 2] = gap
        return points
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    if g.kind is GeometryKind.BOSS_HAT:
        u[:, 2] = np.abs(u[:, 2])
        points = u * (radius + gap)[:, None]
        above = rng.uniform(-3.0 * radius, 3.0 * radius, (n, 3))
        above[:, 2] = gap
        beside = np.hypot(above[:, 0], above[:, 1]) > radius
        pick = (rng.random(n) < 0.5) & beside
        points[pick] = above[pick]
        return points
    return u * (radius + gap)[:, None]


@pytest.mark.parametrize(
    "g",
    [
        GeometryConfig.plane(),
        GeometryConfig.grounded_sphere(1.3),
        GeometryConfig.isolated_sphere(0.7),
        GeometryConfig.boss_hat(1.0),
    ],
    ids=["plane", "gsphere", "isphere", "bosshat"],
)
def test_fixed_schedule_equals_richardson_reference_on_random_points(g):
    # 4 geometries x 3 variance sets x 167 points: 2,004 seeded points,
    # with zero-weight axes in two of the sets
    rng = np.random.default_rng(20261018)
    frame = (
        VarianceFrame.CYLINDRICAL_LOCAL
        if g.kind is GeometryKind.BOSS_HAT
        else VarianceFrame.CARTESIAN
    )
    for weights in ((0.5, 1.0, 2.0), (0.0, 0.0, 1.0), (1.0, 0.3, 0.0)):
        v = DipoleVariances(*weights, frame)
        points = _random_points(g, rng, 167)
        assert _route_bytes(g, v, points) == _reference_energy(g, v, points)


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


def test_step_underflow_near_contact():
    # gap of 1e-12 on a unit sphere: the third step h0/4 is sub-ulp
    g = GeometryConfig.grounded_sphere(1.0)
    with pytest.raises(StepUnderflowError):
        energy_numeric(g, Z_ONLY, Position(0, 0, 1.0 + 1e-12))
    with pytest.raises(StepUnderflowError):
        energy_numeric(g, ISO, np.array([(0.0, 0.0, 2.0), (0.0, 0.0, 1.0 + 1e-12)]))


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
