import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwsurf.errors import RegionError, StepUnderflowError
from vdwsurf.evaluator import DiffSettings, energy_numeric, mixed_second
from vdwsurf.geometry import (
    DipoleVariances,
    GeometryConfig,
    Position,
    VarianceFrame,
)
from vdwsurf.images import build_green
from vdwsurf.closed import (
    u_bosshat_corrected,
    u_grounded_sphere,
    u_isolated_sphere,
    u_plane,
)

ISO = DipoleVariances.isotropic(1.0)
ISO_CYL = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL)


def test_mixed_second_plane_examples():
    green = build_green(GeometryConfig.plane())
    vx, _ = mixed_second(green, Position(0, 0, 1), "x")
    vz, _ = mixed_second(green, Position(0, 0, 1), "z")
    assert vx == pytest.approx(-1.0 / (32.0 * math.pi), rel=1e-9)
    assert vz == pytest.approx(-1.0 / (16.0 * math.pi), rel=1e-9)


def test_mixed_second_sphere_example():
    green = build_green(GeometryConfig.grounded_sphere(1.0))
    vx, _ = mixed_second(green, Position(0, 0, 2), "x")
    assert vx == pytest.approx(-1.0 / (108.0 * math.pi), rel=1e-9)


def test_axis_exchange_symmetry():
    green = build_green(GeometryConfig.grounded_sphere(1.0))
    r0 = Position(0, 0, 2.3)
    vx, _ = mixed_second(green, r0, "x")
    vy, _ = mixed_second(green, r0, "y")
    assert vx == pytest.approx(vy, rel=1e-10)


def test_error_estimate_brackets_true_error():
    green = build_green(GeometryConfig.plane())
    value, err = mixed_second(green, Position(0, 0, 1), "z")
    truth = -1.0 / (16.0 * math.pi)
    assert abs(value - truth) <= 10.0 * err + 1e-15


def test_richardson_levels_improve_accuracy():
    green = build_green(GeometryConfig.plane())
    truth = -1.0 / (16.0 * math.pi)
    coarse, _ = mixed_second(
        green, Position(0, 0, 1), "z", DiffSettings(base_step=1e-2, richardson_levels=1)
    )
    fine, _ = mixed_second(
        green, Position(0, 0, 1), "z", DiffSettings(base_step=1e-2, richardson_levels=3)
    )
    assert abs(fine - truth) < abs(coarse - truth) * 1e-3


def test_invalid_axis_and_settings():
    green = build_green(GeometryConfig.plane())
    with pytest.raises(ValueError):
        mixed_second(green, Position(0, 0, 1), "w")
    with pytest.raises(ValueError):
        DiffSettings(base_step=0.0)
    with pytest.raises(ValueError):
        DiffSettings(base_step=0.5)
    with pytest.raises(ValueError):
        DiffSettings(richardson_levels=0)


def test_region_error_outside():
    with pytest.raises(RegionError):
        energy_numeric(GeometryConfig.plane(), ISO, Position(0, 0, -1.0))
    with pytest.raises(RegionError):
        energy_numeric(GeometryConfig.grounded_sphere(1.0), ISO, Position(0, 0, 0.5))
    with pytest.raises(RegionError):
        energy_numeric(GeometryConfig.boss_hat(1.0), ISO_CYL, Position(0, 0, -0.2))


def test_step_underflow_near_contact():
    green = build_green(GeometryConfig.grounded_sphere(1.0))
    # gap of 1e-12 on a unit sphere: admissible steps are sub-ulp
    with pytest.raises(StepUnderflowError):
        mixed_second(
            green,
            Position(0, 0, 1.0 + 1e-12),
            "z",
            DiffSettings(base_step=1e-2, richardson_levels=6),
        )


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
