import math

import numpy as np
import pytest

from vdwsurf.errors import RegionError
from vdwsurf.geometry import (
    DipoleVariances,
    GeometryConfig,
    Position,
    VarianceFrame,
)
from vdwsurf.oracle import FiniteDipole, extrapolated_energy, finite_dipole_energy
from vdwsurf.closed import (
    u_bosshat_corrected,
    u_grounded_sphere,
    u_isolated_sphere,
    u_plane,
)

ISO = DipoleVariances.isotropic(1.0)
ISO_CYL = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL)


def test_zero_extent_dipole_has_zero_energy():
    g = GeometryConfig.plane()
    fd = FiniteDipole(q=1.0, h_vec=(0.0, 0.0, 0.0), center=Position(0, 0, 1))
    assert finite_dipole_energy(g, fd) == 0.0


def test_finite_dipole_energy_scales_with_charge_squared():
    g = GeometryConfig.grounded_sphere(1.0)
    one = FiniteDipole(q=1.0, h_vec=(0.0, 0.0, 0.01), center=Position(0, 0, 2))
    three = FiniteDipole(q=3.0, h_vec=(0.0, 0.0, 0.01), center=Position(0, 0, 2))
    assert finite_dipole_energy(g, three) == pytest.approx(
        9.0 * finite_dipole_energy(g, one), rel=1e-13
    )


def test_finite_dipole_rejects_charge_outside_region():
    g = GeometryConfig.plane()
    # tip at z = -0.3 pokes through the conductor
    fd = FiniteDipole(q=1.0, h_vec=(0.0, 0.0, -0.4), center=Position(0, 0, 0.1))
    with pytest.raises(RegionError):
        finite_dipole_energy(g, fd)


def test_finite_size_correction_is_quadratic_for_centered_pairs():
    g = GeometryConfig.plane()
    z0 = 1.0
    limit = u_plane(DipoleVariances(0, 0, 1.0), z0).value
    hs = np.array([4e-3, 2e-3, 1e-3, 5e-4])
    devs = []
    for h in hs:
        fd = FiniteDipole(
            q=1.0 / h, h_vec=(0.0, 0.0, h), center=Position(0, 0, z0 - 0.5 * h)
        )
        devs.append(abs(finite_dipole_energy(g, fd) - limit))
    slope = np.polyfit(np.log(hs), np.log(devs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_uncentered_placement_degrades_to_linear_error():
    # base at r0 instead of r0 - h/2: the midpoint shifts by h/2, so the
    # deviation from the point limit picks up an O(h) term
    g = GeometryConfig.plane()
    z0 = 1.0
    limit = u_plane(DipoleVariances(0, 0, 1.0), z0).value
    hs = np.array([4e-3, 2e-3, 1e-3, 5e-4])
    devs = []
    for h in hs:
        fd = FiniteDipole(q=1.0 / h, h_vec=(0.0, 0.0, h), center=Position(0, 0, z0))
        devs.append(abs(finite_dipole_energy(g, fd) - limit))
    slope = np.polyfit(np.log(hs), np.log(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


def test_centered_plane_dipole_matches_exact_finite_formula():
    # centered vertical pair above a plane has the closed value
    # -q^2 h^2/(32 pi eps0 z0^3) / (1 - h^2/(4 z0^2))
    z0, h = 1.0, 0.25
    fd = FiniteDipole(q=1.0 / h, h_vec=(0.0, 0.0, h), center=Position(0, 0, z0 - 0.5 * h))
    got = finite_dipole_energy(GeometryConfig.plane(), fd)
    want = -1.0 / (8.0 * z0**3) / (1.0 - h**2 / (4.0 * z0**2))
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "g,variances,r0,want",
    [
        (
            GeometryConfig.plane(),
            ISO,
            Position(0, 0, 1.3),
            u_plane(ISO, 1.3).value,
        ),
        (
            GeometryConfig.grounded_sphere(1.0),
            ISO,
            Position(0, 0, 2.4),
            u_grounded_sphere(1.0, 2.4, 1.0).value,
        ),
        (
            GeometryConfig.isolated_sphere(1.0),
            ISO,
            Position(0, 0, 1.8),
            u_isolated_sphere(1.0, 1.8, 1.0).value,
        ),
        (
            GeometryConfig.boss_hat(1.0),
            ISO_CYL,
            Position(0.7, 0.0, 1.1),
            u_bosshat_corrected(ISO_CYL, 0.7, 1.1, 1.0).value,
        ),
    ],
    ids=["plane", "gsphere", "isphere", "bosshat-off-axis"],
)
def test_extrapolated_energy_matches_closed_forms(g, variances, r0, want):
    got = extrapolated_energy(g, variances, r0)
    assert got.value == pytest.approx(want, rel=1e-6)
    assert abs(got.value - want) <= max(50.0 * got.err_estimate, 1e-9 * abs(want))


def test_extrapolated_energy_region_error():
    with pytest.raises(RegionError):
        extrapolated_energy(GeometryConfig.plane(), ISO, Position(0, 0, -0.5))


def test_extrapolated_energy_rejects_bad_schedule():
    g = GeometryConfig.plane()
    with pytest.raises(ValueError):
        extrapolated_energy(g, ISO, Position(0, 0, 1.0), h_schedule=(1e-2, 1e-2, 5e-3))
    with pytest.raises(ValueError):
        extrapolated_energy(g, ISO, Position(0, 0, 1.0), h_schedule=(1e-2, 5e-3))


def test_anisotropic_oracle_weights_axes_independently():
    g = GeometryConfig.plane()
    z0 = 1.5
    only_z = extrapolated_energy(g, DipoleVariances(0, 0, 1.0), Position(0, 0, z0))
    only_x = extrapolated_energy(g, DipoleVariances(1.0, 0, 0), Position(0, 0, z0))
    assert only_z.value == pytest.approx(2.0 * only_x.value, rel=1e-8)
    assert only_z.value == pytest.approx(
        u_plane(DipoleVariances(0, 0, 1.0), z0).value, rel=1e-8
    )


def test_extrapolated_energy_grid_equals_per_point_calls(region_grid):
    g, variances, points = region_grid
    batch = extrapolated_energy(g, variances, points)
    assert batch.value.shape == batch.err_estimate.shape == (len(points),)
    for i, p in enumerate(points.tolist()):
        single = extrapolated_energy(g, variances, Position(*p))
        assert batch.value[i] == single.value
        assert batch.err_estimate[i] == single.err_estimate


def test_extrapolated_energy_grid_with_explicit_schedule():
    g = GeometryConfig.plane()
    grid = np.array([(0.0, 0.0, 1.0), (0.3, 0.0, 2.0)])
    schedule = (1e-2, 5e-3, 2.5e-3)
    batch = extrapolated_energy(g, ISO, grid, h_schedule=schedule)
    for i, p in enumerate(grid.tolist()):
        assert batch.value[i] == extrapolated_energy(g, ISO, Position(*p), h_schedule=schedule).value
