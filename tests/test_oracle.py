import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from vdwsurf.errors import ExtrapolationError, RegionError
from vdwsurf.geometry import (
    DipoleVariances,
    EnergyResult,
    GeometryConfig,
    GeometryKind,
    Method,
    Position,
    VarianceFrame,
    as_points,
    local_axes,
    physical_region,
    surface_distance,
    variances_of,
)
from vdwsurf.images import build_green
from vdwsurf.oracle import (
    _FIT_RTOL,
    DEFAULT_H_FRACTIONS,
    _fit_map,
    _pair_energies,
    extrapolated_energy,
)
from vdwsurf.units import UnitSystem
from vdwsurf.closed import (
    u_bosshat_corrected,
    u_grounded_sphere,
    u_isolated_sphere,
    u_plane,
)

from referee import points_at_gaps, referee_energy, rim_points

ISO = DipoleVariances.isotropic(1.0)
ISO_CYL = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL)


def _pair_energy(g, q, base, tip):
    """Image energy of +q at base and -q at tip, one explicit (2, 3) charge pair."""
    pair = np.array([base, tip], dtype=float)
    return float(_pair_energies(build_green(g), pair, q**2, UnitSystem.reduced())[0])


def test_zero_extent_dipole_has_zero_energy():
    g = GeometryConfig.plane()
    assert _pair_energy(g, 1.0, (0.0, 0.0, 1.0), (0.0, 0.0, 1.0)) == 0.0


def test_finite_dipole_energy_scales_with_charge_squared():
    g = GeometryConfig.grounded_sphere(1.0)
    one = _pair_energy(g, 1.0, (0.0, 0.0, 2.0), (0.0, 0.0, 2.0 + 0.01))
    three = _pair_energy(g, 3.0, (0.0, 0.0, 2.0), (0.0, 0.0, 2.0 + 0.01))
    assert three == pytest.approx(9.0 * one, rel=1e-13)


def test_finite_dipole_rejects_charge_outside_region():
    g = GeometryConfig.plane()
    # tip at z = -0.3 pokes through the conductor
    with pytest.raises(RegionError):
        _pair_energy(g, 1.0, (0.0, 0.0, 0.1), (0.0, 0.0, 0.1 - 0.4))


def test_finite_size_correction_is_quadratic_for_centered_pairs():
    g = GeometryConfig.plane()
    z0 = 1.0
    limit = u_plane(DipoleVariances(0, 0, 1.0), z0).value
    hs = np.array([4e-3, 2e-3, 1e-3, 5e-4])
    devs = []
    for h in hs:
        base = z0 - 0.5 * h
        devs.append(abs(_pair_energy(g, 1.0 / h, (0.0, 0.0, base), (0.0, 0.0, base + h)) - limit))
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
        devs.append(abs(_pair_energy(g, 1.0 / h, (0.0, 0.0, z0), (0.0, 0.0, z0 + h)) - limit))
    slope = np.polyfit(np.log(hs), np.log(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


def test_centered_plane_dipole_matches_exact_finite_formula():
    # centered vertical pair above a plane has the closed value
    # -q^2 h^2/(32 pi eps0 z0^3) / (1 - h^2/(4 z0^2))
    z0, h = 1.0, 0.25
    base = z0 - 0.5 * h
    got = _pair_energy(GeometryConfig.plane(), 1.0 / h, (0.0, 0.0, base), (0.0, 0.0, base + h))
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
def test_oracle_within_err_of_referee(g):
    # per frame, a bulk point at a gap R*10^U(-2, 0.5), a far one at
    # R*10^U(1.5, 2.5) (where the isolated sphere's neutrality term
    # cancels its Kelvin image), one at each gap 1e-2 ... 1e-6 R and, on
    # the boss hat, two beside the rim: 60 points
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261018)
    for frame in VarianceFrame:
        v = DipoleVariances(0.5, 1.0, 2.0, frame)
        gaps = 10.0 ** np.concatenate([rng.uniform((-2.0, 1.5), (0.5, 2.5)), -np.arange(2.0, 7.0)])
        points = points_at_gaps(g, rng, gaps)
        if g.kind is GeometryKind.BOSS_HAT:
            points = np.concatenate([points, rim_points(g.radius, rng, 10.0 ** rng.uniform(-6.0, -2.0, 2))])
        got = extrapolated_energy(g, v, points)
        for p, value, err in zip(points.tolist(), got.value.tolist(), got.err_estimate.tolist()):
            with mpmath.workdps(50):
                miss = abs(mpmath.mpf(value) - referee_energy(g, v, p))
            assert miss <= err <= 1e-4 * abs(value), (p, value, err, miss)


@pytest.mark.parametrize("z0", [1e105, 1e110, 1e150])
def test_oracle_bound_covers_subnormal_energies(z0):
    # U = -(m1 + m2 + 2 m3)/(16 z0^3) above the plane is subnormal or below
    # the least subnormal here, where rounding errors are absolute
    for v in (ISO, DipoleVariances(1e6, 0.0, 3e6)):
        got = extrapolated_energy(GeometryConfig.plane(), v, Position(0.0, 0.0, z0))
        exact = -(Fraction(v.m1) + Fraction(v.m2) + 2 * Fraction(v.m3)) / (16 * Fraction(z0) ** 3)
        assert abs(Fraction(got.value) - exact) <= Fraction(got.err_estimate)
        assert 0.0 < got.err_estimate < 1e-6 * abs(got.value) + 1e-320


def test_extrapolated_energy_region_error():
    with pytest.raises(RegionError):
        extrapolated_energy(GeometryConfig.plane(), ISO, Position(0, 0, -0.5))


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


def _reference_samples(g, atom, points, fractions, units):
    """The finite-dipole samples of the reference, shape (N, A, K), with
    its design points x = (h/ell)^2, shape (N, K), and active axes."""
    if not np.all(physical_region(g, points)):
        raise RegionError("r0 must lie strictly inside the physical region")
    green = build_green(g)
    v = variances_of(atom)
    ell = surface_distance(g, points)[:, None]
    h_values = ell * np.array(fractions)
    x = (h_values / ell) ** 2

    weights = (v.m1, v.m2, v.m3)
    active = [m for m in range(3) if weights[m] != 0.0]
    axes = np.array([local_axes(v.frame, Position(*p)) for p in points.tolist()])
    e = axes[:, active, None, :]
    h = h_values[:, None, :, None]
    base = points[:, None, None, :] - 0.5 * h * e
    tip = base + h * e
    q = np.array([math.sqrt(weights[m]) for m in active])[:, None] / h_values[:, None, :]
    q_squared = np.array([qq**2 for qq in q.ravel().tolist()]).reshape(q.shape)
    samples, _ = _pair_energies(green, np.stack([base, tip]), q_squared, units)
    return samples, x, active


@pytest.mark.parametrize(
    "g, variances",
    [
        (GeometryConfig.plane(), DipoleVariances(0.5, 1.0, 2.0)),
        (GeometryConfig.boss_hat(1.0), DipoleVariances(0.5, 1.0, 2.0, VarianceFrame.CYLINDRICAL_LOCAL)),
    ],
    ids=["plane", "bosshat"],
)
def test_oracle_value_is_the_fit_map_on_the_reference_samples_bit_for_bit(g, variances):
    # the reference squares q with Python's **; numpy's power and q * q
    # differ from it for about one q in 1,200, and here there are 12,000
    rng = np.random.default_rng(1204)
    n = 1000
    points = np.column_stack(
        [rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n), rng.uniform(1.1, 3.0, n)]
    )
    samples, _, _ = _reference_samples(g, variances, points, DEFAULT_H_FRACTIONS, UnitSystem.reduced())
    c0 = _fit_map(tuple(DEFAULT_H_FRACTIONS))[0].tolist()
    # K multiply-adds per axis, then the axes in order, each sum from 0
    want = [sum(sum(c * s for c, s in zip(c0, axis)) for axis in point) for point in samples.tolist()]
    assert extrapolated_energy(g, variances, points).value.tolist() == want


def _per_point_reference(
    g, atom, r0, fractions=DEFAULT_H_FRACTIONS, units=UnitSystem.reduced()
):
    """The oracle by one pair of least-squares fits (np.linalg.lstsq) per
    point and axis, kept as a cross-check of the fixed fit map; the step
    schedule is the given fractions of the distance to the surface."""
    points = as_points(r0).reshape(-1, 3)
    samples, x, active = _reference_samples(g, atom, points, fractions, units)

    totals = []
    errs = []
    for i in range(len(points)):
        design_full = np.column_stack([np.ones_like(x[i]), x[i], x[i] * x[i]])
        design_quad = design_full[:, :2]
        total = 0.0
        err_total = 0.0
        for k, m in enumerate(active):
            label = str(m + 1)
            coef_full, _, _, _ = np.linalg.lstsq(design_full, samples[i, k], rcond=None)
            coef_quad, _, _, _ = np.linalg.lstsq(design_quad, samples[i, k], rcond=None)
            a0 = float(coef_full[0])
            residual = float(np.max(np.abs(design_full @ coef_full - samples[i, k])))
            err_axis = max(residual, abs(a0 - float(coef_quad[0])))
            scale = max(abs(a0), float(np.max(np.abs(samples[i, k]))))
            if scale > 0.0 and err_axis > _FIT_RTOL * scale:
                raise ExtrapolationError(
                    f"finite-dipole extrapolation failed to converge on axis {label}"
                )
            total += a0
            err_total += err_axis
        totals.append(total)
        errs.append(err_total)
    if isinstance(r0, Position):
        return EnergyResult(totals[0], errs[0], Method.ORACLE, units.mode)
    return EnergyResult(np.array(totals), np.array(errs), Method.ORACLE, units.mode)


def _rounding_slack(g, atom, points, fractions):
    """4 eps sum_axes sum_j |c0_j| |s_j| per point, with c0 the h = 0 row
    of the design's pseudo-inverse: the rounding allowed between two
    evaluations of the same h -> 0 fit."""
    samples, _, _ = _reference_samples(g, atom, points, fractions, UnitSystem.reduced())
    x = np.array(fractions) ** 2
    c0 = np.linalg.pinv(np.column_stack([np.ones_like(x), x, x * x]))[0]
    return 4.0 * sys.float_info.epsilon * np.sum(np.abs(c0) * np.abs(samples), axis=(1, 2))


def _outcome(route, *args, **kwargs):
    """The exact bytes of value and err_estimate, or the error raised."""
    try:
        result = route(*args, **kwargs)
    except ExtrapolationError as exc:
        return ("ExtrapolationError", str(exc))
    return (
        type(result.value),
        np.asarray(result.value).tobytes(),
        np.asarray(result.err_estimate).tobytes(),
    )


def _count_lstsq(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def _assert_within_rounding_of_per_point_fits(g, variances, points, monkeypatch, fractions):
    """Batch and single calls within the reference's rounding slack of
    the per-point least-squares fits, err_estimate at least their fit
    error, and no least-squares call."""
    want = _per_point_reference(g, variances, points, fractions)
    slack = _rounding_slack(g, variances, points, fractions)
    calls = _count_lstsq(monkeypatch)
    got = extrapolated_energy(g, variances, points)
    assert np.all(np.abs(got.value - want.value) <= slack)
    assert np.all(got.err_estimate >= want.err_estimate - slack)
    for i, p in enumerate(points.tolist()):
        single = extrapolated_energy(g, variances, Position(*p))
        assert abs(single.value - want.value[i]) <= slack[i]
    assert not calls


def test_grouped_fits_equal_per_point_fits(region_grid, monkeypatch):
    g, variances, points = region_grid
    _assert_within_rounding_of_per_point_fits(
        g, variances, points, monkeypatch, DEFAULT_H_FRACTIONS
    )


def test_grouped_fits_equal_per_point_fits_over_random_distances(monkeypatch):
    # distances to the surface spread over nine decades, where the
    # computed (h/ell)^2 of the reference's design rows differ in their
    # last bits
    rng = np.random.default_rng(7)
    g = GeometryConfig.grounded_sphere(1.3)
    u = rng.normal(size=(300, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    points = u * (1.3 + 10.0 ** rng.uniform(-6.0, 3.0, 300))[:, None]
    variances = DipoleVariances(0.5, 1.0, 2.0)
    _assert_within_rounding_of_per_point_fits(
        g, variances, points, monkeypatch, DEFAULT_H_FRACTIONS
    )


@pytest.mark.parametrize("near_contact", [True, False], ids=["near-contact", "bulk"])
def test_grouped_fits_equal_per_point_fits_with_custom_schedule(
    region_grid, near_contact, monkeypatch
):
    # a coarser schedule, set through the module constant, which the
    # route reads at each call
    fractions = (0.2, 0.1, 0.05)
    monkeypatch.setattr("vdwsurf.oracle.DEFAULT_H_FRACTIONS", fractions)
    g, variances, points = region_grid
    band = (surface_distance(g, points) < 1e-3) == near_contact
    _assert_within_rounding_of_per_point_fits(
        g, variances, points[band], monkeypatch, fractions
    )


def test_extrapolation_error_names_the_first_failing_point_and_axis(monkeypatch):
    # with this coarse schedule, on the axis of the isolated unit sphere,
    # the point at z0 = 5 converges, the one at 10 fails first on axis 3
    # and the one at 30 first on axis 1; point by point, the first
    # failure is axis 3 of the second point, while a loop over axes
    # first would name axis 1
    fractions = (0.4, 0.2, 0.1)
    monkeypatch.setattr("vdwsurf.oracle.DEFAULT_H_FRACTIONS", fractions)
    g = GeometryConfig.isolated_sphere(1.0)
    v = DipoleVariances(1.0, 1.0, 1.0)
    extrapolated_energy(g, v, Position(0, 0, 5.0))
    for z0, axis in ((10.0, 3), (30.0, 1)):
        with pytest.raises(ExtrapolationError, match=f"on axis {axis}$"):
            extrapolated_energy(g, v, Position(0, 0, z0))
    grid = np.array([(0.0, 0.0, 5.0), (0.0, 0.0, 10.0), (0.0, 0.0, 30.0)])
    want = _outcome(_per_point_reference, g, v, grid, fractions)
    assert want == ("ExtrapolationError", "finite-dipole extrapolation failed to converge on axis 3")
    assert _outcome(extrapolated_energy, g, v, grid) == want
