import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwsurf.errors import ContactError, ExpansionWindowError, RegionError
from vdwsurf._errata import u_bosshat, xi_factors
from vdwsurf.evaluator import energy_numeric
from vdwsurf.oracle import extrapolated_energy
from vdwsurf.closed import (
    BOSSHAT_EXPANSION_C3,
    SPHERE_EXPANSION_C3,
    bosshat_axis_bracket,
    energy_closed,
    fit_expansion_coefficients,
    sphere_bracket,
    u_bosshat_corrected,
    u_bosshat_expansion3,
    u_grounded_sphere,
    u_grounded_sphere_alpha,
    u_isolated_sphere,
    u_plane,
    u_sphere_expansion3,
    xi_factors_corrected,
)
from vdwsurf.geometry import (
    DipoleVariances,
    GeometryConfig,
    GeometryKind,
    Method,
    Position,
    VarianceFrame,
)
from vdwsurf.units import UnitSystem, reduced_to_si_factor

from referee import NEAR_GAPS, referee_energy, rim_points

ISO = DipoleVariances.isotropic(1.0)
ISO_CYL = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL)


def test_plane_examples():
    assert u_plane(DipoleVariances(0, 0, 1), 1.0).value == pytest.approx(-0.125)
    assert u_plane(ISO, 1.0).value == pytest.approx(-1.0 / 12.0)
    with pytest.raises(ContactError):
        u_plane(ISO, 0.0)


# 16 |z0|^3 overflows from about 2.24e102, |z0|^3 itself above 5.64e102
@pytest.mark.parametrize("z0", [2.25e102, 2.5e102, 4e102, 5.5e102])
def test_plane_energy_where_only_the_denominator_overflows(z0):
    v = DipoleVariances(0.5, 1.0, 2.0)
    value = u_plane(v, z0).value
    assert value < 0.0
    # scaling z0 by 2^-10 is exact, so this is the energy at z0 rounded once
    assert value == pytest.approx(u_plane(v, z0 / 2.0**10).value / 2.0**30, rel=1e-12)
    # the numeric route agrees to about 2e-11 at every distance
    numeric = energy_numeric(GeometryConfig.plane(), v, Position(0.0, 0.0, z0)).value
    assert value == pytest.approx(numeric, rel=1e-10)
    points = np.array([(0.0, 0.0, 1.0), (0.5, 0.0, z0), (0.0, 0.0, 0.5 * z0)])
    for over in ("warn", "raise"):   # the CLI runs the routes under over="raise"
        with np.errstate(over=over):
            batch = energy_closed(GeometryConfig.plane(), v, points).value
            single = [energy_closed(GeometryConfig.plane(), v, Position(*p)).value
                      for p in points.tolist()]
        assert batch.tobytes() == np.array(single).tobytes()
        assert batch[1] == value


def test_plane_energy_keeps_its_bits_below_the_overflow():
    # an array of heights gives the bits of its float calls, each within
    # 6 roundings of the exact -(m1 + m2 + 2 m3)/(16 k z0^3): on each
    # term's path two in z0^3, one in the division, one in the product and
    # two in the sums, whose terms have one sign
    z0 = 10.0 ** np.random.default_rng(5).uniform(-100.0, 102.3, 2000)
    for v in (ISO, DipoleVariances(0.5, 1.0, 2.0)):
        got = u_plane(v, z0).value
        singles = [u_plane(v, z).value for z in z0.tolist()]
        assert all(type(value) is float for value in singles)
        assert got.tobytes() == np.array(singles).tobytes()
        numerator = -(Fraction(v.m1) + Fraction(v.m2) + 2 * Fraction(v.m3)) / 16
        for z, value in zip(z0.tolist()[:400], got.tolist()):
            exact = numerator / Fraction(z) ** 3
            assert abs(Fraction(value) - exact) <= 6 * 2.0**-53 * abs(exact), z


@given(z0=st.floats(0.1, 100.0), scale=st.floats(1.5, 4.0))
def test_plane_cubic_law(z0, scale):
    a = u_plane(ISO, z0).value
    b = u_plane(ISO, z0 * scale).value
    assert a / b == pytest.approx(scale**3, rel=1e-12)


def test_grounded_sphere_example():
    assert u_grounded_sphere(1.0, 2.0, 1.0).value == pytest.approx(-7.0 / 162.0, rel=1e-14)
    with pytest.raises(ContactError):
        u_grounded_sphere(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        u_grounded_sphere(1.0, 2.0, 0.0)
    for a in (0.0, -1.0):
        with pytest.raises(ContactError):
            u_grounded_sphere_alpha(1.0, 1.0, a, 1.0)
    for radius in (0.0, -1.0):
        with pytest.raises(ValueError, match="radius must be positive"):
            u_grounded_sphere_alpha(1.0, 1.0, 1.0, radius)


@given(gap=st.floats(0.05, 5.0), radius=st.floats(0.1, 10.0))
def test_grounded_sphere_alpha_form_matches_variance_form(gap, radius):
    # <d^2> = (3/2) hbar omega alpha with alpha = hbar = omega = 1
    a = gap * radius
    direct = u_grounded_sphere(1.5, radius + a, radius).value
    via_alpha = u_grounded_sphere_alpha(1.0, 1.0, a, radius).value
    assert direct == pytest.approx(via_alpha, rel=1e-12)


@pytest.mark.parametrize(
    "g",
    [GeometryConfig.grounded_sphere(1.3), GeometryConfig.isolated_sphere(1.3),
     GeometryConfig.boss_hat(1.3)],
    ids=["gsphere", "isphere", "bosshat"],
)
def test_closed_forms_are_exact_to_rounding_near_contact_on_the_axis(g):
    # on the axis |r0|^2 - R^2 = (z - R)(z + R) takes no cancellation, so
    # the energy is within a few roundings of the referee from 1e-2 to
    # 1e-12 R, on both sides of the spheres' centre
    mpmath = pytest.importorskip("mpmath")
    v = DipoleVariances(0.5, 1.0, 2.0, VarianceFrame.CYLINDRICAL_LOCAL)
    z = g.radius * (1.0 + NEAR_GAPS)
    if g.kind is not GeometryKind.BOSS_HAT:
        v, z = DipoleVariances.isotropic(1.0), np.concatenate([z, -z])
    points = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
    for point, value in zip(points.tolist(), energy_closed(g, v, points).value.tolist()):
        ref = referee_energy(g, v, point)
        assert abs((mpmath.mpf(value) - ref) / ref) < 1e-15, point


@given(ratio=st.floats(1.01, 50.0), radius=st.floats(0.2, 5.0))
def test_isolated_below_zero_above_grounded(ratio, radius):
    z0 = ratio * radius
    ug = u_grounded_sphere(1.0, z0, radius).value
    ui = u_isolated_sphere(1.0, z0, radius).value
    assert ug < ui < 0.0


def test_sphere_approaches_plane():
    want = u_plane(ISO, 1.0).value
    got = u_grounded_sphere(1.0, 1.0 + 1e4, 1e4).value
    assert got == pytest.approx(want, rel=3e-4)


def test_isolated_point_limit_constant():
    # exact bracket series in t = R/a: 6 t^3 - 36 t^4 + O(t^5), so
    # U a^6 / R^3 -> -<d^2>/(4 pi eps0)
    radius = 1e-4
    u = u_isolated_sphere(1.0, 1.0 + radius, radius).value
    assert u / radius**3 == pytest.approx(-1.0, rel=1e-3)


def test_bosshat_on_axis_variants_agree():
    for z0 in (1.05, 1.3, 2.0, 5.0, 40.0):
        a = u_bosshat(ISO_CYL, 0.0, z0, 1.0).value
        b = u_bosshat_corrected(ISO_CYL, 0.0, z0, 1.0).value
        assert a == pytest.approx(b, rel=1e-12)


def test_bosshat_off_axis_variants_differ():
    a = u_bosshat(ISO_CYL, 0.7, 1.1, 1.0).value
    b = u_bosshat_corrected(ISO_CYL, 0.7, 1.1, 1.0).value
    assert abs(a / b - 1.0) > 1e-3


def test_bosshat_region_errors():
    with pytest.raises(RegionError):
        u_bosshat(ISO_CYL, 0.0, -1.0, 1.0)
    with pytest.raises(RegionError):
        u_bosshat(ISO_CYL, 0.5, 0.5, 1.0)
    with pytest.raises(RegionError):
        u_bosshat_corrected(ISO_CYL, 0.0, 0.0, 1.0)


def test_xi_factors_at_zero_radius_recover_plane():
    for factors in (xi_factors(0.0, 0.7, 1.3), xi_factors_corrected(0.0, 0.7, 1.3)):
        assert factors.xi_rho == pytest.approx(1.0, rel=1e-14)
        assert factors.xi_phi == pytest.approx(1.0, rel=1e-14)
        assert factors.xi_z == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        xi_factors_corrected(-1.0, 0.7, 1.3)


def test_xi_phi_on_axis_closed_form():
    radius, z0 = 1.0, 1.7
    want = 1.0 + 8.0 * radius**3 * z0**3 * (
        1.0 / (z0**2 - radius**2) ** 3 - 1.0 / (z0**2 + radius**2) ** 3
    )
    got = xi_factors(radius, 0.0, z0)
    assert got.xi_phi == pytest.approx(want, rel=1e-13)
    assert got.xi_rho == pytest.approx(want, rel=1e-13)


def test_bosshat_reduces_to_plane_at_small_radius():
    want = u_plane(ISO, 0.9).value
    got = u_bosshat(ISO_CYL, 0.4, 0.9, 1e-7).value
    assert got == pytest.approx(want, rel=1e-6)


def test_expansion_window_enforced():
    with pytest.raises(ExpansionWindowError):
        u_sphere_expansion3(1.0, 1.6, 1.0)     # s = 0.6 too wide
    with pytest.raises(ExpansionWindowError):
        u_bosshat_expansion3(1.0, 1.0, 1.0)    # s = 0 not inside
    u_sphere_expansion3(1.0, 1.3, 1.0)         # s = 0.3 is fine
    for radius in (0.0, -1.0):
        with pytest.raises(ValueError, match="radius must be positive"):
            u_sphere_expansion3(1.0, 1.3, radius)


@pytest.mark.parametrize("form", [u_sphere_expansion3, u_bosshat_expansion3])
@pytest.mark.parametrize("units", [UnitSystem.reduced(), UnitSystem.si()], ids=["reduced", "si"])
def test_expansion3_on_arrays_equals_its_float_calls_bit_for_bit(form, units):
    rng = np.random.default_rng(18)
    radius = 1.3
    s = np.concatenate([10.0 ** rng.uniform(-9.0, np.log10(0.5), 2000), [5e-324, 0.4999999999999999]])
    z0 = radius + s * radius
    z0 = z0[(z0 - radius) / radius > 0.0]
    batch = form(2.7, z0, radius, units)
    singles = [form(2.7, z, radius, units) for z in z0.tolist()]
    assert batch.value.tolist() == [r.value for r in singles]
    assert batch.err_estimate.tolist() == [r.err_estimate for r in singles]
    assert batch.method is Method.EXPANSION3
    for bad in (radius, 1.5 * radius, 0.5 * radius, math.nan):   # s = 0, 0.5, < 0, NaN
        for k in (0, 7, len(z0)):
            with pytest.raises(ExpansionWindowError):
                form(2.7, np.insert(z0, k, bad), radius, units)


@given(s=st.floats(1e-3, 0.4))
@settings(max_examples=60, deadline=None)
def test_expansion_remainder_is_quartic_small(s):
    exact = sphere_bracket(s)
    cubic = 1.0 - s + s * s + SPHERE_EXPANSION_C3 * s**3
    assert abs(exact - cubic) <= 5.0 * s**4
    exact_bh = bosshat_axis_bracket(s)
    cubic_bh = 1.0 - s + s * s + BOSSHAT_EXPANSION_C3 * s**3
    assert abs(exact_bh - cubic_bh) <= 5.0 * s**4


def test_fitted_cubic_coefficients_certify_series():
    coef_sphere = fit_expansion_coefficients(GeometryKind.GROUNDED_SPHERE)
    coef_bh = fit_expansion_coefficients(GeometryKind.BOSS_HAT)
    for coef in (coef_sphere, coef_bh):
        assert coef[0] == pytest.approx(1.0, abs=1e-6)
        assert coef[1] == pytest.approx(-1.0, abs=1e-6)
        assert coef[2] == pytest.approx(1.0, abs=1e-4)
    # the fit sees the gaps the brackets see, so rounding of z0 = 1 + s
    # no longer sets the error: about 4e-7 for the sphere, 1.3e-5 for the boss hat
    assert coef_sphere[3] == pytest.approx(SPHERE_EXPANSION_C3, abs=5e-5)
    assert coef_bh[3] == pytest.approx(BOSSHAT_EXPANSION_C3, abs=5e-5)
    # the two geometries split at cubic order by exactly 1/2
    assert coef_bh[3] - coef_sphere[3] == pytest.approx(0.5, abs=2e-3)
    with pytest.raises(ValueError):
        fit_expansion_coefficients(GeometryKind.PLANE)
    with pytest.raises(ValueError, match="0 < lo < hi"):
        fit_expansion_coefficients(GeometryKind.GROUNDED_SPHERE, window=(1e-2, 1e-4))


def test_si_reduced_consistency():
    si = UnitSystem.si()
    d2 = 2.5e-59
    z0 = 3e-9
    factor = reduced_to_si_factor(d2, z0)
    got = u_plane(DipoleVariances.isotropic(d2), z0, si).value
    assert got == pytest.approx(u_plane(ISO, 1.0).value * factor, rel=1e-12)
    got_sphere = u_grounded_sphere(d2, 2.0 * z0, z0, si).value
    assert got_sphere == pytest.approx(
        u_grounded_sphere(1.0, 2.0, 1.0).value * factor, rel=1e-12
    )


# --- energy_closed: a Position is a batch of one; the batch agrees with the numeric route


def _scalar_closed(g, v, point):
    """The documented scalar form of the geometry at one (x, y, z)."""
    x, y, z = point
    if g.kind is GeometryKind.PLANE:
        return u_plane(v, z)
    if g.kind is GeometryKind.BOSS_HAT:
        return u_bosshat_corrected(v, math.hypot(x, y), z, g.radius)
    form = u_grounded_sphere if g.kind is GeometryKind.GROUNDED_SPHERE else u_isolated_sphere
    return form(v.total, math.hypot(x, y, z), g.radius)


def _closed_variances(g, variances):
    """The grid's variances, made isotropic for the spheres."""
    if g.kind in (GeometryKind.GROUNDED_SPHERE, GeometryKind.ISOLATED_SPHERE):
        return DipoleVariances.isotropic(variances.total)
    return variances


def _random_points(g, n=2000, seed=11):
    """Points in the physical region, in every direction (negative
    rho0 included), at gaps from 1e-9 to 10 (in units of R, of 1 for
    the plane) with 50 at exactly 1e-9, and for the boss hat half of
    them above the plane near and at the rim."""
    rng = np.random.default_rng(seed)
    gaps = 10.0 ** rng.uniform(-9.0, 1.0, n)
    gaps[:50] = 1e-9
    if g.kind is GeometryKind.PLANE:
        return np.column_stack([rng.uniform(-5.0, 5.0, (n, 2)), gaps])
    unit = rng.normal(size=(n, 3))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    if g.kind is not GeometryKind.BOSS_HAT:
        return unit * (g.radius * (1.0 + gaps))[:, None]
    unit[:, 2] = np.abs(unit[:, 2])   # above the dome
    dome = unit * (g.radius * (1.0 + gaps))[:, None]
    rho = g.radius * (1.0 + 10.0 ** rng.uniform(-9.0, 1.0, n))
    phi = rng.uniform(-math.pi, math.pi, n)
    plane = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), gaps[::-1]])
    return np.where((np.arange(n) % 2 == 0)[:, None], dome, plane)


def _off_the_rim(g, points):
    """False within 1e-7 R of the boss-hat rim circle, where the closed
    radicand cancels to NaN; True elsewhere and on the other geometries."""
    if g.kind is not GeometryKind.BOSS_HAT:
        return np.ones(len(points), dtype=bool)
    return _rim_q(g, points) > 1e-14 * g.radius**2


def _rim_q(g, points):
    """Squared distance from each point to the boss-hat rim circle."""
    return (np.hypot(points[:, 0], points[:, 1]) - g.radius) ** 2 + points[:, 2] ** 2


def _assert_closed_agrees_with_numeric(g, v, points, value):
    """Off the rim, the closed energies are finite where the numeric ones
    are, and within the numeric err of them where that is finite.  Beside
    the boss-hat rim the closed radicand cancels: the closed error grows
    as eps |U| R^2/q, q the squared distance from the rim circle."""
    with np.errstate(over="ignore", invalid="ignore"):
        numeric = energy_numeric(g, v, points)
        slack = 0.0
        if g.kind is GeometryKind.BOSS_HAT:
            slack = np.finfo(float).eps * np.abs(value) * g.radius**2 / _rim_q(g, points)
        near = np.abs(value - numeric.value) <= numeric.err_estimate + slack
    keep = _off_the_rim(g, points)
    assert (np.isfinite(value) == np.isfinite(numeric.value))[keep].all()
    assert np.isfinite(value).sum() >= 100
    assert near[keep & np.isfinite(numeric.err_estimate)].all()


def test_energy_closed_batch_is_bit_equal_to_the_scalar_forms(region_grid):
    # A Position is a batch of one: its float energy has the bits of its
    # element in the batch, in both variance frames.
    g, variances, grid = region_grid
    points = np.concatenate([grid, _random_points(g)])
    for frame in VarianceFrame:
        v = _closed_variances(g, DipoleVariances(variances.m1, variances.m2, variances.m3, frame))
        with np.errstate(divide="ignore", invalid="ignore"):
            batch = energy_closed(g, v, points)
            singles = [energy_closed(g, v, Position(*point)) for point in points.tolist()]
        assert batch.value.shape == batch.err_estimate.shape == (len(points),)
        assert batch.method is Method.CLOSED_FORM
        assert not batch.err_estimate.any()
        for single, value in zip(singles, batch.value.tolist()):
            assert type(single.value) is float and type(single.err_estimate) is float
            assert single.value.hex() == value.hex()
        assert np.isfinite(batch.value[_off_the_rim(g, points)]).all()
        _assert_closed_agrees_with_numeric(g, v, points, batch.value)


@pytest.mark.parametrize("scale", [1.0, 3e10, 8e307])
def test_energy_closed_keeps_its_bits_where_the_variance_sum_is_finite(region_grid, scale):
    # The energy is linear in the variances: at variances 2**40 times
    # smaller it is 2**-40 times the energy bit for bit, both scalings
    # exact, also at 8e307, where the sum of the variances overflows.
    g, variances, grid = region_grid
    v = _closed_variances(g, variances)
    v = DipoleVariances(v.m1 * scale, v.m2 * scale, v.m3 * scale, v.frame)
    smaller = DipoleVariances(v.m1 / 2.0**40, v.m2 / 2.0**40, v.m3 / 2.0**40, v.frame)
    points = np.concatenate([grid, _random_points(g)])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = energy_closed(g, v, points).value
        rescaled = energy_closed(g, smaller, points).value * 2.0**40
    assert value.tobytes() == rescaled.tobytes()
    if scale == 8e307:
        assert math.isinf(v.m1 + v.m2 + v.m3)
    _assert_closed_agrees_with_numeric(g, v, points, value)


def _outcome(energy):
    """The bits of energy() where invalid operations raise, or the error."""
    try:
        with np.errstate(invalid="raise"):
            return float(energy()).hex()
    except FloatingPointError as exc:
        return str(exc)


@pytest.mark.parametrize("frame", list(VarianceFrame), ids=["cartesian", "cylindrical"])
def test_position_and_batch_fail_alike_at_the_rim(frame):
    # 1e-12 R beside the rim the radicand cancels, often below 0: a
    # Position gives what a batch holding its point gives, the same NaN,
    # or the same FloatingPointError where invalid operations raise.
    g = GeometryConfig.boss_hat(1.3)
    v = DipoleVariances(0.5, 1.0, 2.0, frame)
    nan_seen = False
    for seed in range(5):
        point = rim_points(g.radius, np.random.default_rng(seed), np.array([1e-12]))[0]
        batch = np.array([(0.7, 0.0, 1.1), point, (2.0, 0.0, 0.3)])
        with np.errstate(invalid="ignore"):
            single = energy_closed(g, v, Position(*point)).value
            value = energy_closed(g, v, batch).value[1]
        assert type(single) is float and single.hex() == value.hex()
        nan_seen |= math.isnan(single)
        assert _outcome(lambda: energy_closed(g, v, Position(*point)).value) == _outcome(
            lambda: energy_closed(g, v, batch).value[1])
    assert nan_seen


@pytest.mark.parametrize("frame", list(VarianceFrame), ids=["cartesian", "cylindrical"])
def test_energy_closed_bosshat_reads_the_variance_frame(frame):
    # The boss-hat form reads (rho, phi, z) variances; Cartesian ones
    # are rotated to the azimuth of each point.  Unrotated, the first
    # point gave -1.5267 against the routes' -1.7815.
    g = GeometryConfig.boss_hat(1.0)
    v = DipoleVariances(0.3, 1.1, 0.6, frame)
    rng = np.random.default_rng(31)
    rho, z, phi = rng.uniform(0.0, 2.5, 80), rng.uniform(0.2, 2.0, 80), rng.uniform(-3.2, 3.2, 80)
    beside = np.hypot(rho, z) > 1.1
    points = np.concatenate([
        [(0.0, 1.5, 0.5), (0.0, 0.0, 1.5), (-1.5, 0.0, 0.5)],
        np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])[beside],
    ])
    closed = energy_closed(g, v, points).value
    oracle = extrapolated_energy(g, v, points).value
    np.testing.assert_allclose(closed, oracle, rtol=1e-7, atol=0.0)
    for point, value in zip(points.tolist(), closed.tolist()):
        single = energy_closed(g, v, Position(*point)).value
        assert type(single) is float and single == value
    if frame is VarianceFrame.CARTESIAN:
        assert closed[0] == pytest.approx(-1.7815215924, rel=1e-9)


def _outside_points(g):
    """Points on or inside the conductor, each with the error its scalar
    form raises."""
    if g.kind is GeometryKind.PLANE:
        return [(0.3, 0.0, 0.0), (0.0, 0.0, -0.0)]
    radius = g.radius
    inside = [(0.0, 0.0, radius), (radius, 0.0, 0.0), (0.1, 0.2, 0.3 * radius)]
    if g.kind is not GeometryKind.BOSS_HAT:
        return inside
    above_plane = [(2.0 * radius, 0.0, 0.0), (-3.0, 1.0, -1e-9), (0.0, 0.6 * radius, 0.8 * radius)]
    return inside + above_plane


def test_energy_closed_batch_raises_where_the_scalar_form_raises(region_grid):
    g, variances, grid = region_grid
    v = _closed_variances(g, variances)
    for k, bad in enumerate(_outside_points(g)):
        with pytest.raises((ContactError, RegionError)) as scalar:
            _scalar_closed(g, v, bad)
        with pytest.raises(scalar.type):
            energy_closed(g, v, Position(*bad))
        points = np.insert(grid, k % (len(grid) + 1), bad, axis=0)
        with pytest.raises(scalar.type):
            energy_closed(g, v, points)


@pytest.mark.parametrize(
    "g", [GeometryConfig.grounded_sphere(1.0), GeometryConfig.isolated_sphere(1.0)]
)
def test_energy_closed_sphere_wants_isotropic_variances(g):
    v = DipoleVariances(0.5, 1.0, 2.0)
    with pytest.raises(ValueError, match="isotropic"):
        energy_closed(g, v, Position(0.0, 0.0, 2.0))
    with pytest.raises(ValueError, match="isotropic"):
        energy_closed(g, v, np.array([[0.0, 0.0, 2.0], [0.0, 1.5, 1.5]]))


@pytest.mark.parametrize(
    "g,far",
    [
        (GeometryConfig.plane(), (0.0, 0.0, 1e120)),
        (GeometryConfig.grounded_sphere(1.0), (0.0, 3e59, 4e59)),
        (GeometryConfig.isolated_sphere(1.0), (0.0, 0.0, 1e60)),
        (GeometryConfig.boss_hat(1.0), (-1e120, 0.0, 1.0)),
    ],
    ids=["plane", "gsphere", "isphere", "bosshat"],
)
def test_energy_closed_names_the_first_point_out_of_float_range(g, far):
    # Far out, where a power of the lengths leaves the float range: the scalar
    # form, the Position and the batch are finite and within the numeric err.
    v = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL
                                  if g.kind is GeometryKind.BOSS_HAT else VarianceFrame.CARTESIAN)
    scalar = _scalar_closed(g, v, far).value
    single = energy_closed(g, v, Position(*far)).value
    points = np.array([(0.3, 0.0, 2.0), far, (0.0, 0.0, 3.0), far])
    batch = energy_closed(g, v, points).value
    assert math.isfinite(scalar) and math.isfinite(single) and np.isfinite(batch).all()
    assert batch[1].hex() == batch[3].hex() == single.hex()
    if g.kind is GeometryKind.BOSS_HAT:
        # 1e120 R off the axis the numeric route finds the point degenerate with
        # an image; the boss changes the plane's energy there far below rounding
        assert single == u_plane(v, far[2]).value
        points, batch = points[::2], batch[::2]
    numeric = energy_numeric(g, v, points)
    assert (np.abs(batch - numeric.value) <= numeric.err_estimate + np.finfo(float).tiny).all()


def _points_around(radius, n=2000, seed=24):
    """Points in every direction above the plane, at gaps 10^U(-6, 1) R from a sphere of the radius."""
    rng = np.random.default_rng(seed)
    unit = rng.normal(size=(n, 3))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    unit[:, 2] = np.abs(unit[:, 2])
    return unit * (radius * (1.0 + 10.0 ** rng.uniform(-6.0, 1.0, n)))[:, None]


@pytest.mark.parametrize("frame", list(VarianceFrame))
@pytest.mark.parametrize(
    "geometry", [GeometryConfig.grounded_sphere, GeometryConfig.isolated_sphere,
                 GeometryConfig.boss_hat],
    ids=["gsphere", "isphere", "bosshat"],
)
def test_energy_closed_scales_as_the_cube_of_a_power_of_two_bit_for_bit(geometry, frame):
    # The energy has degree -3 in the lengths: at every length times 2^k
    # it is 2^(-3k) times the energy, bit for bit, far beyond the lengths
    # whose powers leave the float range.
    radius, points = 1.3, _points_around(1.3)
    if geometry is GeometryConfig.boss_hat:
        v = DipoleVariances(0.5, 1.0, 2.0, frame)
    else:
        v = DipoleVariances.isotropic(3.5, frame)
    want = energy_closed(geometry(radius), v, points).value
    assert np.isfinite(want).all()
    for k in (-300, -100, 100, 300):
        scaled = energy_closed(geometry(math.ldexp(radius, k)), v, np.ldexp(points, k)).value
        assert np.ldexp(scaled, 3 * k).tobytes() == want.tobytes(), k


_FAR_GEOMETRIES = {
    "plane": lambda radius: GeometryConfig.plane(),
    "gsphere": GeometryConfig.grounded_sphere,
    "isphere": GeometryConfig.isolated_sphere,
    "bosshat": GeometryConfig.boss_hat,
}


@pytest.mark.parametrize("geometry", list(_FAR_GEOMETRIES))
def test_energy_closed_agrees_with_numeric_at_every_scale(geometry):
    # At z0 = R(1 + s), rho0 = 0 or 0.7 R (the plane's lengths alike),
    # up to R = 1e300: wherever the numeric route gives an energy, the
    # closed route gives one within its err and raises no floating-point error.
    # From R = 1e200, where |r0|^2 overflows in the numeric route, the
    # numeric energy and err are taken at the lengths times 2^-k, times 2^-3k.
    v = (DipoleVariances.isotropic(1.0) if geometry in ("gsphere", "isphere")
         else DipoleVariances(0.5, 1.0, 2.0, VarianceFrame.CYLINDRICAL_LOCAL
                              if geometry == "bosshat" else VarianceFrame.CARTESIAN))
    compared = 0
    for radius in (1.0, 1e30, 1e90, 1e150, 1e200, 1e300):
        g = _FAR_GEOMETRIES[geometry](radius)
        k = math.frexp(radius)[1] if radius > 1e154 else 0
        for s in (1e-3, 1.0, 1e3):
            for rho0 in (0.0, 0.7 * radius):
                r0 = Position(rho0, 0.0, radius * (1.0 + s))
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    try:
                        numeric = energy_numeric(
                            _FAR_GEOMETRIES[geometry](math.ldexp(radius, -k)), v,
                            Position(*(math.ldexp(c, -k) for c in (rho0, 0.0, r0.z))))
                    except ArithmeticError:
                        continue
                    closed = energy_closed(g, v, r0).value
                want, err = (math.ldexp(x, -3 * k) for x in (numeric.value, numeric.err_estimate))
                assert abs(closed - want) <= err + np.finfo(float).tiny, (radius, s, rho0, closed, want)
                compared += 1
    assert compared == 36


@pytest.mark.parametrize("geometry", ["gsphere", "isphere", "bosshat"])
def test_energy_closed_region_is_the_same_at_every_scale(geometry):
    # On the axis at R/2 the atom is inside the conductor and at 2R outside,
    # also where |r0|^2 overflows (R = 1e200, 1e300) or underflows (R = 1e-200).
    v = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL
                                  if geometry == "bosshat" else VarianceFrame.CARTESIAN)
    for radius in (1e-200, 1.0, 1e150, 1e200, 1e300):
        g = _FAR_GEOMETRIES[geometry](radius)
        inside, outside = (0.0, 0.0, 0.5 * radius), (0.0, 0.0, 2.0 * radius)
        for r0 in (Position(*inside), np.array([outside, inside])):
            with pytest.raises(ContactError if geometry != "bosshat" else RegionError):
                energy_closed(g, v, r0)
        with np.errstate(divide="ignore"):   # the boss hat's z0^3 underflows at R = 1e-200
            energy = energy_closed(g, v, Position(*outside)).value
        assert math.copysign(1.0, energy) == -1.0, (radius, energy)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_float_power_is_pythons_power_bit_for_bit(n):
    # The scan's normalisation and the sphere kernel's R^3 give a batch
    # its scalar bits through np.float_power: this holds while numpy
    # calls the C pow that Python's ** calls, not a vectorised loop of its own.
    rng = np.random.default_rng(n)
    edge = 1.7976931348623157e308 ** (1.0 / n)   # ** overflows from about here
    x = np.concatenate([
        np.exp(rng.uniform(math.log(1e-320), math.log(1.7e308), 200_000)),
        edge * (1.0 + np.arange(-64, 65) * np.finfo(float).eps),
    ])
    want, raised = [], []
    for base in x.tolist():
        try:
            want.append(base**n)
            raised.append(False)
        except OverflowError:   # where ** raises, float_power gives inf
            want.append(math.inf)
            raised.append(True)
    raised = np.array(raised)
    assert raised.any() and not raised.all()
    with np.errstate(over="ignore"):
        got = np.float_power(x, n)
    differ = np.flatnonzero(got.view(np.int64) != np.array(want).view(np.int64))
    assert not differ.size, [(x[i].hex(), got[i].hex(), want[i].hex()) for i in differ[:5]]
