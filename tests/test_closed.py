import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwsurf.errors import ContactError, ExpansionWindowError, RegionError
from vdwsurf._errata import u_bosshat, xi_factors
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

ISO = DipoleVariances.isotropic(1.0)
ISO_CYL = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL)


def test_plane_examples():
    assert u_plane(DipoleVariances(0, 0, 1), 1.0).value == pytest.approx(-0.125)
    assert u_plane(ISO, 1.0).value == pytest.approx(-1.0 / 12.0)
    with pytest.raises(ContactError):
        u_plane(ISO, 0.0)


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


@given(gap=st.floats(0.05, 5.0), radius=st.floats(0.1, 10.0))
def test_grounded_sphere_alpha_form_matches_variance_form(gap, radius):
    # <d^2> = (3/2) hbar omega alpha with alpha = hbar = omega = 1
    a = gap * radius
    direct = u_grounded_sphere(1.5, radius + a, radius).value
    via_alpha = u_grounded_sphere_alpha(1.0, 1.0, a, radius).value
    assert direct == pytest.approx(via_alpha, rel=1e-12)


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
    assert coef_sphere[3] == pytest.approx(SPHERE_EXPANSION_C3, abs=1e-3)
    assert coef_bh[3] == pytest.approx(BOSSHAT_EXPANSION_C3, abs=1e-3)
    # the two geometries split at cubic order by exactly 1/2
    assert coef_bh[3] - coef_sphere[3] == pytest.approx(0.5, abs=2e-3)
    with pytest.raises(ValueError):
        fit_expansion_coefficients(GeometryKind.PLANE)


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


# --- energy_closed: the batch equals the scalar forms bit for bit


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
        side = rng.choice([-1.0, 1.0], n)
        return np.column_stack([rng.uniform(-5.0, 5.0, (n, 2)), side * gaps])
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


def test_energy_closed_batch_is_bit_equal_to_the_scalar_forms(region_grid):
    g, variances, grid = region_grid
    v = _closed_variances(g, variances)
    points = np.concatenate([grid, _random_points(g)])
    with np.errstate(divide="ignore", invalid="ignore"):
        batch = energy_closed(g, v, points)
    assert batch.value.shape == batch.err_estimate.shape == (len(points),)
    assert batch.method is Method.CLOSED_FORM
    assert not batch.err_estimate.any()
    failing = 0
    for point, value in zip(points.tolist(), batch.value.tolist()):
        try:
            want = _scalar_closed(g, v, point).value
        except ArithmeticError as exc:
            # the boss-hat rim at gaps near 1e-8, where the radicand a
            # cancels to 0: the batch fails too where numpy raises, as
            # in the CLI
            failing += 1
            with pytest.raises(type(exc)):
                energy_closed(g, v, Position(*point))
            with np.errstate(divide="raise", invalid="raise"), pytest.raises(ArithmeticError):
                energy_closed(g, v, np.array([point]))
            continue
        single = energy_closed(g, v, Position(*point))
        assert type(single.value) is float and type(single.err_estimate) is float
        assert value.hex() == want.hex() == single.value.hex(), point
    assert failing <= (30 if g.kind is GeometryKind.BOSS_HAT else 0)


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
    v = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL
                                  if g.kind is GeometryKind.BOSS_HAT else VarianceFrame.CARTESIAN)
    with pytest.raises(OverflowError):
        _scalar_closed(g, v, far)   # the documented scalar forms, unnamed
    named = f"({far[0]!r}, {far[1]!r}, {far[2]!r})"
    with pytest.raises(OverflowError, match=re.escape(named)) as single:
        energy_closed(g, v, Position(*far))
    assert "out of float range" in str(single.value)
    points = np.array([(0.3, 0.0, 2.0), far, (0.0, 0.0, 3.0), far])
    with pytest.raises(OverflowError, match=re.escape(named)):
        energy_closed(g, v, points)
