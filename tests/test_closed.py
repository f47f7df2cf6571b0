import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwsurf.errors import ContactError, ExpansionWindowError, RegionError
from vdwsurf._errata import u_bosshat, xi_factors
from vdwsurf.closed import (
    BOSSHAT_EXPANSION_C3,
    SPHERE_EXPANSION_C3,
    bosshat_axis_bracket,
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
from vdwsurf.geometry import DipoleVariances, GeometryKind, VarianceFrame
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
