import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vdwsurf.pairs import (
    h_dipole_dipole,
    u_london,
    u_orientation,
    u_retarded_cp,
    u_wang,
)
from vdwsurf.units import UnitSystem

SI = UnitSystem.si()
RED = UnitSystem.reduced()

rs = st.floats(1e-9, 1e-7)


@given(r=rs, scale=st.floats(1.5, 3.0))
def test_inverse_sixth_power_laws(r, scale):
    for fn in (
        lambda x: u_orientation(1e-30, 2e-30, 300.0, x, SI),
        lambda x: u_london(1e-40, 1e16, x, SI),
        lambda x: u_wang(x, SI),
    ):
        ratio = fn(r) / fn(r * scale)
        assert ratio == pytest.approx(scale**6, rel=1e-12)


@given(r=rs, scale=st.floats(1.5, 3.0))
def test_retarded_inverse_seventh_power_law(r, scale):
    ratio = u_retarded_cp(1e-40, 2e-40, r, SI) / u_retarded_cp(1e-40, 2e-40, r * scale, SI)
    assert ratio == pytest.approx(scale**7, rel=1e-12)


def test_orientation_prefactor():
    # reduced units: -2 p1^2 p2^2 / (3 kB T r^6); T high enough to be
    # inside the orientation-average regime
    got = u_orientation(1.0, 2.0, 100.0, 1.0, RED)
    assert got == pytest.approx(-2.0 * 1.0 * 4.0 / (3.0 * 100.0), rel=1e-14)


def test_orientation_warns_outside_high_temperature_regime():
    with pytest.warns(RuntimeWarning):
        u_orientation(1.0, 1.0, 1e-6, 1.0, RED)


def test_orientation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        u_orientation(1.0, 1.0, 300.0, 0.0, SI)
    with pytest.raises(ValueError):
        u_orientation(1.0, 1.0, 0.0, 1e-9, SI)


def test_london_prefactor():
    got = u_london(2.0, 3.0, 1.0, RED)
    assert got == pytest.approx(-0.75 * 3.0 * 4.0, rel=1e-14)
    with pytest.raises(ValueError):
        u_london(2.0, 3.0, 0.0, RED)


def test_wang_uses_electron_charge_and_bohr_radius():
    got = u_wang(1.0, RED)
    assert got == pytest.approx(-8.7, rel=1e-14)
    r = 2e-10
    want = -8.7 * SI.elementary_charge**2 * SI.bohr_radius**2 / (
        SI.four_pi_epsilon0**2 * r**6
    )
    assert u_wang(r, SI) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        u_wang(0.0, SI)


def test_retarded_prefactor():
    got = u_retarded_cp(1.0, 1.0, 1.0, RED)
    assert got == pytest.approx(-23.0 / (4.0 * math.pi), rel=1e-14)
    with pytest.raises(ValueError):
        u_retarded_cp(1.0, 1.0, 0.0, RED)


def test_dipole_dipole_special_cases():
    # collinear along the separation axis: -2 p1 p2 / r^3
    got = h_dipole_dipole((0, 0, 1.0), (0, 0, 1.0), (0, 0, 2.0), RED)
    assert got == pytest.approx(-2.0 / 8.0, rel=1e-14)
    # parallel, perpendicular to the separation: +p1 p2 / r^3
    got = h_dipole_dipole((1.0, 0, 0), (1.0, 0, 0), (0, 0, 2.0), RED)
    assert got == pytest.approx(1.0 / 8.0, rel=1e-14)
    # crossed orthogonal dipoles: zero
    got = h_dipole_dipole((1.0, 0, 0), (0, 1.0, 0), (0, 0, 2.0), RED)
    assert got == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        h_dipole_dipole((1, 0, 0), (1, 0, 0), (0, 0, 0), RED)
