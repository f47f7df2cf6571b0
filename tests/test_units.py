import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vdwsurf.units import Mode, UnitSystem, reduced_to_si_factor


def test_reduced_combination_is_exactly_one():
    u = UnitSystem.reduced()
    assert u.four_pi_epsilon0 == 1.0
    assert u.hbar == 1.0
    assert u.boltzmann == 1.0
    assert u.elementary_charge == 1.0
    assert u.bohr_radius == 1.0
    assert u.speed_of_light == 1.0


def test_si_constants():
    u = UnitSystem.si()
    assert u.four_pi_epsilon0 == pytest.approx(4.0 * math.pi * 8.8541878128e-12, rel=1e-15)
    assert u.hbar == pytest.approx(1.054571817e-34, rel=1e-12)
    assert u.boltzmann == 1.380649e-23
    assert u.elementary_charge == 1.602176634e-19
    assert u.speed_of_light == 299792458.0


def test_mode_round_trip():
    assert UnitSystem(Mode.SI).mode is Mode.SI
    assert UnitSystem(Mode("reduced")).mode is Mode.REDUCED


@given(
    d2=st.floats(1e-62, 1e-55),
    length=st.floats(1e-10, 1e-7),
)
def test_reduced_to_si_factor_scales_cubically(d2, length):
    u = UnitSystem.si()
    f1 = reduced_to_si_factor(d2, length)
    f2 = reduced_to_si_factor(d2, 2.0 * length)
    assert f1 / f2 == pytest.approx(8.0, rel=1e-12)
    assert f1 == pytest.approx(d2 / (u.four_pi_epsilon0 * length**3), rel=1e-12)


def test_reduced_to_si_factor_rejects_bad_length():
    with pytest.raises(ValueError):
        reduced_to_si_factor(1e-60, 0.0)
    with pytest.raises(ValueError):
        reduced_to_si_factor(1e-60, -1.0)
