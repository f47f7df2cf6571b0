"""Classic two-body potentials: thermal orientation average, empirical
noble-gas fit, London dispersion, the retarded long-range form, and the
static dipole-dipole coupling.

These are documentation-grade sanity formulas, exact power laws.  No
route or validation suite uses them; acceptance criterion 09 and
tests/test_pairs.py check them.  In reduced mode all constants (hbar,
k_B, e, a_0, c) collapse to 1 along with 4*pi*eps0.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

from .units import UnitSystem

_REDUCED = UnitSystem.reduced()

# Dimensionless prefactor of the empirical noble-gas r^-6 fit.
WANG_COEFFICIENT = 8.7

# Safety margin demanded of the high-temperature validity condition
# k_B T >> p1 p2 / (4*pi*eps0 r^3) before u_orientation stays silent.
_ORIENTATION_REGIME_MARGIN = 10.0


def u_orientation(
    p1: float,
    p2: float,
    temperature: float,
    r: float,
    units: UnitSystem = _REDUCED,
) -> float:
    """Thermally averaged polar-pair energy -2 p1^2 p2^2/(3 k_B T (4*pi*eps0)^2 r^6).

    Warns (non-fatally) when the high-temperature validity condition
    k_B T >> p1 p2/(4*pi*eps0 r^3) is not comfortably met.
    """
    if r <= 0.0:
        raise ValueError("separation r must be positive")
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    fpe = units.four_pi_epsilon0
    thermal = units.boltzmann * temperature
    if thermal < _ORIENTATION_REGIME_MARGIN * p1 * p2 / (fpe * r**3):
        warnings.warn(
            "orientation average evaluated outside its high-temperature regime",
            RuntimeWarning,
            stacklevel=2,
        )
    return -2.0 * p1**2 * p2**2 / (3.0 * thermal * fpe**2 * r**6)


def u_london(
    alpha0: float, omega0: float, r: float, units: UnitSystem = _REDUCED
) -> float:
    """London dispersion energy -(3/4) hbar omega0 alpha0^2/((4*pi*eps0)^2 r^6)."""
    if r <= 0.0:
        raise ValueError("separation r must be positive")
    fpe = units.four_pi_epsilon0
    return -0.75 * units.hbar * omega0 * alpha0**2 / (fpe**2 * r**6)


def u_wang(r: float, units: UnitSystem = _REDUCED) -> float:
    """Empirical noble-gas attraction -8.7 e^2 a_0^2/((4*pi*eps0)^2 r^6)."""
    if r <= 0.0:
        raise ValueError("separation r must be positive")
    fpe = units.four_pi_epsilon0
    e = units.elementary_charge
    a0 = units.bohr_radius
    return -WANG_COEFFICIENT * e**2 * a0**2 / (fpe**2 * r**6)


def u_retarded_cp(
    alpha1: float, alpha2: float, r: float, units: UnitSystem = _REDUCED
) -> float:
    """Retarded long-range pair energy -23 hbar c alpha1 alpha2/(4*pi (4*pi*eps0)^2 r^7).

    The r >> transition-wavelength regime is documented, not enforced.
    """
    if r <= 0.0:
        raise ValueError("separation r must be positive")
    fpe = units.four_pi_epsilon0
    return (
        -23.0
        * units.hbar
        * units.speed_of_light
        * alpha1
        * alpha2
        / (4.0 * math.pi * fpe**2 * r**7)
    )


def h_dipole_dipole(
    p1_vec: Sequence[float],
    p2_vec: Sequence[float],
    r_vec: Sequence[float],
    units: UnitSystem = _REDUCED,
) -> float:
    """Static dipole-dipole coupling [p1.p2 - 3 (p1.rhat)(p2.rhat)]/(4*pi*eps0 r^3).

    >>> h_dipole_dipole((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 2.0))
    -0.25
    """
    rx, ry, rz = (float(c) for c in r_vec)
    rr = math.sqrt(rx * rx + ry * ry + rz * rz)
    if rr == 0.0:
        raise ValueError("zero separation between dipoles")
    ax, ay, az = (float(c) for c in p1_vec)
    bx, by, bz = (float(c) for c in p2_vec)
    dot = ax * bx + ay * by + az * bz
    p1r = (ax * rx + ay * ry + az * rz) / rr
    p2r = (bx * rx + by * ry + bz * rz) / rr
    return (dot - 3.0 * p1r * p2r) / (units.four_pi_epsilon0 * rr**3)
