"""Unit conventions for atom-surface dispersion energies.

Two modes are supported:

  SI       lengths in m, dipole variances in C^2 m^2, energies in J
  REDUCED  4*pi*eps0 = 1 and hbar = k_B = e = a_0 = c = 1; lengths and
           dipole variances are dimensionless

An energy computed in reduced mode maps to SI through the single factor
<d^2> / (4*pi*eps0*L^3), where L is the reference length and <d^2> the
total dipole variance of the SI scenario; see reduced_to_si_factor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

# CODATA 2018 values, fixed so results are reproducible bit for bit.
EPSILON_0_SI = 8.8541878128e-12        # F/m
HBAR_SI = 1.054571817e-34              # J s
BOLTZMANN_SI = 1.380649e-23            # J/K
ELEMENTARY_CHARGE_SI = 1.602176634e-19  # C
BOHR_RADIUS_SI = 5.29177210903e-11     # m
SPEED_OF_LIGHT_SI = 299792458.0        # m/s


class Mode(enum.Enum):
    SI = "si"
    REDUCED = "reduced"


@dataclass(frozen=True)
class UnitSystem:
    """Bundle of physical constants consistent with one mode."""

    mode: Mode = Mode.REDUCED

    @property
    def four_pi_epsilon0(self) -> float:
        # Exactly 1.0 in reduced mode; energy formulas are written in
        # terms of this combination so reduced results stay exact.
        if self.mode is Mode.SI:
            return 4.0 * math.pi * EPSILON_0_SI
        return 1.0

    @property
    def hbar(self) -> float:
        return HBAR_SI if self.mode is Mode.SI else 1.0

    @property
    def boltzmann(self) -> float:
        return BOLTZMANN_SI if self.mode is Mode.SI else 1.0

    @property
    def elementary_charge(self) -> float:
        return ELEMENTARY_CHARGE_SI if self.mode is Mode.SI else 1.0

    @property
    def bohr_radius(self) -> float:
        return BOHR_RADIUS_SI if self.mode is Mode.SI else 1.0

    @property
    def speed_of_light(self) -> float:
        return SPEED_OF_LIGHT_SI if self.mode is Mode.SI else 1.0

    @classmethod
    def si(cls) -> "UnitSystem":
        return cls(Mode.SI)

    @classmethod
    def reduced(cls) -> "UnitSystem":
        return cls(Mode.REDUCED)


def reduced_to_si_factor(d2_si: float, length_si: float) -> float:
    """Conversion factor <d^2>/(4*pi*eps0*L^3) in joules.

    A reduced-mode energy computed with unit total variance and lengths
    measured in units of length_si equals the corresponding SI energy
    divided by this factor.
    """
    if length_si <= 0.0:
        raise ValueError("length_si must be positive")
    return d2_si / (4.0 * math.pi * EPSILON_0_SI * length_si**3)
