"""The transcribed boss-hat forms, kept for provenance only.

The hemisphere-on-plane ("boss hat") angular factors were first taken
verbatim from the published expressions.  Off the symmetry axis the
transcribed rho and z factors disagree with the image construction:
the numeric evaluator and the finite-dipole oracle both side with
vdwsurf.closed.xi_factors_corrected, which the package uses.  On the
axis the two forms agree to rounding.  This module keeps the
transcription, and the cylindrical radical form of the boss-hat G_H
that cross-checks the Cartesian image distances, so that the tests and
scripts/certify_transcription.py can demonstrate the discrepancy.  No
computation of the package calls it: vdwsurf.validate imports u_bosshat
only so that the benchmark's tracer finds the name it wraps there.
"""

from __future__ import annotations

import math

from .closed import _REDUCED, BossHatXi, _check_bosshat_region, _xi_kernel
from .geometry import DipoleVariances, EnergyResult, Method, Position
from .images import FOUR_PI
from .units import UnitSystem


def xi_factors(radius: float, rho0: float, z0: float) -> BossHatXi:
    """Boss-hat angular factors, transcribed reference form.

    Known defects certified against the image construction (see
    xi_factors_corrected): the rho-factor numerator carries a wrong
    sign on its R^4*rho0^2 term and the zeta polynomial is wrong off
    the axis.  On the axis (rho0 = 0) all three factors are exact, and
    at R = 0 they reduce to the plane values (1, 1, 2) exactly.
    """
    _check_bosshat_region(radius, rho0, z0)
    r2 = radius * radius
    p2 = rho0 * rho0
    z2 = z0 * z0
    a = (p2 + z2 + r2) ** 2 - 4.0 * r2 * p2
    a32 = a * math.sqrt(a)
    a52 = a * a * math.sqrt(a)
    d3 = (p2 + z2 - r2) ** 3
    w = 8.0 * radius * z0**3

    num_rho = ((r2 + z2) ** 2 + (r2 - p2 - 8.0 * z2) * p2) * r2 + (z2 + p2) ** 2 * p2
    xi_rho = 1.0 - w * (num_rho / a52 - (p2 + r2) / d3)

    xi_phi = 1.0 + w * r2 * (1.0 / d3 - 1.0 / a32)

    # auxiliary polynomial inside xi_z (dimension length^12)
    zeta = (
        -r2
        * p2
        * (
            -10.0 * p2**2 * z2**2
            - 10.0 * p2**2 * r2 * z2
            - 10.0 * r2**2 * p2**2
            + 8.0 * p2 * r2**2 * z2
            - z2**4
            + 2.0 * p2**3 * z2
            + 8.0 * p2 * z2**3
            - 36.0 * p2 * r2 * z2**2
            + 10.0 * p2 * r2**3
        )
        - (r2**2 - z2**2) ** 2 * (r2 - z2) ** 2
        - 5.0 * p2 * z2**2 * (z2 + p2) * ((z2 + p2) ** 2 - p2 * z2)
    )
    xi_z = 2.0 + (w / d3) * (r2 + z2 + zeta / a52)
    return BossHatXi(xi_rho, xi_phi, xi_z)


def u_bosshat(
    variances: DipoleVariances,
    rho0: float,
    z0: float,
    radius: float,
    units: UnitSystem = _REDUCED,
) -> EnergyResult:
    """Boss-hat dispersion energy using the transcribed angular factors.

    U = -(1/64*pi*eps0*z0^3) * [<d_rho^2> Xi_rho + <d_phi^2> Xi_phi
                                + <d_z^2> Xi_z]

    Variance components are read in the local cylindrical frame
    (rho, phi, z).  Off the symmetry axis the transcribed factors are
    known to be wrong; use u_bosshat_corrected for accurate values
    (identical on the axis).
    """
    xi = xi_factors(radius, rho0, z0)
    value = variances.contract(_xi_kernel(xi, z0, units))
    return EnergyResult(value, 0.0, Method.CLOSED_FORM, units.mode)


def bosshat_radicals(
    radius: float, r: Position, r_prime: Position
) -> tuple[float, float, float]:
    """Cylindrical-form distances (xi, xi_minus, xi_plus) for the boss hat.

    xi        distance from r to the plane image of r'
    xi_minus  |r'|^2 times the distance from r to the sphere image of r'
    xi_plus   |r'|^2 times the distance from r to the mirrored sphere image

    These closed radicals are an independent evaluation path used to
    cross-check the Cartesian image distances.
    """
    rho, phi, z = r.rho, r.phi, r.z
    rhop, phip, zp = r_prime.rho, r_prime.phi, r_prime.z
    s2 = rhop * rhop + zp * zp
    c = math.cos(phip - phi)
    r2 = radius * radius
    cross = 2.0 * rhop * rho * c
    xi = math.sqrt(rhop * rhop + rho * rho + (zp + z) ** 2 - cross)
    xi_minus = math.sqrt(
        r2 * r2 * rhop * rhop + s2 * s2 * rho * rho + (s2 * z - r2 * zp) ** 2 - r2 * s2 * cross
    )
    xi_plus = math.sqrt(
        r2 * r2 * rhop * rhop + s2 * s2 * rho * rho + (s2 * z + r2 * zp) ** 2 - r2 * s2 * cross
    )
    return xi, xi_minus, xi_plus


def g_h_bosshat_cylindrical(radius: float, r: Position, r_prime: Position) -> float:
    """Boss-hat G_H from the three-term cylindrical radical form.

    Equals g_h(build_green(boss_hat), r, r') to floating-point accuracy;
    kept as a verification path because long radicals are easy to
    mistype in either representation.
    """
    xi, xi_minus, xi_plus = bosshat_radicals(radius, r, r_prime)
    sp = math.sqrt(r_prime.rho ** 2 + r_prime.z ** 2)
    return (-1.0 / xi - radius * sp / xi_minus + radius * sp / xi_plus) / FOUR_PI
