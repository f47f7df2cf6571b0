"""Dispersion (van der Waals) energies of a polarizable atom near
perfectly conducting surfaces, computed from image-charge Green
functions.

Geometries: half-space plane, grounded sphere, isolated neutral sphere,
and a grounded hemispherical boss on a plane. Three independent routes
to every energy: closed forms, exact mixed derivatives of the
homogeneous Green function's image sum, and a finite-dipole
extrapolation oracle.

The package namespace holds the documented API: the closed forms, the
three routes, route(g, variances, r0, units), that take DipoleVariances
and a Position or an (N, 3) array of points (energy_closed,
energy_numeric, extrapolated_energy), the validation
suites, the error classes and the types they take and return.
Everything else is imported from its submodule: the image systems and
G_H from vdwsurf.images, the geometry helpers from vdwsurf.geometry,
the pair potentials from vdwsurf.pairs, and the transcribed boss-hat
forms, kept for provenance, from vdwsurf._errata.
"""

from .closed import (
    energy_closed,
    u_bosshat_corrected,
    u_bosshat_expansion3,
    u_grounded_sphere,
    u_grounded_sphere_alpha,
    u_isolated_sphere,
    u_plane,
    u_sphere_expansion3,
)
from .errors import (
    ContactError,
    DegenerateSourceError,
    ExpansionWindowError,
    ExtrapolationError,
    RegionError,
    VdwError,
)
from .evaluator import energy_numeric
from .geometry import (
    DipoleVariances,
    EnergyResult,
    GeometryConfig,
    GeometryKind,
    Method,
    Position,
    VarianceFrame,
)
from .oracle import extrapolated_energy
from .units import Mode, UnitSystem
from .validate import CheckResult, SuiteReport, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ContactError",
    "DegenerateSourceError",
    "DipoleVariances",
    "EnergyResult",
    "ExpansionWindowError",
    "ExtrapolationError",
    "GeometryConfig",
    "GeometryKind",
    "Method",
    "Mode",
    "Position",
    "RegionError",
    "SuiteReport",
    "UnitSystem",
    "VarianceFrame",
    "VdwError",
    "energy_closed",
    "energy_numeric",
    "extrapolated_energy",
    "run_all",
    "run_suite",
    "u_bosshat_corrected",
    "u_bosshat_expansion3",
    "u_grounded_sphere",
    "u_grounded_sphere_alpha",
    "u_isolated_sphere",
    "u_plane",
    "u_sphere_expansion3",
]
