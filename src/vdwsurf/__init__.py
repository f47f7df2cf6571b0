"""Dispersion (van der Waals) energies of a polarizable atom near
perfectly conducting surfaces, computed from image-charge Green
functions.

Geometries: half-space plane, grounded sphere, isolated neutral sphere,
and a grounded hemispherical boss on a plane. Three independent routes
to every energy: closed forms, numerical mixed derivatives of the
homogeneous Green function, and a finite-dipole extrapolation oracle.
"""

from .closed import (
    BOSSHAT_EXPANSION_C3,
    SPHERE_EXPANSION_C3,
    BossHatXi,
    bosshat_axis_bracket,
    fit_expansion_coefficients,
    sphere_bracket,
    u_bosshat,
    u_bosshat_corrected,
    u_bosshat_expansion3,
    u_grounded_sphere,
    u_grounded_sphere_alpha,
    u_isolated_sphere,
    u_plane,
    u_sphere_expansion3,
    xi_factors,
    xi_factors_corrected,
)
from .errors import (
    ContactError,
    DegenerateSourceError,
    ExpansionWindowError,
    ExtrapolationError,
    RegionError,
    StepUnderflowError,
    VdwError,
)
from .evaluator import (
    DEFAULT_DIFF_SETTINGS,
    DiffSettings,
    energy_numeric,
    mixed_second,
    mixed_second_dir,
)
from .geometry import (
    AtomSpec,
    DipoleVariances,
    EnergyResult,
    GeometryConfig,
    GeometryKind,
    Method,
    Position,
    VarianceFrame,
    local_axes,
    physical_region,
    surface_distance,
    to_cylindrical,
)
from .images import (
    HomogeneousGreen,
    bc_residual,
    bosshat_radicals,
    build_green,
    g_h,
    g_h_bosshat_cylindrical,
    surface_deviation,
    surface_sample,
)
from .oracle import FiniteDipole, extrapolated_energy, finite_dipole_energy
from .pairs import (
    PairSpec,
    h_dipole_dipole,
    u_london,
    u_orientation,
    u_retarded_cp,
    u_wang,
)
from .units import Mode, UnitSystem, reduced_to_si_factor
from .validate import CheckResult, SuiteReport, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "AtomSpec",
    "BOSSHAT_EXPANSION_C3",
    "BossHatXi",
    "CheckResult",
    "ContactError",
    "DEFAULT_DIFF_SETTINGS",
    "DegenerateSourceError",
    "DiffSettings",
    "DipoleVariances",
    "EnergyResult",
    "ExpansionWindowError",
    "ExtrapolationError",
    "FiniteDipole",
    "GeometryConfig",
    "GeometryKind",
    "HomogeneousGreen",
    "Method",
    "Mode",
    "PairSpec",
    "Position",
    "RegionError",
    "SPHERE_EXPANSION_C3",
    "StepUnderflowError",
    "SuiteReport",
    "UnitSystem",
    "VarianceFrame",
    "VdwError",
    "bc_residual",
    "bosshat_axis_bracket",
    "bosshat_radicals",
    "build_green",
    "energy_numeric",
    "extrapolated_energy",
    "finite_dipole_energy",
    "fit_expansion_coefficients",
    "g_h",
    "g_h_bosshat_cylindrical",
    "h_dipole_dipole",
    "local_axes",
    "mixed_second",
    "mixed_second_dir",
    "physical_region",
    "reduced_to_si_factor",
    "run_all",
    "run_suite",
    "sphere_bracket",
    "surface_deviation",
    "surface_distance",
    "surface_sample",
    "to_cylindrical",
    "u_bosshat",
    "u_bosshat_corrected",
    "u_bosshat_expansion3",
    "u_grounded_sphere",
    "u_grounded_sphere_alpha",
    "u_isolated_sphere",
    "u_london",
    "u_orientation",
    "u_plane",
    "u_retarded_cp",
    "u_sphere_expansion3",
    "u_wang",
    "xi_factors",
    "xi_factors_corrected",
]
