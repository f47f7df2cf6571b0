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

Names load on first use (PEP 562, as Scientific Python's SPEC 1 lays
out): `import vdwsurf` imports no submodule, and `vdwsurf.<name>`,
`from vdwsurf import <name>` and a submodule looked up as an attribute,
such as `vdwsurf.closed`, import what they name the first time.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it. A name is imported
# from its submodule on first use (__getattr__), so `import vdwsurf`
# loads no submodule: a command pays only for the routes it runs.
_SUBMODULE_OF = {
    **dict.fromkeys(
        ("energy_closed", "u_bosshat_corrected", "u_bosshat_expansion3", "u_grounded_sphere",
         "u_grounded_sphere_alpha", "u_isolated_sphere", "u_plane", "u_sphere_expansion3"),
        "closed",
    ),
    **dict.fromkeys(
        ("ContactError", "DegenerateSourceError", "ExpansionWindowError", "ExtrapolationError",
         "RegionError", "VdwError"),
        "errors",
    ),
    "energy_numeric": "evaluator",
    **dict.fromkeys(
        ("DipoleVariances", "EnergyResult", "GeometryConfig", "GeometryKind", "Method",
         "Position", "VarianceFrame"),
        "geometry",
    ),
    "extrapolated_energy": "oracle",
    "Mode": "units",
    "UnitSystem": "units",
    **dict.fromkeys(("CheckResult", "SuiteReport", "run_all", "run_suite"), "validate"),
}

# every submodule, each an attribute of the package once imported
_SUBMODULES = ("_errata", "_g17", "cli", "closed", "errors", "evaluator", "geometry", "images",
               "oracle", "pairs", "units", "validate")

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    """A public name or a submodule, imported on its first use; a public
    name is then kept in the namespace, where later lookups find it."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    try:
        submodule = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
