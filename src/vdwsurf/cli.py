"""Command-line front end: single-point energies, parameter sweeps, and
validation reports.

Subcommands
    energy    one configuration, JSON on stdout
    scan      sweep z0 or rho0, CSV to a file
    validate  run invariant suites, text report on stdout

Exit codes: 0 success, 1 failed validation, 2 invalid arguments
(including NaN or infinite numbers) or an energy that cannot be
computed (any library error other than a region violation, or a
floating-point error), 3 region violation (atom on or inside the
conductor), 4 unwritable output. A failed scan names the grid value of
its first failing point. An optional key=value config file can set any
flag of energy and scan but --config, its keys being the long flags
without "--"; explicit flags win.

`scan --method closed|numeric|oracle` evaluates its grid in vectorised
calls of up to 256 points, one route call a chunk, and builds the
chunk's CSV rows in one pass; `expansion3` goes point by point. A chunk
whose call fails is evaluated again point by point to name the first
failing grid value. Numpy floating-point errors (division by zero,
overflow, invalid operations) raise inside every subcommand and exit
2. The environment variable VDW_THREADS, which once set a thread
count, is accepted and ignored.

Variances are interpreted in cartesian axes (x, y, z) for the plane and
the spheres, and in the local cylindrical frame (radial, azimuthal,
vertical) for the boss hat. Closed-form sphere energies are available
for isotropic variances only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

import numpy as np

from .closed import (  # u_plane, u_*_sphere, u_bosshat_corrected: unused, perfbench wraps them
    energy_closed,
    isotropic_total,
    u_bosshat_corrected,
    u_bosshat_expansion3,
    u_grounded_sphere,
    u_isolated_sphere,
    u_plane,
    u_sphere_expansion3,
)
from .errors import RegionError, VdwError
from .evaluator import energy_numeric
from .geometry import (
    DipoleVariances,
    EnergyResult,
    GeometryConfig,
    GeometryKind,
    Position,
    VarianceFrame,
    surface_distance,
)
from .oracle import extrapolated_energy
from .units import Mode, UnitSystem
from .validate import run_all, run_suite

_GEOMETRY_CHOICES = ("plane", "gsphere", "isphere", "bosshat")
_METHOD_CHOICES = ("closed", "numeric", "oracle")
_SCAN_METHOD_CHOICES = _METHOD_CHOICES + ("expansion3",)


def _parse_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _config_options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The options of a subcommand that a config file may set, by key:
    each long flag without its dashes, --config and --help aside."""
    return {
        action.option_strings[-1][2:]: action
        for action in parser._actions
        if action.default is not argparse.SUPPRESS and action.dest != "config"
    }


def _config_value(action: argparse.Action, key: str, text: str):
    """What the config line key=text sets the action's destination to."""
    try:
        if action.nargs == 0:   # a switch, such as --log
            return action.const if _parse_bool(text) else None
        value = (action.type or str)(text)
    except ValueError as exc:
        raise ValueError(f"{key}={text}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{key} must be one of {list(action.choices)}, got {text!r}")
    return value


def _merge_config(args: argparse.Namespace) -> None:
    """Fill the options left unset on the command line from the config
    file; flags win."""
    if args.config is None:
        return
    values = _parse_config(args.config)
    options = _config_options(args.parser)
    unknown = set(values) - set(options)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, text in values.items():
        action = options[key]
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, _config_value(action, key, text))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_variances(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--variances wants three comma-separated values, got {text!r}")
    m1, m2, m3 = (float(p) for p in parts)
    return (m1, m2, m3)


def _require_finite(args: argparse.Namespace) -> None:
    """Reject NaN and infinite numbers, from flags or the config file."""
    for action in args.parser._actions:
        value = getattr(args, action.dest, None)
        if action.type is float and value is not None and not math.isfinite(value):
            flag = action.option_strings[-1]
            raise ValueError(f"{flag} must be a finite number, got {value!r}")
    if args.variances is not None and not all(math.isfinite(m) for m in args.variances):
        raise ValueError(f"--variances must be finite numbers, got {args.variances!r}")


def _required(args: argparse.Namespace, dest: str):
    """The value of an option that has no default, named by its flag if unset."""
    value = getattr(args, dest)
    if value is None:
        flag = next(a.option_strings[-1] for a in args.parser._actions if a.dest == dest)
        raise ValueError(f"{flag} is required")
    return value


def _resolve_variances(args: argparse.Namespace, frame: VarianceFrame) -> DipoleVariances:
    if args.variances is not None and args.isotropic is not None:
        raise ValueError("give either --variances or --isotropic, not both")
    if args.variances is not None:
        m1, m2, m3 = args.variances
        return DipoleVariances(m1, m2, m3, frame)
    if args.isotropic is not None:
        return DipoleVariances.isotropic(args.isotropic, frame)
    raise ValueError("one of --variances or --isotropic is required")


def _geometry_from_args(kind: str, radius: float) -> GeometryConfig:
    if kind == "plane":
        return GeometryConfig.plane()
    if radius is None or radius <= 0.0:
        raise ValueError(f"--radius > 0 is required for geometry {kind!r}")
    builders = {
        "gsphere": GeometryConfig.grounded_sphere,
        "isphere": GeometryConfig.isolated_sphere,
        "bosshat": GeometryConfig.boss_hat,
    }
    return builders[kind](radius)


def _expansion3_energy(
    g: GeometryConfig, variances: DipoleVariances, r0: Position, units: UnitSystem
) -> EnergyResult:
    if r0.x != 0.0:
        raise ValueError("--method expansion3 is on-axis only (rho0 = 0)")
    total = isotropic_total(variances)
    if g.kind is GeometryKind.GROUNDED_SPHERE:
        return u_sphere_expansion3(total, r0.z, g.radius, units)
    if g.kind is GeometryKind.BOSS_HAT:
        return u_bosshat_expansion3(total, r0.z, g.radius, units)
    raise ValueError("--method expansion3 needs geometry gsphere or bosshat")


def _route(method: str):
    """The energy route of a method, which takes a Position or an (N, 3)
    array of points; None for expansion3, a scan method that goes point
    by point. Looked up at each call, so a wrapper bound to the name on
    this module, such as a tracer's, sees the call."""
    routes = {"closed": energy_closed, "numeric": energy_numeric, "oracle": extrapolated_energy}
    return routes.get(method)


def _setup(args: argparse.Namespace) -> tuple[UnitSystem, GeometryConfig, DipoleVariances]:
    """Units, geometry and variances of an energy or scan command, the
    variances read in the frame of the geometry."""
    units = UnitSystem(Mode(args.units or "reduced"))
    g = _geometry_from_args(args.geometry, args.radius)
    frame = (
        VarianceFrame.CYLINDRICAL_LOCAL
        if g.kind is GeometryKind.BOSS_HAT
        else VarianceFrame.CARTESIAN
    )
    return units, g, _resolve_variances(args, frame)


def cmd_energy(args: argparse.Namespace) -> int:
    _merge_config(args)
    _require_finite(args)
    _required(args, "geometry")
    z0 = _required(args, "z0")
    rho0 = 0.0 if args.rho0 is None else args.rho0
    method = args.method or "closed"
    units, g, variances = _setup(args)
    result = _route(method)(g, variances, Position(rho0, 0.0, z0), units=units)
    err = result.err_estimate if math.isfinite(result.err_estimate) else None
    payload = {
        "energy": result.value,
        "err_estimate": err,
        "method": result.method.value,
        "units": result.units.value,
        "inputs": {
            "geometry": args.geometry,
            "radius": g.radius,
            "z0": z0,
            "rho0": rho0,
            "variances": [variances.m1, variances.m2, variances.m3],
            "variance_frame": variances.frame.value,
            "method": method,
        },
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
    return 0


# Grid points per vectorised route call: scans of ordinary size take one
# call, and the stencil arrays of a long scan stay a few MB.
_SCAN_CHUNK = 256


def _normalization(kind: str, g: GeometryConfig, positions: np.ndarray) -> np.ndarray:
    """Scale factor of each scan point."""
    if kind == "none":
        return np.ones(len(positions))
    if kind == "R3":
        if g.kind is GeometryKind.PLANE:
            raise ValueError("--normalize R3 is undefined for the plane")
        return np.full(len(positions), g.radius**3)
    # Python's ** (the C library pow), which numpy's power may not match
    return np.array([d**3 for d in surface_distance(g, positions).tolist()])


def _chunk_energies(
    method: str,
    g: GeometryConfig,
    variances: DipoleVariances,
    xs: list[float],
    positions: np.ndarray,
    units: UnitSystem,
    var: str,
) -> tuple[np.ndarray, np.ndarray, str]:
    """Values, errors and method name of a chunk of scan points: one
    vectorised route call, or point by point for expansion3. A failure
    names the grid value of the first failing point."""
    route = _route(method)
    if route is not None:
        try:
            batch = route(g, variances, positions, units=units)
        except (VdwError, ArithmeticError):
            pass   # the point-by-point loop below finds and names the failing point
        else:
            return batch.value, batch.err_estimate, batch.method.value
    values, errs = [], []
    for x, row in zip(xs, positions.tolist()):
        try:
            result = (route or _expansion3_energy)(g, variances, Position(*row), units=units)
        except (VdwError, ArithmeticError) as exc:
            exc.args = (f"at {var}={x!r}: {exc}",)   # name the failing point
            raise
        values.append(result.value)
        errs.append(result.err_estimate)
    return np.array(values), np.array(errs), result.method.value


def cmd_scan(args: argparse.Namespace) -> int:
    _merge_config(args)
    _require_finite(args)
    _required(args, "geometry")
    lo = _required(args, "from_value")
    hi = _required(args, "to_value")
    out = _required(args, "out")
    var = args.var or "z0"
    points = args.points if args.points is not None else 50
    log = bool(args.log)
    normalize = args.normalize or "none"
    method = args.method or "closed"
    rho0_fixed = 0.0 if args.rho0 is None else args.rho0
    z0_fixed = args.z0

    if points < 1:
        raise ValueError("--points must be >= 1")
    if var == "rho0" and z0_fixed is None:
        raise ValueError("--z0 is required when sweeping rho0")

    units, g, variances = _setup(args)

    if log:
        if lo <= 0.0 or hi <= 0.0:
            raise ValueError("--log needs strictly positive --from/--to")
        grid = np.geomspace(lo, hi, points)
    else:
        grid = np.linspace(lo, hi, points)
    # stable, so that -0.0 and 0.0 keep their grid order, as sorted() keeps it
    xs = np.sort(grid, kind="stable").tolist()
    var_column, fixed_column, fixed = (2, 0, rho0_fixed) if var == "z0" else (0, 2, z0_fixed)
    text = ["x,value,err,method\n"]
    for start in range(0, len(xs), _SCAN_CHUNK):
        chunk = xs[start:start + _SCAN_CHUNK]
        positions = np.zeros((len(chunk), 3))
        positions[:, var_column] = chunk
        positions[:, fixed_column] = fixed
        scales = _normalization(normalize, g, positions)
        values, errs, method_name = _chunk_energies(
            method, g, variances, chunk, positions, units, var
        )
        # inf and NaN, as Python floats give them, rather than an
        # unnamed FloatingPointError: the check below names the point
        with np.errstate(over="ignore", invalid="ignore"):
            values, errs = values * scales, errs * scales
        bad = ~(np.isfinite(values) & np.isfinite(errs))
        if bad.any():
            i = int(bad.argmax())
            raise FloatingPointError(
                f"at {var}={chunk[i]!r}: non-finite energy {float(values[i])!r} "
                f"(err {float(errs[i])!r})"
            )
        row = "%.17g,%.17g,%.17g," + method_name + "\n"
        text.extend(row % r for r in zip(chunk, values.tolist(), errs.tolist()))

    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("".join(text))
    except OSError as exc:
        sys.stderr.write(f"vdwsurf: cannot write {out!r}: {exc}\n")
        return 4
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    suite = args.suite or "all"
    reports = run_all(seed=seed) if suite == "all" else [run_suite(suite, seed=seed)]
    for report in reports:
        for line in report.lines():
            sys.stdout.write(line + "\n")
    return 0 if all(r.passed for r in reports) else 1


def _add_common_energy_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--geometry", choices=_GEOMETRY_CHOICES, default=None)
    sub.add_argument("--radius", type=float, default=None, help="conductor radius R")
    sub.add_argument("--z0", type=float, default=None, help="height above the plane / sphere center")
    sub.add_argument("--rho0", type=float, default=None, help="axial distance (default 0)")
    sub.add_argument(
        "--variances",
        type=_parse_variances,
        default=None,
        metavar="M1,M2,M3",
        help="dipole variances along the three local axes",
    )
    sub.add_argument(
        "--isotropic", type=float, default=None, metavar="TOTAL", help="isotropic total variance"
    )
    sub.add_argument("--units", choices=("si", "reduced"), default=None)
    sub.add_argument("--config", default=None, help="key=value file mirroring the flags; flags win")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `vdwsurf: ...` line on stderr,
    exit 2, like every other failure; its subcommands inherit it."""

    def error(self, message: str):
        self.exit(2, f"vdwsurf: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vdwsurf",
        description="Dispersion energies near grounded and isolated conductor surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_energy = sub.add_parser("energy", help="single-point energy as JSON")
    _add_common_energy_flags(p_energy)
    p_energy.add_argument("--method", choices=_METHOD_CHOICES, default=None)
    p_energy.set_defaults(handler=cmd_energy, parser=p_energy)

    p_scan = sub.add_parser("scan", help="sweep z0 or rho0 into a CSV file")
    _add_common_energy_flags(p_scan)
    p_scan.add_argument("--method", choices=_SCAN_METHOD_CHOICES, default=None)
    p_scan.add_argument("--var", choices=("z0", "rho0"), default=None)
    p_scan.add_argument("--from", dest="from_value", type=float, default=None)
    p_scan.add_argument("--to", dest="to_value", type=float, default=None)
    p_scan.add_argument("--points", type=int, default=None)
    p_scan.add_argument("--log", action="store_const", const=True, default=None)
    p_scan.add_argument("--normalize", choices=("none", "R3", "a3"), default=None)
    p_scan.add_argument("--out", default=None, metavar="FILE")
    p_scan.set_defaults(handler=cmd_scan, parser=p_scan)

    p_validate = sub.add_parser("validate", help="run invariant suites")
    p_validate.add_argument(
        "--suite", choices=("bc", "symmetry", "limits", "threeway", "all"), default=None
    )
    p_validate.add_argument("--seed", type=int, default=None)
    p_validate.set_defaults(handler=cmd_validate)
    return parser


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first call to main: parsing
    leaves no state in it, and building it costs about 1 ms."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        # numpy raises FloatingPointError, an ArithmeticError, where Python
        # floats would raise ZeroDivisionError or carry inf and NaN on
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return args.handler(args)
    except RegionError as exc:
        sys.stderr.write(f"vdwsurf: region violation: {exc}\n")
        return 3
    except (VdwError, ArithmeticError, ValueError, OSError) as exc:
        sys.stderr.write(f"vdwsurf: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
