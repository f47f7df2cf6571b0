"""Command-line front end: single-point energies, parameter sweeps, and
validation reports.

Subcommands
    energy    one configuration, JSON on stdout
    scan      sweep z0 or rho0, CSV to a file
    validate  run invariant suites, text report on stdout

Exit codes: 0 success, 1 failed validation, 2 invalid arguments or an
energy that cannot be computed (any library error other than a region
violation, a floating-point error, or a MemoryError such as a scan grid
too large to allocate), 3 region violation (atom on or inside the
conductor), 4 unwritable output. A float flag takes a finite number:
NaN and inf are parse errors where they are read, as a non-number is
("argument --z0: must be a finite number, got 'nan'", "argument --z0:
invalid float value: 'x'"), and so is a variance component. A token
that starts with "-" and that float() reads, such as -1e5 or -inf, is a
value, not an option.

Each default is set once, in build_parser: --method closed, --units
reduced and --rho0 0.0; for scan also --var z0, --points 50, --normalize
none and a linear grid (--log is a switch, off by default); validate
runs --suite all at --seed 0.

An optional config file (--config) of key=value lines is read as the
flags it names: key=value as --key=value, a switch such as log=yes as a
bare --log and log=no as no flag. A key is a long flag of energy or scan
without "--", spelled out in full; --config and --help are not keys. The
config's flags are parsed before the command line's by the same parser,
with the same checks and messages, so flags win, and the whole file is
checked, a bad value that a flag overrides included.

A command line is parsed once: the parser of the subcommand its first
token names reads the tokens after that name (again after a config
file's flags). The top-level parser reads only a command line that does
not start with a subcommand's name, and prints help or an error.

`scan` evaluates its grid in chunks, one vectorised route call and one
format into bytes per chunk. A chunk bounds the memory of a long scan: the
oracle holds about 11 KB per point and takes 256 points a chunk, the
closed, numeric and expansion3 routes hold 1.1 KB or less per point and
take 4096. A chunk stays in float64 arrays from the grid to its CSV rows,
which are bytes, those of "%.17g" % cell for every cell, by one of two
paths: from 200 rows (_CSV_PASS_ROWS, the measured crossover) one exact
numpy pass (vdwsurf._g17), below it one % over the rows, encoded once.
The header and every chunk's rows are joined and written to the file by
one unbuffered binary write, repeated for whatever a short write leaves.
A chunk whose call fails is evaluated again point by point to
name the first failing grid value, and a non-finite energy names its
point. `energy` is a chunk of one, evaluated and checked by the same
functions, so it names "rho0=..., z0=..." wherever scan names a point.
Numpy floating-point errors (division by zero, overflow, invalid
operations) raise inside every subcommand and exit 2. The environment
variable VDW_THREADS, which once set a thread count, is accepted and
ignored.

A command loads what it runs. Importing this module loads argparse,
numpy and vdwsurf's errors, geometry and units, which every command
uses; the closed forms, the numeric route, the oracle, the validation
suites, the CSV pass and json load on the first command that needs them
(_DEFERRED): `energy` loads vdwsurf.closed, `scan --method numeric`
vdwsurf.evaluator and vdwsurf.images, and only `validate` loads every
route.

Variances are interpreted in cartesian axes (x, y, z) for the plane and
the spheres, and in the local cylindrical frame (radial, azimuthal,
vertical) for the boss hat. Closed-form sphere energies are available
for isotropic variances only.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import re
import sys
from typing import Callable, Sequence

import numpy as np

from .errors import RegionError, VdwError
from .geometry import (
    DipoleVariances,
    EnergyResult,
    GeometryConfig,
    GeometryKind,
    VarianceFrame,
    surface_distance,
)
from .units import Mode, UnitSystem

# The names this module takes from modules that only some commands run,
# by the module each comes from; a name is imported on its first lookup
# (__getattr__). u_plane, u_*_sphere and u_bosshat_corrected go unused
# here: perfbench wraps them on this module.
_DEFERRED = {
    "json": "json",
    "_g17": "._g17",
    **dict.fromkeys(
        ("energy_closed", "isotropic_total", "u_bosshat_corrected", "u_bosshat_expansion3",
         "u_grounded_sphere", "u_isolated_sphere", "u_plane", "u_sphere_expansion3"),
        ".closed",
    ),
    "energy_numeric": ".evaluator",
    "extrapolated_energy": ".oracle",
    "run_all": ".validate",
    "run_suite": ".validate",
}


def __getattr__(name: str):
    """A deferred name (_DEFERRED), imported on its first lookup and then
    kept as a global of this module; a name that is its module's own,
    json or _g17, is the module."""
    try:
        source = _DEFERRED[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(source, __package__)
    value = module if source.lstrip(".") == name else getattr(module, name)
    globals()[name] = value
    return value


# This module. A function reads a deferred name as an attribute of it,
# _cli.<name>, at each call: a bare global would not reach __getattr__,
# and the attribute is whatever is bound there now, such as a tracer's
# wrapper.
_cli = sys.modules[__name__]

_GEOMETRY_CHOICES = tuple(kind.value for kind in GeometryKind)
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


def _config_flags(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The flags the lines of a config file name, for the subcommand
    parser: --key=value, or a bare --log for a switch set to a true value
    and nothing for a false one. An unknown key, such as config, help or
    an abbreviated flag, is an error."""
    switches = {
        action.option_strings[-1][2:]: action.nargs == 0
        for action in parser._actions
        if action.default is not argparse.SUPPRESS and action.dest != "config"
    }
    values = _parse_config(path)
    unknown = set(values) - set(switches)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, text in values.items():
        if not switches[key]:
            flags.append(f"--{key}={text}")
        elif text.lower() in ("1", "true", "yes", "on"):
            flags.append(f"--{key}")
        elif text.lower() not in ("0", "false", "no", "off"):
            flags.append(f"--{key}={text}")   # the parser rejects it, as it rejects --log=x
    return flags


def _finite(text: str) -> float:
    """The value of a float flag: a number, neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _parse_variances(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated values, got {text!r}")
    m1, m2, m3 = (_finite(p) for p in parts)
    return (m1, m2, m3)


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


def _geometry_from_args(name: str, radius: float) -> GeometryConfig:
    kind = GeometryKind(name)
    if kind is GeometryKind.PLANE:
        return GeometryConfig(kind)
    if radius is None or radius <= 0.0:
        raise ValueError(f"--radius > 0 is required for geometry {name!r}")
    return GeometryConfig(kind, radius)


def _expansion3_energy(
    g: GeometryConfig, variances: DipoleVariances, r0: np.ndarray, units: UnitSystem
) -> EnergyResult:
    """The near-contact expansion of the geometry on the axis: (N,) arrays
    for an (N, 3) array of points."""
    x, z = r0[:, 0], r0[:, 2]
    if np.any(x != 0.0):
        raise ValueError("--method expansion3 is on-axis only (rho0 = 0)")
    total = _cli.isotropic_total(variances, f"expansion3 energies of geometry {g.kind.value!r}")
    if g.kind is GeometryKind.GROUNDED_SPHERE:
        return _cli.u_sphere_expansion3(total, z, g.radius, units)
    if g.kind is GeometryKind.BOSS_HAT:
        return _cli.u_bosshat_expansion3(total, z, g.radius, units)
    raise ValueError("--method expansion3 needs geometry gsphere or bosshat")


# the name on this module of each method's route
_ROUTES = {"closed": "energy_closed", "numeric": "energy_numeric",
           "oracle": "extrapolated_energy", "expansion3": "_expansion3_energy"}


def _route(method: str):
    """The energy route of a method, which takes an (N, 3) array of
    points. Looked up at each call, so a wrapper bound to the
    name on this module, such as a tracer's, sees the call."""
    return getattr(_cli, _ROUTES[method])


def _setup(args: argparse.Namespace) -> tuple[UnitSystem, GeometryConfig, DipoleVariances]:
    """Units, geometry and variances of an energy or scan command, the
    variances read in the frame of the geometry."""
    units = UnitSystem(Mode(args.units))
    g = _geometry_from_args(args.geometry, args.radius)
    frame = (
        VarianceFrame.CYLINDRICAL_LOCAL
        if g.kind is GeometryKind.BOSS_HAT
        else VarianceFrame.CARTESIAN
    )
    return units, g, _resolve_variances(args, frame)


def cmd_energy(args: argparse.Namespace) -> int:
    _required(args, "geometry")
    z0 = _required(args, "z0")
    units, g, variances = _setup(args)

    def name(i: int) -> str:
        return f"rho0={args.rho0!r}, z0={z0!r}"

    values, errs, method_name = _chunk_energies(
        args.method, g, variances, np.array([[args.rho0, 0.0, z0]]), units, name
    )
    _require_finite_energies(values, errs, name)
    payload = {
        "energy": float(values[0]),
        "err_estimate": float(errs[0]),
        "method": method_name,
        "units": units.mode.value,
        "inputs": {
            "geometry": args.geometry,
            "radius": g.radius,
            "z0": z0,
            "rho0": args.rho0,
            "variances": [variances.m1, variances.m2, variances.m3],
            "variance_frame": variances.frame.value,
            "method": args.method,
        },
    }
    sys.stdout.write(_cli.json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
    return 0


# Grid points per vectorised route call, by --method: a bound on the
# memory of a long scan. The oracle holds about 11 KB per point and takes
# 256; the others hold 1.1 KB (numeric, boss hat) or less and take 4096,
# so a scan of ordinary size is one route call. A chunk stays under 5 MB.
_SCAN_CHUNK = {"oracle": 256, "closed": 4096, "numeric": 4096, "expansion3": 4096}

# Rows of a chunk from which _csv_rows formats with the numpy pass of
# vdwsurf._g17, whose hundred or so array calls cost about the same at any
# size: below it one % over the rows is faster. With the caches cooled
# between calls, as a request's other work cools them, the pass took 1.4
# times the time of % at 120 boss-hat rows, 1.0 at 200, 0.8 at 300 and
# 0.55 at 800 (2-vCPU AMD EPYC VM, Python 3.11, numpy 2.4).
_CSV_PASS_ROWS = 200


def _normalization(
    kind: str, g: GeometryConfig, positions: np.ndarray, name: Callable[[int], str]
) -> np.ndarray | np.float64 | None:
    """Scale factor of each scan point, or None for --normalize none, which
    scales nothing (x * 1.0 is x); R3 gives one factor for every point. An
    overflowing factor names its point by name(i), i its index in positions."""
    if kind == "none":
        return None
    if kind == "R3":
        if g.kind is GeometryKind.PLANE:
            raise ValueError("--normalize R3 is undefined for the plane")
        lengths = np.float64(g.radius)   # one pow for every point; an overflow names the first
    else:
        lengths = surface_distance(g, positions)
    with np.errstate(all="ignore"):
        scales = np.float_power(lengths, 3)   # the C pow that Python's ** calls, per element
    over = np.isinf(scales) & np.isfinite(lengths)
    if over.any():
        raise OverflowError(f"at {name(int(over.argmax()))}: --normalize {kind} overflows")
    return scales


def _chunk_energies(
    method: str,
    g: GeometryConfig,
    variances: DipoleVariances,
    positions: np.ndarray,
    units: UnitSystem,
    name: Callable[[int], str],
) -> tuple[np.ndarray, np.ndarray, str]:
    """Values, errors and method name of an (N, 3) array of points from one
    vectorised route call. A failure names the first failing point by
    name(i), i its index in positions."""
    route = _route(method)
    try:
        batch = route(g, variances, positions, units=units)
    except (VdwError, ArithmeticError, ValueError):
        for i in range(len(positions)):   # find and name the first failing point
            try:
                route(g, variances, positions[i:i + 1], units=units)
            except (VdwError, ArithmeticError) as exc:
                exc.args = (f"at {name(i)}: {exc}",)
                raise
        raise   # no point fails alone: the chunk's own error
    return batch.value, batch.err_estimate, batch.method.value


def _require_finite_energies(values, errs, name: Callable[[int], str]) -> None:
    """Name, by name(i), the first point whose value or error is not finite."""
    bad = ~(np.isfinite(values) & np.isfinite(errs))
    if bad.any():
        i = int(bad.argmax())
        raise FloatingPointError(
            f"at {name(i)}: non-finite energy {float(values[i])!r} (err {float(errs[i])!r})"
        )


def _csv_rows(xs, values, errs, method: str) -> bytes:
    """The CSV rows of a chunk from its arrays (or lists) of grid values,
    values and errors, as bytes: those of formatting each row by itself
    with "%.17g,%.17g,%.17g,<method>\n".  A chunk of _CSV_PASS_ROWS rows or
    more is formatted by the numpy pass of vdwsurf._g17, a shorter one by
    one % over the row repeated, encoded once."""
    if len(xs) >= _CSV_PASS_ROWS:
        return _cli._g17.rows((xs, values, errs), method + "\n")
    cells: list = [None] * (3 * len(xs))
    cells[0::3] = np.asarray(xs, dtype=float).tolist()
    cells[1::3] = np.asarray(values, dtype=float).tolist()
    cells[2::3] = np.asarray(errs, dtype=float).tolist()
    return (("%.17g,%.17g,%.17g," + method + "\n") * len(xs) % tuple(cells)).encode()


def cmd_scan(args: argparse.Namespace) -> int:
    _required(args, "geometry")
    lo = _required(args, "from_value")
    hi = _required(args, "to_value")
    out = _required(args, "out")
    var = args.var

    if args.points < 1:
        raise ValueError("--points must be >= 1")
    if var == "rho0" and args.z0 is None:
        raise ValueError("--z0 is required when sweeping rho0")

    units, g, variances = _setup(args)

    if args.log:
        if lo <= 0.0 or hi <= 0.0:
            raise ValueError("--log needs strictly positive --from/--to")
        grid = np.geomspace(lo, hi, args.points)
    else:
        grid = np.linspace(lo, hi, args.points)
    # stable, so that -0.0 and 0.0 keep their grid order, as sorted() keeps it
    xs = np.sort(grid, kind="stable")
    var_column, fixed_column, fixed = (2, 0, args.rho0) if var == "z0" else (0, 2, args.z0)
    rows = [b"x,value,err,method\n"]
    size = _SCAN_CHUNK[args.method]
    for start in range(0, len(xs), size):
        chunk = xs[start:start + size]
        positions = np.zeros((len(chunk), 3))
        positions[:, var_column] = chunk
        positions[:, fixed_column] = fixed

        def name(i: int) -> str:
            return f"{var}={float(chunk[i])!r}"

        scales = _normalization(args.normalize, g, positions, name)
        values, errs, method_name = _chunk_energies(
            args.method, g, variances, positions, units, name
        )
        if scales is not None:
            # inf and NaN, as Python floats give them, rather than an
            # unnamed FloatingPointError: the check below names the point
            with np.errstate(over="ignore", invalid="ignore"):
                values, errs = values * scales, errs * scales
        _require_finite_energies(values, errs, name)
        rows.append(_csv_rows(chunk, values, errs, method_name))

    try:
        with open(out, "wb", buffering=0) as fh:
            view = memoryview(b"".join(rows))
            while view:   # a raw write may take only part of it
                view = view[fh.write(view):]
    except OSError as exc:
        sys.stderr.write(f"vdwsurf: cannot write {out!r}: {exc}\n")
        return 4
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, not {seed}")
    if args.suite == "all":
        reports = _cli.run_all(seed=seed)
    else:
        reports = [_cli.run_suite(args.suite, seed=seed)]
    for report in reports:
        for line in report.lines():
            sys.stdout.write(line + "\n")
    return 0 if all(r.passed for r in reports) else 1


def _add_common_energy_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--geometry", choices=_GEOMETRY_CHOICES, default=None)
    sub.add_argument("--radius", type=_finite, default=None, help="conductor radius R")
    sub.add_argument("--z0", type=_finite, default=None, help="height above the plane / sphere center")
    sub.add_argument("--rho0", type=_finite, default=0.0, help="axial distance (default %(default)s)")
    sub.add_argument(
        "--variances",
        type=_parse_variances,
        default=None,
        metavar="M1,M2,M3",
        help="dipole variances along the three local axes",
    )
    sub.add_argument(
        "--isotropic", type=_finite, default=None, metavar="TOTAL", help="isotropic total variance"
    )
    sub.add_argument("--units", choices=("si", "reduced"), default="reduced")
    sub.add_argument("--config", default=None, help="key=value file mirroring the flags; flags win")


_DIGITS = r"\d(?:_?\d)*"
# A token that starts with "-" and that float() reads as a number, which
# argparse then takes as a value, not as an option: -1e5, -1E+5, -.5,
# -1_000, -inf, -nan; and a comma list whose first item float() reads so,
# such as the --variances -0.0,1,1, whose items the flag's type then reads.
# argparse's own pattern takes only -1 and -1.5.
_NEGATIVE_NUMBER = re.compile(
    rf"-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:e[+-]?{_DIGITS})?|inf(?:inity)?|nan)"
    r"(?:,.*)?\Z",
    re.IGNORECASE | re.DOTALL,
)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `vdwsurf: ...` line on stderr,
    exit 2, like every other failure, and reads a negative number in any
    form float() accepts as a value (_NEGATIVE_NUMBER); its subcommands
    inherit both."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

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
    p_energy.add_argument("--method", choices=_METHOD_CHOICES, default="closed")
    p_energy.set_defaults(handler=cmd_energy, parser=p_energy)

    p_scan = sub.add_parser("scan", help="sweep z0 or rho0 into a CSV file")
    _add_common_energy_flags(p_scan)
    p_scan.add_argument("--method", choices=_SCAN_METHOD_CHOICES, default="closed")
    p_scan.add_argument("--var", choices=("z0", "rho0"), default="z0")
    p_scan.add_argument("--from", dest="from_value", type=_finite, default=None)
    p_scan.add_argument("--to", dest="to_value", type=_finite, default=None)
    p_scan.add_argument("--points", type=int, default=50)
    p_scan.add_argument("--log", action="store_true")
    p_scan.add_argument("--normalize", choices=("none", "R3", "a3"), default="none")
    p_scan.add_argument("--out", default=None, metavar="FILE")
    p_scan.set_defaults(handler=cmd_scan, parser=p_scan)

    p_validate = sub.add_parser("validate", help="run invariant suites")
    p_validate.add_argument(
        "--suite", choices=("bc", "symmetry", "limits", "threeway", "all"), default="all"
    )
    p_validate.add_argument("--seed", type=int, default=0)
    p_validate.set_defaults(handler=cmd_validate)
    return parser


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first call to main: parsing
    leaves no state in it, and building it costs about 1 ms. It reads a
    command line itself only if no subcommand's name starts it (_parse)."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """The options of a command line, read by the parser of the subcommand
    argv[0] names as the top-level parser would hand them on, less the
    unused `command`; the top-level parser reads any other line."""
    parser = _shared_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if argv and argv[0] in commands:
        return commands[argv[0]].parse_args(argv[1:])
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line; return its exit code. The subcommand's parser
    reads the tokens, again after a --config file's flags (_parse)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    try:
        if getattr(args, "config", None) is not None:
            # the subcommand, the config's flags, then the command line's:
            # the last value of a flag wins
            flags = _config_flags(args.parser, args.config)
            args = _parse(argv[:1] + flags + argv[1:])
        # numpy raises FloatingPointError, an ArithmeticError, where Python
        # floats would raise ZeroDivisionError or carry inf and NaN on
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return args.handler(args)
    except RegionError as exc:
        sys.stderr.write(f"vdwsurf: region violation: {exc}\n")
        return 3
    except (VdwError, ArithmeticError, ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"vdwsurf: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
