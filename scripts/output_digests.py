"""Print the SHA-256 digest of each default output of the vdwsurf CLI.

    PYTHONPATH=src python scripts/output_digests.py > digests.txt

One `name sha256` line per output: the scan CSV of each geometry, route
(closed, numeric, oracle) and sweep, 50 points each, then the report of
`validate --suite all` at each of four seeds.  The sphere and the boss
hat also scan by `--method expansion3` on the axis, a log z0 sweep from
a gap of 1e-6 R to z0 = 1.4 R, inside the expansion's window, once plain
and once with `--normalize a3`.  The sweeps are a bulk z0
sweep, a bulk rho0 sweep, a near-contact z0 sweep on a log grid from a
gap of 1e-6 R, and a near-contact rho0 sweep that starts at the boss
hat's rim.  The near-contact z0 sweep runs once more with each
`--normalize` scale that the geometry defines: a3, and R3 but for the
plane.  Next come four long boss-hat scans, one per route, whose grids
span more than one scan chunk: the near-contact z0 sweep (for
expansion3 its own sweep) at 5,000 points, past both 256 and 4096, and
at 600 points for the oracle, past 256 twice.  Then the JSON that
`energy` prints, for each geometry and route at two points: a bulk
point off the axis, and a point 1e-6 R from the surface (for the boss
hat on top of its dome, away from the rim where the closed form
divides by zero).  Each geometry's bulk point is also printed once by
the closed route in SI units, its lengths read in nanometres.  Last come
three closed energies far out, where a power of the lengths overflows
but the energy need not: the plane at z0 = 1e120, the grounded sphere of
R = 2.6e90 at z0 = 2R, and the boss hat of R = 1.3e30 at rho0 = R,
z0 = 5R with variances (0.5, 1, 2).  Each group of lines comes after the
earlier ones so that those keep their order.  Two
checkouts print the same lines exactly where their outputs agree byte
for byte, so `diff` of two runs names every output a change moved.
Exits 1, naming the output, if a command does not exit 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from vdwsurf.cli import main as vdwsurf

NEAR = "1.000001"   # a gap of 1e-6 R on a sphere of radius 1

# (geometry flags, sweeps); each sweep gives the flags of one scan
GEOMETRIES = {
    "plane": (["--geometry", "plane"], {
        "bulk-z0": ["--var", "z0", "--from", "0.5", "--to", "5"],
        "bulk-rho0": ["--var", "rho0", "--z0", "1", "--from", "-2", "--to", "3"],
        "near-z0": ["--var", "z0", "--from", "1e-6", "--to", "1", "--log"],
        "near-rho0": ["--var", "rho0", "--z0", "1e-6", "--from", "-2", "--to", "3"],
    }),
    **{name: (["--geometry", name, "--radius", "1"], {
        "bulk-z0": ["--var", "z0", "--from", "1.5", "--to", "5"],
        "bulk-rho0": ["--var", "rho0", "--z0", "2", "--from", "-2", "--to", "3"],
        "near-z0": ["--var", "z0", "--from", NEAR, "--to", "2", "--log"],
        "near-rho0": ["--var", "rho0", "--z0", "0", "--from", NEAR, "--to", "3", "--log"],
    }) for name in ("gsphere", "isphere")},
    "bosshat": (["--geometry", "bosshat", "--radius", "1"], {
        "bulk-z0": ["--var", "z0", "--from", "1.5", "--to", "5"],
        "bulk-rho0": ["--var", "rho0", "--z0", "1.5", "--from", "-2", "--to", "3"],
        "near-z0": ["--var", "z0", "--from", NEAR, "--to", "2", "--log"],
        "near-rho0": ["--var", "rho0", "--z0", "1e-6", "--from", NEAR, "--to", "3", "--log"],
    }),
}
METHODS = ("closed", "numeric", "oracle")
SEEDS = (0, 1, 12345, 5864892553)
NORMALIZED = "near-z0"   # the sweep also scanned with each --normalize scale
EXPANSION_GEOMETRIES = ("gsphere", "bosshat")
EXPANSION_SWEEP = ["--var", "z0", "--from", NEAR, "--to", "1.4", "--log"]   # 0 < s < 0.5
EXPANSION_SCANS = [("near-z0", EXPANSION_SWEEP),
                   ("near-z0-a3", [*EXPANSION_SWEEP, "--normalize", "a3"])]
LONG_POINTS = {"closed": 5000, "numeric": 5000, "oracle": 600, "expansion3": 5000}
# (name, flags) of each closed energy far out
FAR_ENERGIES = [
    ("plane-z0-1e120", ["--geometry", "plane", "--isotropic", "1", "--z0", "1e120"]),
    ("gsphere-R-2.6e90", ["--geometry", "gsphere", "--radius", "2.6e90", "--isotropic", "1",
                          "--z0", "5.2e90"]),
    ("bosshat-R-1.3e30", ["--geometry", "bosshat", "--radius", "1.3e30", "--variances",
                          "0.5,1,2", "--rho0", "1.3e30", "--z0", "6.5e30"]),
]
# (rho0, z0) of each energy point, R = 1
ENERGY_POINTS = {
    "plane": {"bulk": ("0.7", "1.3"), "near": ("0.7", "1e-6")},
    "gsphere": {"bulk": ("0.7", "1.6"), "near": ("0", NEAR)},
    "isphere": {"bulk": ("0.7", "1.6"), "near": ("0", NEAR)},
    "bosshat": {"bulk": ("0.7", "1.1"), "near": ("0", NEAR)},
}


def scan(workdir: str, geometry: str, method: str, sweep: str, flags: list[str]):
    """(name, argv, path of the CSV) of one scan with the given flags."""
    name = f"scan-{geometry}-{method}-{sweep}"
    path = os.path.join(workdir, name + ".csv")
    argv = ["scan", *GEOMETRIES[geometry][0], "--method", method, "--isotropic", "1",
            *flags, "--out", path]
    return name, argv, path


def outputs(workdir: str):
    """(name, argv, path of the output file or None for standard output)."""
    for geometry, (_, sweeps) in GEOMETRIES.items():
        scans = list(sweeps.items())
        scans += [(f"{NORMALIZED}-{scale}", [*sweeps[NORMALIZED], "--normalize", scale])
                  for scale in (("a3",) if geometry == "plane" else ("R3", "a3"))]
        routes = [(method, scans) for method in METHODS]
        if geometry in EXPANSION_GEOMETRIES:
            routes.append(("expansion3", EXPANSION_SCANS))
        for method, method_scans in routes:
            for sweep, sweep_flags in method_scans:
                yield scan(workdir, geometry, method, sweep, ["--points", "50", *sweep_flags])
    for seed in SEEDS:
        yield f"validate-all-seed{seed}", ["validate", "--suite", "all", "--seed", str(seed)], None
    near_z0 = GEOMETRIES["bosshat"][1]["near-z0"]
    for method, points in LONG_POINTS.items():
        sweep_flags = EXPANSION_SWEEP if method == "expansion3" else near_z0
        yield scan(workdir, "bosshat", method, f"near-z0-{points}",
                   ["--points", str(points), *sweep_flags])
    for geometry, points in ENERGY_POINTS.items():
        for method in METHODS:
            for point, (rho0, z0) in points.items():
                yield (f"energy-{geometry}-{method}-{point}",
                       ["energy", *GEOMETRIES[geometry][0], "--method", method,
                        "--isotropic", "1", "--rho0", rho0, "--z0", z0], None)
        rho0, z0 = points["bulk"]
        radius = [] if geometry == "plane" else ["--radius", "1e-9"]
        yield (f"energy-{geometry}-closed-bulk-si",
               ["energy", "--geometry", geometry, *radius, "--units", "si",
                "--isotropic", "1e-59", "--rho0", f"{rho0}e-9", "--z0", f"{z0}e-9"], None)
    for name, flags in FAR_ENERGIES:
        yield f"energy-closed-far-{name}", ["energy", *flags], None


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv, path in outputs(workdir):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = vdwsurf(argv)
            if status != 0:
                sys.stderr.write(f"{name}: vdwsurf {' '.join(argv)} exited {status}\n")
                return 1
            if path is None:
                data = stdout.getvalue().encode("utf-8")
            else:
                with open(path, "rb") as fh:
                    data = fh.read()
            print(name, hashlib.sha256(data).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
