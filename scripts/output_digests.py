"""Print the SHA-256 digest of each default output of the vdwsurf CLI.

    PYTHONPATH=src python scripts/output_digests.py > digests.txt

One `name sha256` line per output: the scan CSV of each geometry, route
(closed, numeric, oracle) and sweep, 50 points each, then the report of
`validate --suite all` at each of four seeds.  The sweeps are a bulk z0
sweep, a bulk rho0 sweep, a near-contact z0 sweep on a log grid from a
gap of 1e-6 R, and a near-contact rho0 sweep that starts at the boss
hat's rim.  Two checkouts print the same lines exactly where their
outputs agree byte for byte, so `diff` of two runs names every output a
change moved.  Exits 1, naming the output, if a command does not exit 0.
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


def outputs(workdir: str):
    """(name, argv, path of the output file or None for standard output)."""
    for geometry, (flags, sweeps) in GEOMETRIES.items():
        for method in METHODS:
            for sweep, sweep_flags in sweeps.items():
                name = f"scan-{geometry}-{method}-{sweep}"
                path = os.path.join(workdir, name + ".csv")
                argv = ["scan", *flags, "--method", method, "--isotropic", "1",
                        "--points", "50", *sweep_flags, "--out", path]
                yield name, argv, path
    for seed in SEEDS:
        yield f"validate-all-seed{seed}", ["validate", "--suite", "all", "--seed", str(seed)], None


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
