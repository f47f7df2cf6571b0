"""Check the scan CSV's numpy formatter against Python's "%.17g", byte for byte.

    PYTHONPATH=src python scripts/check_csv_format.py [--cells N] [--seed S]

vdwsurf._g17 writes the `%.17g` bytes of each cell from Dekker's exact
product in float64 arithmetic, which holds only where numpy's float64
multiplication and addition round correctly. This script formats N
(default 2,000,000) doubles of random finite bit patterns, in rows of three,
and then every power of ten from 1e-323 to 1e308 with its neighbours one
ulp above and below, and compares every row with "%.17g" % cell. It prints
the cells compared, how many the formatter left to % (out of its range,
not finite, or too close to a rounding tie to decide), and each differing
row up to ten. Exits 1 if any byte differs, else 0.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from vdwsurf import _g17

_CHUNK = 60_000   # cells per call: keeps the check's memory to a few tens of MB


def _differing_rows(cells: np.ndarray) -> list[tuple[str, str]]:
    """(formatter row, % row) of each row of cells, three per row, that differs."""
    columns = cells.reshape(-1, 3).T
    got = _g17.rows(columns, "\n").splitlines()
    want = ["%.17g,%.17g,%.17g," % row for row in zip(*(c.tolist() for c in columns))]
    return [(g, w) for g, w in zip(got, want) if g != w] + (
        [("<%d rows>" % len(got), "<%d rows>" % len(want))] if len(got) != len(want) else [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", type=int, default=2_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.cells < 3:
        parser.error("--cells must be >= 3")

    rng = np.random.default_rng(args.seed)

    def batches():
        for start in range(0, args.cells, _CHUNK):
            bits = rng.integers(0, 2**64, size=min(_CHUNK, args.cells - start), dtype=np.uint64)
            doubles = bits.view(np.float64)
            yield doubles[np.isfinite(doubles)]
        powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
        yield np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0),
                              -powers])

    compared = left = 0
    differing: list[tuple[str, str]] = []
    for cells in batches():
        cells = np.concatenate([cells, np.ones(-len(cells) % 3)])
        compared += len(cells)
        left += int(_g17._cells(cells)[1].sum())
        differing += _differing_rows(cells)
    print(f"{compared} cells compared, {left} left to %, {len(differing)} rows differ")
    for got, want in differing[:10]:
        print(f"  got  {got}\n  want {want}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
