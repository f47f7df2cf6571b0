"""Sweep the on-axis boss-hat dispersion energy and summarize its shape.

Writes a CSV of z0/R against U * R^3 for an atom with the vertical
dipole variance dominant, then reports the monotonicity of the curve
and its near-contact and far-field power laws.
"""

import argparse
import math

import numpy as np

from vdwsurf import DipoleVariances, VarianceFrame
from vdwsurf._errata import u_bosshat


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=float, default=1.0)
    parser.add_argument("--from", dest="lo", type=float, default=1.05)
    parser.add_argument("--to", dest="hi", type=float, default=5.0)
    parser.add_argument("--points", type=int, default=200)
    parser.add_argument("--out", default="bosshat_axis_scan.csv")
    args = parser.parse_args()

    variances = DipoleVariances(0.0, 0.0, 1.0, VarianceFrame.CYLINDRICAL_LOCAL)
    ratios = np.linspace(args.lo, args.hi, args.points)
    values = [
        u_bosshat(variances, 0.0, r * args.radius, args.radius).value * args.radius**3
        for r in ratios
    ]

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("z0_over_R,U_times_R3\n")
        for r, v in zip(ratios, values):
            fh.write(f"{r:.17g},{v:.17g}\n")

    diffs = np.diff(values)
    print(f"wrote {args.points} points to {args.out}")
    print(f"all values negative: {all(v < 0 for v in values)}")
    print(f"monotone increasing toward zero: {bool(np.all(diffs > 0))}")
    near = abs(values[0]) * (ratios[0] - 1.0) ** 3
    print(f"near-contact (z0/R={ratios[0]:.3f}): |U| R^3 (z0/R-1)^3 = {near:.4f}")
    far_slope = (math.log(abs(values[-1])) - math.log(abs(values[-2]))) / (
        math.log(ratios[-1]) - math.log(ratios[-2])
    )
    print(f"far-field local log-log slope at z0/R={ratios[-1]:.2f}: {far_slope:.3f}")


if __name__ == "__main__":
    main()
