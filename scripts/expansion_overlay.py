"""Overlay the exact on-axis energies with their third-order gap
expansions for the grounded sphere and the boss hat.

Writes log-log data (gap s = z0/R - 1 against |U| * R^3) for the exact
curves and both expansions, and prints the relative expansion error at
the window edges. The two geometries share the expansion 1 - s + s^2
through second order and differ only in the cubic coefficient.
"""

import argparse

import numpy as np

from vdwsurf import (
    DipoleVariances,
    VarianceFrame,
    u_bosshat_expansion3,
    u_grounded_sphere,
    u_sphere_expansion3,
)
from vdwsurf._errata import u_bosshat


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--s-min", type=float, default=1e-3)
    parser.add_argument("--s-max", type=float, default=0.45)
    parser.add_argument("--points", type=int, default=80)
    parser.add_argument("--out", default="expansion_overlay.csv")
    args = parser.parse_args()

    iso_cyl = DipoleVariances.isotropic(1.0, VarianceFrame.CYLINDRICAL_LOCAL)
    gaps = np.geomspace(args.s_min, args.s_max, args.points)

    rows = []
    for s in gaps:
        z0 = 1.0 + s
        exact_sphere = u_grounded_sphere(1.0, z0, 1.0).value
        exp_sphere = u_sphere_expansion3(1.0, z0, 1.0).value
        exact_bh = u_bosshat(iso_cyl, 0.0, z0, 1.0).value
        exp_bh = u_bosshat_expansion3(1.0, z0, 1.0).value
        rows.append((s, exact_sphere, exp_sphere, exact_bh, exp_bh))

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("s,U_sphere,U_sphere_exp3,U_bosshat,U_bosshat_exp3\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    print(f"wrote {len(rows)} points to {args.out} (log-spaced in s)")
    for label, idx in (("s_min", 0), ("s_max", -1)):
        s, es, xs, eb, xb = rows[idx]
        print(
            f"{label}={s:.3e}: sphere expansion rel err {abs(xs / es - 1.0):.3e},"
            f" bosshat {abs(xb / eb - 1.0):.3e}"
        )
    s, es, _, eb, _ = rows[0]
    print(f"bosshat/sphere ratio - 1 at s={s:.1e}: {eb / es - 1.0:.3e} (cubic-order split)")


if __name__ == "__main__":
    main()
