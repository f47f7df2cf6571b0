"""Fit near-contact expansion coefficients of the on-axis brackets and
compare them with the analytic values.

Both geometries carry the bracket 1 - s + s^2 + c3 s^3 + ... in the gap
s = z0/R - 1. The grounded sphere has c3 = -7/8. The boss hat has
c3 = -3/8: its plane-mirror images contribute +1/2 s^3 at cubic order,
so a transcription quoting -7/8 for the boss hat is off by exactly that
mirror term (see the closed-form module docstrings).

Each coefficient is printed with its spread: how far the fit over a
second window, the first one scaled by 2, moves it. The higher orders
absorb the truncated tail of the series, so their spread is large
(about 1e-2 for s^4 and 0.5 to 1 for s^5 with the default window):
read them to the digits the spread leaves, not to all six decimals.
"""

import argparse

from vdwsurf import GeometryKind
from vdwsurf.closed import (
    BOSSHAT_EXPANSION_C3,
    SPHERE_EXPANSION_C3,
    fit_expansion_coefficients,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", type=int, default=6)
    parser.add_argument("--window", type=float, nargs=2, default=(1e-4, 1e-2))
    parser.add_argument("--points", type=int, default=60)
    args = parser.parse_args()

    analytic = {
        GeometryKind.GROUNDED_SPHERE: (1.0, -1.0, 1.0, SPHERE_EXPANSION_C3),
        GeometryKind.BOSS_HAT: (1.0, -1.0, 1.0, BOSSHAT_EXPANSION_C3),
    }
    window = tuple(args.window)
    second = (2.0 * window[0], 2.0 * window[1])
    for kind, expected in analytic.items():
        coef, coef2 = (
            fit_expansion_coefficients(kind, orders=args.orders, window=w, n_points=args.points)
            for w in (window, second)
        )
        print(f"{kind.value}: fitted coefficients over s in {window}, "
              f"spread = change when fitted over {second}")
        for order, (c, c2) in enumerate(zip(coef, coef2)):
            line = f"  s^{order}: {c:+.6f}  spread {abs(c - c2):.1e}"
            if order < len(expected):
                line += f"   (analytic {expected[order]:+.4f}, dev {abs(c - expected[order]):.2e})"
            print(line)
    dev = abs(
        fit_expansion_coefficients(GeometryKind.BOSS_HAT)[3] - SPHERE_EXPANSION_C3
    )
    print(
        f"boss-hat c3 distance from the sphere value -7/8: {dev:.4f}"
        " (= 1/2, the plane-mirror contribution)"
    )


if __name__ == "__main__":
    main()
