"""A 50-digit referee for the dispersion energy, shared by the route
tests: the image sums in mpmath, differentiated by mpmath.diff.  It
shares no code with vdwsurf's G_H or its derivatives.  mpmath is
imported lazily; the tests that use the referee skip without it
(pytest.importorskip("mpmath")).  Also the point samplers the referee
tests draw from."""

import math

import numpy as np

from vdwsurf.geometry import GeometryKind, VarianceFrame

# Near-contact gaps, in units of R (of 1 for the plane).
NEAR_GAPS = 10.0 ** -np.arange(2.0, 13.0)


def referee_g_h(g, r, rp):
    """G_H(r, r') of mpmath vectors, summed from the image definitions:
    mirror -1/|r - Pr'|, Kelvin -(R/|r'|)/|r - R^2 r'/|r'|^2|, mirrored
    Kelvin +(R/|r'|)/|r - P R^2 r'/|r'|^2|, and the isolated sphere's
    neutrality term R/(|r| |r'|), over 4 pi."""
    import mpmath

    def dist(a, b):
        return mpmath.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))

    def flip(a):
        return (a[0], a[1], -a[2])

    if g.kind is GeometryKind.PLANE:
        return -1 / dist(r, flip(rp)) / (4 * mpmath.pi)
    radius = mpmath.mpf(g.radius)
    n2 = sum(c * c for c in rp)
    weight = radius / mpmath.sqrt(n2)
    kelvin = tuple(radius * radius / n2 * c for c in rp)
    total = -weight / dist(r, kelvin)
    if g.kind is GeometryKind.ISOLATED_SPHERE:
        total += weight / mpmath.sqrt(sum(c * c for c in r))
    if g.kind is GeometryKind.BOSS_HAT:
        total += weight / dist(r, flip(kelvin)) - 1 / dist(r, flip(rp))
    return total / (4 * mpmath.pi)


def referee_energy(g, v, point):
    """2 pi sum_m <d_m^2> d_m d'_m G_H at 50 digits (reduced units), the
    mixed derivatives by mpmath.diff along the exact local axes."""
    import mpmath

    with mpmath.workdps(50):
        p = [mpmath.mpf(c) for c in point]
        if v.frame is VarianceFrame.CARTESIAN:
            axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        else:
            rho = mpmath.sqrt(p[0] ** 2 + p[1] ** 2)
            c, s = (p[0] / rho, p[1] / rho) if rho else (1, 0)
            axes = [(c, s, 0), (-s, c, 0), (0, 0, 1)]
        total = mpmath.mpf(0)
        for m, e in zip((v.m1, v.m2, v.m3), axes):
            if m == 0.0:
                continue

            def along(a, b, e=e):
                r = [pi + a * ei for pi, ei in zip(p, e)]
                rp = [pi + b * ei for pi, ei in zip(p, e)]
                return referee_g_h(g, r, rp)

            total += mpmath.mpf(m) * mpmath.diff(along, (0, 0), (1, 1))
        return 2 * mpmath.pi * total


def points_at_gaps(g, rng, gaps):
    """One point at each gap (times R, of 1 for the plane) from the
    surface, in a random direction: above the plane, around the
    spheres, above the boss hat's dome."""
    radius = g.radius or 1.0
    if g.kind is GeometryKind.PLANE:
        points = rng.uniform(-2.0, 2.0, (len(gaps), 3))
        points[:, 2] = gaps
        return points
    u = rng.normal(size=(len(gaps), 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    if g.kind is GeometryKind.BOSS_HAT:
        u[:, 2] = np.abs(u[:, 2])
    return u * (radius * (1.0 + gaps))[:, None]


def rim_points(radius, rng, gaps):
    """Points beside the boss hat's rim, at rho = R (1 + gap) and
    z = R gap, at random azimuths."""
    phi = rng.uniform(-math.pi, math.pi, len(gaps))
    rho = radius * (1.0 + gaps)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), radius * gaps])
