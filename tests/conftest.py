import numpy as np
import pytest

from vdwsurf.geometry import DipoleVariances, GeometryConfig, VarianceFrame

GAP = 1e-6   # near-contact gap, in units of R (of 1 for the plane)


def _sphere_grid(radius):
    near = radius * (1.0 + GAP)
    return [
        (0.0, 0.0, 2.0 * radius),
        (1.5 * radius, 0.3 * radius, -0.7 * radius),
        (0.0, 0.0, near),                       # on the axis, near contact
        (0.6 * near, 0.0, 0.8 * near),          # off the axis, near contact
    ]


def _grids():
    cartesian = DipoleVariances(0.5, 1.0, 2.0)
    cylindrical = DipoleVariances(0.5, 1.0, 2.0, VarianceFrame.CYLINDRICAL_LOCAL)
    return {
        "plane": (
            GeometryConfig.plane(),
            cartesian,
            [(0.0, 0.0, 0.3), (0.5, 0.0, 1.2), (-0.7, 0.4, 2.5),
             (0.0, 0.0, GAP), (0.05, 0.0, GAP)],
        ),
        "gsphere": (GeometryConfig.grounded_sphere(1.3), cartesian, _sphere_grid(1.3)),
        "isphere": (GeometryConfig.isolated_sphere(0.7), cartesian, _sphere_grid(0.7)),
        "bosshat": (
            GeometryConfig.boss_hat(1.0),
            cylindrical,
            [(0.7, 0.0, 1.1), (2.0, 0.0, 0.3), (0.5, 0.5, 1.2),
             (0.0, 0.0, 1.0 + GAP),                 # on the axis, near contact
             (1.0 + GAP, 0.0, GAP),                 # at the rim
             (0.0, -(1.0 + 10 * GAP), 2 * GAP)],    # at the rim, phi = -pi/2
        ),
    }


@pytest.fixture(params=["plane", "gsphere", "isphere", "bosshat"])
def region_grid(request):
    """(geometry, variances, (N, 3) points) for each geometry: bulk
    points plus near-contact points 1e-6 R from the surface and, for the
    boss hat, points at the rim."""
    g, variances, points = _grids()[request.param]
    return g, variances, np.array(points)
