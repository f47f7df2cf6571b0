"""Geometry primitives: positions, conductor configurations, dipole data.

Positions are stored Cartesian; cylindrical coordinates are derived
views.  The axisymmetric closed forms are cylindrical, but the
differentiation engine works along Cartesian axes, so Cartesian storage
keeps the hot path simple.  The region helpers also take arrays of
points, shape (..., 3), so batched routes test every point at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .units import Mode, UnitSystem


class GeometryKind(enum.Enum):
    PLANE = "plane"
    GROUNDED_SPHERE = "gsphere"
    ISOLATED_SPHERE = "isphere"
    BOSS_HAT = "bosshat"


@dataclass(frozen=True)
class Position:
    x: float
    y: float
    z: float

    @property
    def rho(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def phi(self) -> float:
        # Convention: phi = 0 on the axis, range (-pi, pi].
        if self.x == 0.0 and self.y == 0.0:
            return 0.0
        v = math.atan2(self.y, self.x)
        return math.pi if v <= -math.pi else v

    @property
    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


def as_points(p: Position | np.ndarray) -> np.ndarray:
    """Coordinates of a Position as a (3,) array, or of an array of
    points as a float array of shape (..., 3)."""
    if isinstance(p, Position):
        return np.array((p.x, p.y, p.z))
    return np.asarray(p, dtype=float)


def point_norms(points: np.ndarray) -> np.ndarray:
    """|p| along the last axis, summed in the order of Position.norm."""
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    return np.sqrt(x * x + y * y + z * z)


@dataclass(frozen=True)
class GeometryConfig:
    kind: GeometryKind
    radius: float = 0.0   # conductor radius; unused for PLANE

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError("radius must be >= 0")
        if self.kind is not GeometryKind.PLANE and not self.radius > 0.0:
            raise ValueError(f"{self.kind.value} requires radius > 0")

    @classmethod
    def plane(cls) -> "GeometryConfig":
        return cls(GeometryKind.PLANE)

    @classmethod
    def grounded_sphere(cls, radius: float) -> "GeometryConfig":
        return cls(GeometryKind.GROUNDED_SPHERE, radius)

    @classmethod
    def isolated_sphere(cls, radius: float) -> "GeometryConfig":
        return cls(GeometryKind.ISOLATED_SPHERE, radius)

    @classmethod
    def boss_hat(cls, radius: float) -> "GeometryConfig":
        return cls(GeometryKind.BOSS_HAT, radius)


def surface_distance(g: GeometryConfig, p: Position | np.ndarray):
    """Distance from p to the conductor; positive inside the physical
    region, NaN where a coordinate it depends on is NaN (z for the
    plane, any for the others).  A float for a Position, an array for
    an array of points."""
    points = as_points(p)
    z = points[..., 2]
    if g.kind is GeometryKind.PLANE:
        distance = z
    elif g.kind in (GeometryKind.GROUNDED_SPHERE, GeometryKind.ISOLATED_SPHERE):
        distance = point_norms(points) - g.radius
    else:
        distance = np.minimum(z, point_norms(points) - g.radius)
    return float(distance) if isinstance(p, Position) else distance


def physical_region(g: GeometryConfig, p: Position | np.ndarray):
    """True where p lies strictly in the vacuum region outside the
    conductor, that is where its surface distance is positive: a bool
    for a Position, a bool array for an array."""
    return surface_distance(g, p) > 0.0


class VarianceFrame(enum.Enum):
    CARTESIAN = "cartesian"
    CYLINDRICAL_LOCAL = "cylindrical_local"


@dataclass(frozen=True)
class DipoleVariances:
    """Diagonal dipole-moment second moments <d_1^2>, <d_2^2>, <d_3^2>.

    In the CARTESIAN frame the components are (x, y, z); in
    CYLINDRICAL_LOCAL they are (rho, phi, z) at the atom's azimuth.
    Off-diagonal moments vanish in the chosen basis.
    """

    m1: float
    m2: float
    m3: float
    frame: VarianceFrame = VarianceFrame.CARTESIAN

    def __post_init__(self) -> None:
        # written as "not >= 0" so that NaN is rejected too
        if not (self.m1 >= 0.0 and self.m2 >= 0.0 and self.m3 >= 0.0):
            raise ValueError("dipole variances must be >= 0")

    @property
    def total(self) -> float:
        return self.m1 + self.m2 + self.m3

    def contract(self, kernel):
        """sum_a <d_a^2> K_a of a kernel per unit variance on the frame's
        axes: the energy in every route, never a sum of the variances."""
        return self.m1 * kernel[0] + self.m2 * kernel[1] + self.m3 * kernel[2]

    @classmethod
    def isotropic(
        cls, total: float, frame: VarianceFrame = VarianceFrame.CARTESIAN
    ) -> "DipoleVariances":
        third = total / 3.0   # exact thirds by construction
        return cls(third, third, third, frame)

    @classmethod
    def from_dominant_transition(
        cls, alpha: float, omega10: float, units: UnitSystem
    ) -> "DipoleVariances":
        # <d^2> = (3/2) * hbar * omega10 * alpha, exact by construction.
        return cls.isotropic(1.5 * units.hbar * omega10 * alpha)


def local_axes(
    frame: VarianceFrame, p: Position | np.ndarray
) -> tuple[tuple[float, float, float], ...] | np.ndarray:
    """Unit vectors the three variance components refer to at position p.

    For an (N, 3) array of points the axes come as an (N, 3, 3) array,
    axes[i, m] being the m-th unit vector at point i: the identity in
    the Cartesian frame.  The cylindrical axes are built from
    (cos phi, sin phi) = (x, y)/rho, (1, 0) on the axis, by the same
    array operations for a Position and an array.  Below the normal
    range x and y are first scaled by 2^600, exactly, as their ratios
    to a subnormal rho are not unit.
    """
    points = as_points(p).reshape(-1, 3)
    axes = np.repeat(np.eye(3)[None], len(points), axis=0)
    if frame is VarianceFrame.CYLINDRICAL_LOCAL:
        scale = np.where(np.hypot(points[:, 0], points[:, 1]) < np.finfo(float).tiny, 2.0**600, 1.0)
        x, y = points[:, 0] * scale, points[:, 1] * scale
        rho = np.hypot(x, y)
        on_axis = rho == 0.0
        rho = np.where(on_axis, 1.0, rho)
        c = np.where(on_axis, 1.0, x / rho)
        s = np.where(on_axis, 0.0, y / rho)
        axes[:, 0, 0], axes[:, 0, 1], axes[:, 1, 0], axes[:, 1, 1] = c, s, -s, c
    if isinstance(p, Position):
        return tuple(tuple(row) for row in axes[0].tolist())
    return axes


class Method(enum.Enum):
    CLOSED_FORM = "closed_form"
    NUMERIC_EZ = "numeric_ez"
    ORACLE = "oracle"
    EXPANSION3 = "expansion3"


@dataclass(frozen=True)
class EnergyResult:
    """An energy with its numeric error estimate: floats for one
    position, (N,) arrays for an (N, 3) array of positions.

    value is in J (SI mode) or dimensionless (reduced mode);
    err_estimate is absolute, 0 for exact closed forms.
    """

    value: float | np.ndarray
    err_estimate: float | np.ndarray
    method: Method
    units: Mode
