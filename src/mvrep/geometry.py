"""Core geometry: bounding boxes, spherical flipping, convex hulls, frustum tests.

Conventions used throughout the package: right-handed world frame with z up,
yaw measured about +z from the +x axis, pitch positive upward.  All distances
are metres, all angles in function signatures are degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CULL_BLOCK_ROWS",
    "EPS_DIST",
    "Aabb",
    "FovSpec",
    "Perspective",
    "ConvexHull3",
    "DegenerateInputError",
    "bounding_box",
    "camera_axes",
    "frustum_mask",
    "spherical_flip",
    "convex_hull_3d",
]

# Closer than this to a viewpoint and a point has no usable ray direction.
EPS_DIST = 1e-6

# Rows per frustum-cull block; each block's temporaries stay in cache.
CULL_BLOCK_ROWS = 1 << 15


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned bounding box given by its two extreme corners."""

    lo: np.ndarray
    hi: np.ndarray

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))


def _as_points(points) -> np.ndarray:
    """``points`` as an (n, 3) float64 array; any other shape raises."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) point array, got shape {pts.shape}")
    return pts


def bounding_box(points) -> Aabb:
    """Tight axis-aligned bounds of a non-empty point set.

    Args:
        points: (n, 3) array.

    Returns:
        Aabb with ``lo = min`` and ``hi = max`` taken per axis.
    """
    pts = _as_points(points)
    if pts.shape[0] == 0:
        raise ValueError("bounding box of an empty point set is undefined")
    # One reduction per axis: numpy reduces a strided column several times
    # faster than axis 0 of an (n, 3) array.
    return Aabb(np.array([c.min() for c in pts.T]), np.array([c.max() for c in pts.T]))


@dataclass(frozen=True)
class FovSpec:
    """Pinhole field-of-view and depth window of the simulated sensor."""

    hfov_deg: float = 70.0
    vfov_deg: float = 60.0
    min_depth: float = 0.5
    max_depth: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.hfov_deg < 180.0:
            raise ValueError(f"hfov_deg must be in (0, 180), got {self.hfov_deg}")
        if not 0.0 < self.vfov_deg < 180.0:
            raise ValueError(f"vfov_deg must be in (0, 180), got {self.vfov_deg}")
        if not 0.0 < self.min_depth < self.max_depth:
            raise ValueError(
                f"need 0 < min_depth < max_depth, got {self.min_depth}, {self.max_depth}"
            )

    @property
    def reach(self) -> float:
        """Farthest distance from the viewpoint of a point inside the frustum.

        That point lies on a far corner: at depth ``max_depth``, with the
        lateral and vertical offsets ``max_depth * tan(fov / 2)``.
        """
        tan_h = math.tan(math.radians(self.hfov_deg) / 2.0)
        tan_v = math.tan(math.radians(self.vfov_deg) / 2.0)
        return self.max_depth * math.sqrt(1.0 + tan_h * tan_h + tan_v * tan_v)


@dataclass(frozen=True)
class Perspective:
    """A single simulated camera pose: position plus yaw/pitch heading."""

    perspective_id: int
    viewpoint: tuple[float, float, float]
    yaw_deg: float
    pitch_deg: float
    fov: FovSpec


def camera_axes(yaw_deg: float, pitch_deg: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal (forward, right, up) axes for a yaw-then-pitch heading.

    Yaw rotates about world +z starting from +x; pitch then tilts the forward
    axis about the (still horizontal) right axis, positive upward.
    """
    yaw = math.radians(yaw_deg)
    pitch = math.radians(pitch_deg)
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    forward = np.array([cp * cy, cp * sy, sp])
    right = np.array([sy, -cy, 0.0])
    up = np.array([-sp * cy, -sp * sy, cp])
    return forward, right, up


def frustum_mask(points, perspective: Perspective) -> np.ndarray:
    """Vectorized frustum test.

    With ``(x, y, z)`` a point minus the viewpoint, its depth ``d``, lateral
    and vertical offsets are ``x*a[0] + y*a[1] + z*a[2]`` on the forward,
    right and up axes ``a``.  A point is inside when ``min_depth <= d <=
    max_depth``, ``|lateral| <= d * tan(hfov/2)`` and ``|vertical| <= d *
    tan(vfov/2)``, all bounds inclusive.  Each step rounds once per row, so
    a row's result depends on no other row and on no BLAS or SIMD code path.

    Returns:
        Boolean mask of shape (n,).
    """
    pts = _as_points(points)
    fov = perspective.fov
    f, r, u = camera_axes(perspective.yaw_deg, perspective.pitch_deg)
    vp = np.asarray(perspective.viewpoint, dtype=np.float64)
    tan_h = math.tan(math.radians(fov.hfov_deg) / 2.0)
    tan_v = math.tan(math.radians(fov.vfov_deg) / 2.0)
    mask = np.zeros(len(pts), dtype=bool)
    # Block by block, the side tests run only on rows inside the depth window.
    for start in range(0, len(pts), CULL_BLOCK_ROWS):
        x, y, z = (pts[start:start + CULL_BLOCK_ROWS] - vp).T
        d = x * f[0] + y * f[1] + z * f[2]
        near = np.flatnonzero((d >= fov.min_depth) & (d <= fov.max_depth))
        x, y, z, d = x[near], y[near], z[near], d[near]
        inside = np.abs(x * r[0] + y * r[1] + z * r[2]) <= d * tan_h
        inside &= np.abs(x * u[0] + y * u[1] + z * u[2]) <= d * tan_v
        mask[start + near] = inside
    return mask


def spherical_flip(points, viewpoint, radius: float) -> np.ndarray:
    """Reflect points about a sphere of ``radius`` centred on the viewpoint.

    With q = p - viewpoint, the image is ``q * (2 * radius / |q| - 1)`` moved
    back to world coordinates.  The map keeps each ray direction, swaps the
    radial order of points on a common ray, and is an involution for any
    point with ``0 < |q| <= 2 * radius``; that bound is also the validity
    domain enforced here, so applying the flip twice with one radius is
    legal.  Hidden point removal itself always calls with the radius at or
    above the farthest point distance.

    Args:
        points: (n, 3) array.
        viewpoint: flip centre.
        radius: sphere radius; at least half the farthest point distance.

    Returns:
        (n, 3) array of flipped points.
    """
    pts = _as_points(points)
    vp = np.asarray(viewpoint, dtype=np.float64).reshape(3)
    rel = pts - vp
    norms = np.linalg.norm(rel, axis=1)
    if pts.shape[0]:
        nearest = int(np.argmin(norms))
        if norms[nearest] < EPS_DIST:
            raise ValueError(
                f"point {nearest} lies within {EPS_DIST} of the viewpoint; "
                "its ray direction is undefined"
            )
        farthest = float(norms.max())
        if 2.0 * radius < farthest:
            raise ValueError(
                f"farthest point distance {farthest} exceeds twice the flip "
                f"radius {radius}; the image would cross the viewpoint"
            )
    return rel * (2.0 * radius / norms - 1.0)[:, None] + vp


class DegenerateInputError(ValueError):
    """Raised when qhull rejects a 3D hull's input as degenerate."""


@dataclass(frozen=True)
class ConvexHull3:
    """Convex hull of a 3D point set.

    ``vertex_indices`` is the sorted set of extreme-point indices into the
    input array.
    """

    vertex_indices: np.ndarray


def convex_hull_3d(points) -> ConvexHull3:
    """Extreme points of a 3D point set.

    Uses quickhull (qhull via scipy), which is also the one test of
    degeneracy: input that qhull rejects, such as fewer than 4 points or
    points spanning fewer than 3 dimensions, raises
    :class:`DegenerateInputError`.  Option ``Q7`` (process the newest
    facets first) builds a room frustum's hull about a fifth faster and,
    unlike ``Q0``, keeps qhull's premerge and roundoff handling; a test
    checks that it keeps the vertex sets of the default options.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("convex hull of an empty point set is undefined")
    # Imported here so that commands which build no hull start without scipy.
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(pts, qhull_options="Q7")
    except QhullError as exc:
        raise DegenerateInputError(f"qhull rejected hull input of {n} points") from exc
    # Counting corner uses gives the sorted vertex set without a sort.
    vertices = np.flatnonzero(np.bincount(hull.simplices.ravel(), minlength=n))
    return ConvexHull3(vertex_indices=vertices)
