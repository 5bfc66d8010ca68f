"""Hidden point removal by spherical flipping.

Points are reflected about a large sphere centred on the viewpoint; a point
is classified visible exactly when its flipped image is a vertex of the
convex hull of the flipped set together with the viewpoint.  The flip radius
is ``radius_factor`` times the farthest point distance, computed on the set
actually passed in (cull before calling for frustum semantics).
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    DegenerateInputError,
    _as_points,
    bounding_box,
    convex_hull_3d,
    spherical_flip,
)

__all__ = ["visible_points"]


def visible_points(points, viewpoint, radius_factor: float, *, seed: int = 0) -> np.ndarray:
    """Indices of points visible from ``viewpoint``.

    Args:
        points: (n, 3) array.
        viewpoint: finite camera position.
        radius_factor: flip radius as a multiple of the farthest point
            distance; must be finite and >= 1 so the flip sphere covers the set.
            Densely sampled convex exteriors are insensitive to it over
            10..1000, but concave interiors (rooms) lose grazing surfaces
            badly below a few hundred, hence ``PipelineConfig``'s large
            default.  Very large factors do start to leak back-surface
            points once sampling gets sparse, so match the factor to the
            scene, not the other way round.
        seed: seeds the one jitter retry used when the flipped set is
            planar, collinear or repeated; the visible set of such a
            degenerate scene is approximate (ROADMAP item 13).

    Returns:
        Sorted array of visible indices into the input.  Sets with fewer
        than 4 points are returned in full: a hull cannot distinguish them.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("visibility of an empty point set is undefined")
    if not 1.0 <= radius_factor < np.inf:
        raise ValueError(f"radius_factor must be finite and >= 1, got {radius_factor}")
    vp = np.asarray(viewpoint, dtype=np.float64).reshape(3)
    if not np.isfinite(vp).all():
        raise ValueError(f"viewpoint must be finite, got {vp.tolist()}")

    radius = radius_factor * float(np.linalg.norm(pts - vp, axis=1).max())
    # The flip rejects a point that coincides with the viewpoint, small sets too.
    flipped = spherical_flip(pts, vp, radius)
    if n < 4:
        return np.arange(n, dtype=np.intp)

    hull_input = np.vstack([flipped, vp])
    try:
        hull = convex_hull_3d(hull_input)
    except DegenerateInputError:
        # One deterministic retry with a tiny seeded jitter.  The input holds
        # the viewpoint and a point at least EPS_DIST from it, so the scale is
        # positive and the jitter spreads even planar, collinear or repeated
        # points over three dimensions; a second rejection would propagate.
        rng = np.random.default_rng(seed)
        scale = 1e-7 * bounding_box(hull_input).diameter
        hull = convex_hull_3d(hull_input + rng.normal(size=hull_input.shape) * scale)
    # vertex_indices is sorted and the filter keeps its order.
    visible = hull.vertex_indices[hull.vertex_indices < n]
    return visible.astype(np.intp)
