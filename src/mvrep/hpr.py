"""Hidden point removal by spherical flipping.

Points are reflected about a large sphere centred on the viewpoint; a point
is classified visible exactly when its flipped image is a vertex of the
convex hull of the flipped set together with the viewpoint.  When that set
spans only a plane or a line, the hull is the one within that span.  The
flip radius is ``radius_factor`` times the farthest point distance,
computed on the set actually passed in (cull before calling for frustum
semantics).
"""

from __future__ import annotations

import numpy as np

from .geometry import DegenerateInputError, _as_points, convex_hull_3d, spherical_flip

__all__ = ["visible_points"]

# A scatter axis whose eigenvalue is at most this share of the largest lies
# off the span of the hull input.
_SPAN_RTOL = 1e-12


def visible_points(points, viewpoint, radius_factor: float) -> np.ndarray:
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

    Returns:
        Sorted array of visible indices into the input.  The result depends
        on the inputs alone.  If the flipped set and the viewpoint span only
        a plane or a line, a point is visible when its image is a vertex of
        their hull within that span: of points on one ray only the nearest
        is.  Copies of a visible point share one image, of which the hull
        keeps one copy.
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
    # The flip rejects a point that coincides with the viewpoint.
    flipped = spherical_flip(pts, vp, radius)
    hull_input = np.vstack([flipped, vp])
    try:
        hull = convex_hull_3d(hull_input)
    except DegenerateInputError:
        # The input spans a plane or a line through the viewpoint.  Points
        # added off that span, at the flipped set's scale, keep its extreme
        # points and add none of its other points; a second rejection
        # propagates.
        rel = flipped - vp
        spans, axes = np.linalg.eigh(rel.T @ rel)
        off_span = axes[:, spans <= _SPAN_RTOL * spans[-1]]
        hull = convex_hull_3d(np.vstack([hull_input, vp + radius * off_span.T]))
    # vertex_indices is sorted; the filter drops the viewpoint and the added
    # points and keeps the order.
    visible = hull.vertex_indices[hull.vertex_indices < n]
    return visible.astype(np.intp)
