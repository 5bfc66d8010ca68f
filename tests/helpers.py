"""Small utilities shared by the test modules."""

import numpy as np

from mvrep.geometry import ConvexHull3


def f1_score(pred: np.ndarray, truth: np.ndarray) -> float:
    """F1 of two boolean masks."""
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    tp = np.sum(pred & truth)
    fp = np.sum(pred & ~truth)
    fn = np.sum(~pred & truth)
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2.0 * tp / denom


def max_outside_distance(points: np.ndarray, hull: ConvexHull3) -> float:
    """Largest signed distance of any point outside any hull facet plane.

    Zero or negative means every point is inside-or-on the hull.
    """
    points = np.asarray(points, dtype=np.float64)
    a = points[hull.facets[:, 0]]
    b = points[hull.facets[:, 1]]
    c = points[hull.facets[:, 2]]
    normals = np.cross(b - a, c - a)
    norms = np.linalg.norm(normals, axis=1)
    keep = norms > 0
    normals = normals[keep] / norms[keep, None]
    offsets = np.einsum("ij,ij->i", normals, a[keep])
    signed = points @ normals.T - offsets
    return float(signed.max()) if signed.size else 0.0
