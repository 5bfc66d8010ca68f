"""Independent reference implementations used to cross-check the fast paths.

Everything in this module is deliberately written from first principles and
never calls the modules it is meant to validate.  The implementations trade
speed for checkability; sizes are bounded accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "SphereCapSample",
    "cap_visibility_sphere",
    "raycast_visibility",
    "median_nn_spacing",
    "hull_bruteforce",
    "maxpool_bruteforce",
]


@dataclass(frozen=True)
class SphereCapSample:
    """Uniform sphere sample together with its exact visibility answer."""

    points: np.ndarray
    visible: np.ndarray
    viewpoint: np.ndarray


def cap_visibility_sphere(
    n_points: int, sphere_radius: float, view_distance: float, seed: int = 0
) -> SphereCapSample:
    """Analytic visibility for a sphere seen from an external viewpoint.

    The viewpoint sits at distance ``view_distance`` from the centre on the
    +z axis.  A surface point at angle theta from that axis is visible iff
    ``cos(theta) >= sphere_radius / view_distance``, which covers a cap with
    expected visible fraction ``(1 - sphere_radius / view_distance) / 2``.
    """
    if not view_distance > sphere_radius > 0.0:
        raise ValueError(
            f"need view_distance > sphere_radius > 0, got "
            f"{view_distance}, {sphere_radius}"
        )
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n_points, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    points = sphere_radius * u
    visible = u[:, 2] >= sphere_radius / view_distance
    viewpoint = np.array([0.0, 0.0, view_distance])
    return SphereCapSample(points=points, visible=visible, viewpoint=viewpoint)


def median_nn_spacing(points: np.ndarray) -> float:
    """Median nearest-neighbour distance; the usual occlusion radius is 2x this."""
    pts = np.asarray(points, dtype=np.float64)
    dists, _ = cKDTree(pts).query(pts, k=2)
    return float(np.median(dists[:, 1]))


OCCLUSION_CONE_RATIO = 20.0
"""Required ratio of along-ray clearance to line distance for an occluder.

A raw "q within occlusion_radius of the sight segment" rule cannot work on
point-sampled surfaces: with the radius at the sample spacing, shoulder-to-
shoulder samples of a single surface erase each other, and every surface
viewed at incidence shallower than 45 degrees vanishes wholesale.  What
separates a genuine blocker from a same-surface neighbour is the ratio
between how far in front of the target it sits (along the ray) and how far
off the sight line it is: neighbours on the target's own surface patch keep
that ratio below cot(incidence), while another sheet crossing the sight
line shows up at a large multiple.  Requiring depth clearance at least 20x
the line distance resolves surfaces down to about 3 degrees of incidence,
which leaves only a thin silhouette band ambiguous.
"""


def raycast_visibility(
    points, viewpoint, occlusion_radius: float
) -> np.ndarray:
    """Ray occlusion visibility against every other point.

    A point p is visible iff no other point q that is strictly closer to
    the viewpoint (a) lies within ``occlusion_radius`` of the sight line
    from the viewpoint to p, measured at q's along-ray foot, and (b) sits
    in front of p by at least ``OCCLUSION_CONE_RATIO`` times that line
    distance.  Condition (b) is what makes the test meaningful on sampled
    surfaces; see the constant's docstring.  The predicate is evaluated
    exactly; a kd-tree over ray directions only prunes pairs that provably
    cannot occlude each other, which keeps the quadratic test usable up to
    roughly 50k points.

    Returns:
        Boolean visibility mask of shape (n,).
    """
    pts = np.asarray(points, dtype=np.float64)
    vp = np.asarray(viewpoint, dtype=np.float64).reshape(3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) point array, got shape {pts.shape}")
    n = pts.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    rel = pts - vp
    dist = np.linalg.norm(rel, axis=1)
    if float(dist.min()) <= 0.0:
        raise ValueError("a point coincides with the viewpoint")
    if not occlusion_radius > 0.0:
        raise ValueError(f"occlusion_radius must be positive, got {occlusion_radius}")
    r = float(occlusion_radius)
    ratio = OCCLUSION_CONE_RATIO
    dirs = rel / dist[:, None]
    hidden = np.zeros(n, dtype=bool)

    # Any occluder q satisfies dist(q) * sin(theta) <= r, so theta is
    # bounded by asin(r / dist(q)); points with dist <= r escape that bound
    # and get an exact pass below instead.
    far_enough = dist > r
    if far_enough.any():
        sin_max = min(1.0, r / float(dist[far_enough].min()))
        chord = 2.0 * np.sin(np.arcsin(sin_max) / 2.0)
        pairs = cKDTree(dirs).query_pairs(chord * (1.0 + 1e-12), output_type="ndarray")
        if pairs.size:
            i, j = pairs[:, 0], pairs[:, 1]
            cos = np.clip(np.einsum("ij,ij->i", dirs[i], dirs[j]), -1.0, 1.0)
            i_near = dist[i] < dist[j]
            d_near = np.where(i_near, dist[i], dist[j])
            d_far = np.where(i_near, dist[j], dist[i])
            # Pruned pairs have cos >= 0, so the occluder's foot t lies on
            # the segment; gap is its distance to the sight line and
            # clearance how far beyond it the target sits.
            t = d_near * cos
            gap = np.sqrt(np.maximum(d_near * d_near - t * t, 0.0))
            clearance = d_far - t
            occludes = (gap <= r) & (clearance >= ratio * gap)
            occludes &= dist[i] != dist[j]
            far = np.where(i_near, j, i)
            hidden[far[occludes]] = True

    # Exact pass for occluders hugging the viewpoint (absent in sane
    # fixtures, where min_depth keeps points well away from it).
    for q in np.flatnonzero(~far_enough):
        t = dirs @ rel[q]
        gap = np.sqrt(np.maximum(dist[q] * dist[q] - t * t, 0.0))
        occludes = (t >= 0.0) & (gap <= r) & (dist - t >= ratio * gap)
        occludes &= dist[q] < dist
        occludes[q] = False
        hidden |= occludes
    return ~hidden


def hull_bruteforce(points, eps_scale: float = 1e-9) -> np.ndarray:
    """Exhaustive convex hull vertices via supporting-plane enumeration.

    Every index triple spans a candidate plane; if all points lie on one
    side (within ``eps_scale * diameter``), the triple's points are hull
    vertices.  Only meant for 4 <= n <= 30 points in general position.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if not 4 <= n <= 30:
        raise ValueError(f"brute-force hull supports 4..30 points, got {n}")
    diameter = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    eps = eps_scale * diameter
    centred = pts - pts.mean(axis=0)
    if np.sum(np.linalg.svd(centred, compute_uv=False) > eps) < 3:
        raise ValueError("degenerate input: points span fewer than 3 dimensions")
    vertices: set[int] = set()
    for i, j, k in combinations(range(n), 3):
        normal = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = np.linalg.norm(normal)
        if norm <= eps * diameter:  # collinear triple, no plane
            continue
        side = (pts - pts[i]) @ (normal / norm)
        if side.max() <= eps or side.min() >= -eps:
            vertices.update((i, j, k))
    return np.array(sorted(vertices), dtype=np.intp)


def maxpool_bruteforce(points, bank) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """All minimal subsets that reproduce the max-pooled embedding.

    Enumerates every subset of the cloud (so n <= 15) and returns the
    embedding u of the full set plus the minimal subsets T with
    ``max over T == u`` exactly, as sorted index tuples in lexicographic
    order.  Achievement is monotone under supersets, so minimality only
    needs single-element removals to be checked.
    """
    pos = np.asarray(points, dtype=np.float64)
    n = pos.shape[0]
    if not 1 <= n <= 15:
        raise ValueError(f"brute-force maxpool supports 1..15 points, got {n}")
    feats = bank.evaluate(pos)
    u = feats.max(axis=0)
    # Bitmask of the attaining points per feature dimension.
    attain = []
    for j in range(feats.shape[1]):
        mask = 0
        for i in np.flatnonzero(feats[:, j] == u[j]):
            mask |= 1 << int(i)
        attain.append(mask)

    def achieves(subset: int) -> bool:
        return all(subset & m for m in attain)

    minimal: list[tuple[int, ...]] = []
    for subset in range(1, 1 << n):
        if not achieves(subset):
            continue
        if any(achieves(subset & ~(1 << b)) for b in range(n) if subset >> b & 1):
            continue
        minimal.append(tuple(b for b in range(n) if subset >> b & 1))
    return u, sorted(minimal)
