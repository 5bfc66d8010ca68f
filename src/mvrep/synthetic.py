"""Deterministic synthetic indoor scenes for tests and demos.

The generated room is a box with floor, ceiling, and four walls, plus a few
furniture boxes that create real occlusion: a table, a bookcase against a
wall, and a free-standing divider panel.  Points are sampled uniformly per
surface with counts proportional to surface area, colored and labeled by
category, with a little measurement noise so surfaces are not perfectly
flat.
"""

from __future__ import annotations

import numpy as np

from .io import S3DIS_CATEGORIES, PointCloud

__all__ = ["synthetic_room"]

_COLORS = {
    "ceiling": (240, 240, 235),
    "floor": (120, 100, 80),
    "wall": (200, 205, 210),
    "table": (150, 75, 40),
    "bookcase": (90, 60, 130),
    "clutter": (60, 160, 90),
}

# Standard deviation, in metres, of the measurement noise on every point.
_NOISE = 0.002


def _rect(origin, e1, e2, n, rng):
    """Uniform sample of a parallelogram patch."""
    u = rng.uniform(size=(n, 1))
    v = rng.uniform(size=(n, 1))
    return np.asarray(origin) + u * np.asarray(e1) + v * np.asarray(e2)


def _box_faces(lo, hi):
    """Faces of an axis-aligned box as (origin, e1, e2) triples."""
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    d = hi - lo
    return [
        (lo + [0, 0, d[2]], [d[0], 0, 0], [0, d[1], 0]),  # top
        (lo, [d[0], 0, 0], [0, 0, d[2]]),                 # y = lo side
        (lo + [0, d[1], 0], [d[0], 0, 0], [0, 0, d[2]]),
        (lo, [0, d[1], 0], [0, 0, d[2]]),                 # x = lo side
        (lo + [d[0], 0, 0], [0, d[1], 0], [0, 0, d[2]]),
    ]


def synthetic_room(
    n_points: int = 500_000,
    size: tuple[float, float, float] = (8.0, 6.0, 3.0),
    seed: int = 0,
    room_id: str = "Area_1_synthroom",
    with_labels: bool = True,
) -> PointCloud:
    """Build a furnished box room with ``n_points`` surface samples; a count too
    small to give every surface but the floor a point raises ``ValueError``."""
    sx, sy, sz = size
    rng = np.random.default_rng(seed)

    surfaces: list[tuple[str, tuple, float]] = []

    def add(category, origin, e1, e2):
        area = float(np.linalg.norm(np.cross(np.asarray(e1, float), np.asarray(e2, float))))
        surfaces.append((category, (origin, e1, e2), area))

    add("floor", (0, 0, 0), (sx, 0, 0), (0, sy, 0))
    add("ceiling", (0, 0, sz), (sx, 0, 0), (0, sy, 0))
    add("wall", (0, 0, 0), (sx, 0, 0), (0, 0, sz))
    add("wall", (0, sy, 0), (sx, 0, 0), (0, 0, sz))
    add("wall", (0, 0, 0), (0, sy, 0), (0, 0, sz))
    add("wall", (sx, 0, 0), (0, sy, 0), (0, 0, sz))

    # Furniture scaled to the room footprint.
    table_lo = (0.30 * sx, 0.30 * sy, 0.0)
    table_hi = (0.45 * sx, 0.45 * sy, 0.75)
    for face in _box_faces(table_lo, table_hi):
        add("table", *face)
    case_lo = (0.70 * sx, 0.02 * sy, 0.0)
    case_hi = (0.95 * sx, 0.10 * sy, 1.8)
    for face in _box_faces(case_lo, case_hi):
        add("bookcase", *face)
    panel_lo = (0.55 * sx, 0.55 * sy, 0.0)
    panel_hi = (0.58 * sx, 0.80 * sy, 1.5)
    for face in _box_faces(panel_lo, panel_hi):
        add("clutter", *face)

    total_area = sum(a for _, _, a in surfaces)
    counts = [max(1, int(round(n_points * a / total_area))) for _, _, a in surfaces]
    counts[0] += n_points - sum(counts)  # land exactly on n_points
    if counts[0] < 0:
        raise ValueError(f"n_points={n_points} is too few for a room of size {size}")

    chunks, colors, labels = [], [], []
    for (category, (origin, e1, e2), _), n in zip(surfaces, counts):
        pts = _rect(origin, e1, e2, n, rng)
        chunks.append(pts + rng.normal(scale=_NOISE, size=pts.shape))
        colors.append(np.tile(np.array(_COLORS[category], dtype=np.uint8), (n, 1)))
        labels.append(
            np.full(n, S3DIS_CATEGORIES.index(category), dtype=np.int32)
        )
    return PointCloud(
        positions=np.vstack(chunks),
        colors=np.vstack(colors),
        labels=np.concatenate(labels) if with_labels else None,
        room_id=room_id,
    )
