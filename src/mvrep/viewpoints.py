"""Viewpoint grids and perspective enumeration over a room's bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Aabb, FovSpec, Perspective

__all__ = ["GridConfig", "grid_viewpoints", "enumerate_perspectives"]


@dataclass(frozen=True)
class GridConfig:
    """Placement of simulated camera positions inside a room."""

    spacing: float = 4.0
    camera_height: float = 1.5
    yaw_steps: tuple[float, ...] = (0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0)
    pitch_steps: tuple[float, ...] = (-30.0, 0.0, 30.0)

    def __post_init__(self) -> None:
        if not self.spacing > 0.0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if not math.isfinite(self.camera_height):
            raise ValueError(f"camera_height must be finite, got {self.camera_height}")
        if not self.yaw_steps or not self.pitch_steps:
            raise ValueError("yaw_steps and pitch_steps must be non-empty")
        if not all(map(math.isfinite, (*self.yaw_steps, *self.pitch_steps))):
            raise ValueError("yaw_steps and pitch_steps must be finite")


def _axis_lines(lo: float, hi: float, spacing: float) -> list[float]:
    extent = hi - lo
    # Tolerate float noise so an exact multiple lands on the boundary line
    # instead of duplicating it.
    steps = int(math.floor(extent / spacing + 1e-9))
    # 0 * spacing is nan for an infinite spacing; lo + 0.0 is the first line
    # that every finite spacing gives.
    lines = [lo + 0.0] + [lo + k * spacing for k in range(1, steps + 1)]
    if hi - lines[-1] > 1e-9 * max(extent, 1.0):
        lines.append(hi)
    return lines


def grid_viewpoints(bounds: Aabb, config: GridConfig) -> np.ndarray:
    """Viewpoints at the intersections of gridlines over the horizontal bounds.

    Lines run at min + k * spacing per horizontal axis, plus the max boundary
    line when not already hit.  Cameras sit at min_z + camera_height.
    Degenerate horizontal bounds collapse to a single centroid viewpoint.
    Returns an (m, 3) array in lexicographic (x, y) order.
    """
    lo, hi = np.asarray(bounds.lo, dtype=np.float64), np.asarray(bounds.hi, dtype=np.float64)
    z = lo[2] + config.camera_height
    if hi[0] - lo[0] <= 0.0 or hi[1] - lo[1] <= 0.0:
        centre = (lo + hi) / 2.0
        return np.array([[centre[0], centre[1], z]])
    xs = _axis_lines(lo[0], hi[0], config.spacing)
    ys = _axis_lines(lo[1], hi[1], config.spacing)
    return np.array([[x, y, z] for x in xs for y in ys])


def enumerate_perspectives(
    viewpoints: np.ndarray, config: GridConfig, fov: FovSpec
) -> list[Perspective]:
    """Cartesian product of viewpoints x yaw_steps x pitch_steps.

    Perspective ids are the index in that deterministic order, so equal
    inputs always enumerate identically.
    """
    perspectives = []
    pid = 0
    for vp in np.asarray(viewpoints, dtype=np.float64):
        for yaw in config.yaw_steps:
            for pitch in config.pitch_steps:
                perspectives.append(
                    Perspective(
                        perspective_id=pid,
                        viewpoint=(float(vp[0]), float(vp[1]), float(vp[2])),
                        yaw_deg=float(yaw),
                        pitch_deg=float(pitch),
                        fov=fov,
                    )
                )
                pid += 1
    return perspectives
