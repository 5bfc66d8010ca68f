"""Multiview generation pipeline and training-list fusion.

``generate_multiview`` runs the full chain for one room: enumerate camera
perspectives over the room's bounds, cull each frustum, remove hidden
points, drop perspectives below the point threshold, and assemble a
manifest.  Perspectives are independent pure tasks over the shared
immutable cloud; results are merged in perspective id order, so outputs are
byte-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import FovSpec, frustum_mask
from .hpr import visible_points
from .io import (
    MANIFEST_SUFFIX,
    ManifestEntry,
    MultiviewManifest,
    PointCloud,
    partial_filename,
    write_manifest,
    write_partial_set,
)
from .viewpoints import GridConfig, enumerate_perspectives, grid_viewpoints

__all__ = [
    "PipelineConfig",
    "FusionRecipe",
    "generate_multiview",
    "write_outputs",
    "fuse_training_set",
]

logger = logging.getLogger(__name__)

# Share of the input the kept partial sets should cover; below it a run
# logs a warning.
COVERAGE_TARGET = 0.80


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of one multiview generation run."""

    fov: FovSpec = field(default_factory=FovSpec)
    grid: GridConfig = field(default_factory=GridConfig)
    min_points: int = 40_000
    radius_factor: float = 1000.0
    seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.min_points < 0:
            raise ValueError(f"min_points must be >= 0, got {self.min_points}")
        if not self.radius_factor >= 1.0:
            raise ValueError(f"radius_factor must be >= 1, got {self.radius_factor}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def echo(self) -> dict:
        """Generation-relevant parameters; excludes jobs, which must never
        influence the produced bytes."""
        return {
            "hfov_deg": self.fov.hfov_deg,
            "vfov_deg": self.fov.vfov_deg,
            "min_depth": self.fov.min_depth,
            "max_depth": self.fov.max_depth,
            "spacing": self.grid.spacing,
            "camera_height": self.grid.camera_height,
            "yaw_steps": list(self.grid.yaw_steps),
            "pitch_steps": list(self.grid.pitch_steps),
            # Not settable, but part of the manifest and config_hash bytes.
            "include_boundary": True,
            "min_points": self.min_points,
            "radius_factor": self.radius_factor,
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.echo(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class FusionRecipe:
    """How many partial sets per area to mix into a training list."""

    partial_per_area: int
    include_originals: bool = True

    def __post_init__(self) -> None:
        if self.partial_per_area < 0:
            raise ValueError(
                f"partial_per_area must be >= 0, got {self.partial_per_area}"
            )


def _perspective_task(positions, perspective, radius_factor, keep_at, seed):
    """Cull one frustum and run hidden point removal inside it.

    The visible set is a subset of the culled one, so a frustum holding
    fewer than ``keep_at`` points cannot be kept and skips the hull.
    """
    mask = frustum_mask(positions, perspective)
    culled = np.flatnonzero(mask)
    if culled.size < keep_at:
        return culled, None
    local = visible_points(
        positions[culled], perspective.viewpoint, radius_factor, seed=seed
    )
    return culled, culled[local]


def generate_multiview(
    cloud: PointCloud, config: PipelineConfig
) -> tuple[list[PointCloud], MultiviewManifest]:
    """All kept partial sets of a room plus the manifest describing them.

    A perspective is kept when its visible point count reaches
    ``config.min_points`` (with a floor of one point, so empty visibility
    never emits).  Partial clouds are index subsets of the input and keep
    positions, colors, and labels bit-for-bit.
    """
    positions = cloud.positions
    viewpoints = grid_viewpoints(cloud.bounds, config.grid)
    perspectives = enumerate_perspectives(viewpoints, config.grid, config.fov)
    keep_at = max(config.min_points, 1)

    def run(p):
        # Seed is derived per perspective so results do not depend on the
        # order in which workers pick up tasks.
        return _perspective_task(
            positions, p, config.radius_factor, keep_at, seed=(config.seed, p.perspective_id)
        )

    with ThreadPoolExecutor(max_workers=config.jobs) as pool:
        results = list(pool.map(run, perspectives))

    in_any_frustum = np.zeros(len(cloud), dtype=bool)
    covered = np.zeros(len(cloud), dtype=bool)
    partials: list[PointCloud] = []
    entries: list[ManifestEntry] = []
    for perspective, (culled, visible) in zip(perspectives, results):
        in_any_frustum[culled] = True
        if visible is None or visible.size < keep_at:
            continue
        covered[visible] = True
        partials.append(cloud.subset(visible))
        entries.append(
            ManifestEntry(
                perspective_id=perspective.perspective_id,
                viewpoint=perspective.viewpoint,
                yaw_deg=perspective.yaw_deg,
                pitch_deg=perspective.pitch_deg,
                point_count=int(visible.size),
                file_path=partial_filename(
                    cloud.room_id,
                    perspective.perspective_id,
                    perspective.yaw_deg,
                    perspective.pitch_deg,
                ),
            )
        )

    uncovered_frustum = 1.0 - float(in_any_frustum.mean())
    if uncovered_frustum > 0.0:
        logger.warning(
            "%s: %.4f of points fall in no frustum under this grid/fov config",
            cloud.room_id,
            uncovered_frustum,
        )
    coverage = float(covered.mean())
    if coverage < COVERAGE_TARGET:
        logger.warning(
            "%s: union of kept partial sets covers %.3f of the input, "
            "below the %.2f target",
            cloud.room_id,
            coverage,
            COVERAGE_TARGET,
        )

    manifest = MultiviewManifest(
        room_id=cloud.room_id,
        original_count=len(cloud),
        entries=tuple(entries),
        generation_config_hash=config.config_hash(),
        seed=config.seed,
        config=config.echo(),
        coverage=coverage,
    )
    return partials, manifest


def write_outputs(
    partials: list[PointCloud],
    manifest: MultiviewManifest,
    out_dir,
) -> Path:
    """Write every partial set plus the manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for cloud, entry in zip(partials, manifest.entries):
        write_partial_set(cloud, out / entry.file_path)
    manifest_path = out / f"{manifest.room_id}{MANIFEST_SUFFIX}"
    write_manifest(manifest, manifest_path)
    return manifest_path


def _area_rng(seed: int, area: str) -> np.random.Generator:
    digest = hashlib.sha256(area.encode()).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "little")])


def fuse_training_set(
    originals: dict,
    partials: dict,
    recipe: FusionRecipe,
    seed: int = 0,
) -> list[str]:
    """Compose a training file list from originals and sampled partial sets.

    ``originals`` and ``partials`` map an area key to file paths.  Per area
    the result keeps all originals (when the recipe includes them) plus
    ``partial_per_area`` partial sets sampled uniformly without replacement
    from that area's pool.  Sampling is seeded per area, so the list is
    reproducible and independent of dict ordering.
    """
    areas = sorted(set(originals) | set(partials))
    out: list[str] = []
    for area in areas:
        pool = sorted(str(p) for p in partials.get(area, ()))
        if recipe.partial_per_area > len(pool):
            raise ValueError(
                f"area {area}: requested {recipe.partial_per_area} partial sets "
                f"but only {len(pool)} are available"
            )
        if recipe.include_originals:
            out.extend(sorted(str(p) for p in originals.get(area, ())))
        rng = _area_rng(seed, area)
        chosen = rng.choice(len(pool), size=recipe.partial_per_area, replace=False)
        out.extend(pool[i] for i in chosen)
    return out
