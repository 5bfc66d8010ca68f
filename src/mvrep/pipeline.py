"""Multiview generation pipeline and training-list fusion.

``generate_multiview`` runs the full chain for one room: enumerate camera
perspectives over the room's bounds, cull each frustum, remove hidden
points, drop perspectives below the point threshold, and assemble a
manifest.  Each viewpoint's headings are culled on the points within its
reach only, gathered once per viewpoint; then hidden point removal runs
once per frustum that can be kept.  Both phases are pure tasks over the
shared immutable cloud; results are merged in perspective id order, so
outputs are byte-identical for any worker count.

A kept partial set is a sorted index array into the input cloud, never a
copy of its rows.  ``write_outputs(cloud, kept, manifest, out_dir)``
formats every row that any kept set holds once, then writes each partial
file from those lines and the manifest last.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .geometry import CULL_BLOCK_ROWS, FovSpec, frustum_mask
from .hpr import visible_points
from .io import (
    MANIFEST_SUFFIX,
    ManifestEntry,
    MultiviewManifest,
    PointCloud,
    format_lines,
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

# Relative widening of a viewpoint's shell, so that rounding in a distance
# can never drop a row that the frustum test keeps.
SHELL_MARGIN = 1e-6


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
        if not 1.0 <= self.radius_factor < np.inf:
            raise ValueError(f"radius_factor must be finite and >= 1, got {self.radius_factor}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def echo(self) -> dict:
        """Every field of the config, its fov and its grid but jobs, which
        must never influence the produced bytes.  A tuple is echoed as a list
        and an infinite value (no far plane, one grid cell) as None, JSON's
        null."""
        echo = {f.name: getattr(part, f.name) for part in (self.fov, self.grid, self)
                for f in fields(part)}
        del echo["jobs"]
        # Not settable, but part of the manifest and config_hash bytes.
        echo["include_boundary"] = True
        return {
            name: list(value) if isinstance(value, tuple) else None if value == np.inf else value
            for name, value in echo.items()
            if not is_dataclass(value)
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.echo(), sort_keys=True, allow_nan=False)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class FusionRecipe:
    """How many partial sets per area to mix into a training list."""

    partial_per_area: int
    include_originals: bool

    def __post_init__(self) -> None:
        if self.partial_per_area < 0:
            raise ValueError(
                f"partial_per_area must be >= 0, got {self.partial_per_area}"
            )


def _cull_viewpoint(positions, perspectives):
    """Culled indices of each of the perspectives of one viewpoint.

    A point inside any of their frusta lies between ``min_depth`` and the
    fov's ``reach`` from the viewpoint.  The rows of that shell are found in
    one blocked pass and gathered once; each heading is then culled on them
    alone.
    """
    n = positions.shape[0]
    # Every culled set is held until the hull phase; four-byte indices
    # halve them whenever the cloud allows.
    index = np.int32 if n <= np.iinfo(np.int32).max else np.intp
    fov = perspectives[0].fov
    vp = np.asarray(perspectives[0].viewpoint, dtype=np.float64)
    lo = (fov.min_depth * (1.0 - SHELL_MARGIN)) ** 2
    hi = (fov.reach * (1.0 + SHELL_MARGIN)) ** 2
    shell = []
    for start in range(0, n, CULL_BLOCK_ROWS):
        rel = positions[start:start + CULL_BLOCK_ROWS] - vp
        dist2 = np.einsum("ij,ij->i", rel, rel)
        shell.append(start + np.flatnonzero((dist2 >= lo) & (dist2 <= hi)))
    shell = np.concatenate(shell).astype(index)
    rows = positions[shell]
    return [shell[frustum_mask(rows, p)] for p in perspectives]


def generate_multiview(
    cloud: PointCloud, config: PipelineConfig
) -> tuple[list[np.ndarray], MultiviewManifest]:
    """All kept partial sets of a room plus the manifest describing them.

    A perspective is kept when its visible point count reaches
    ``config.min_points`` (with a floor of one point, so empty visibility
    never emits).  Each kept partial set is the sorted array of its row
    indices into ``cloud``, in the order of the manifest's entries; the
    rows themselves are not copied.
    """
    positions = cloud.positions
    viewpoints = grid_viewpoints(cloud.bounds, config.grid)
    perspectives = enumerate_perspectives(viewpoints, config.grid, config.fov)
    keep_at = max(config.min_points, 1)

    groups = [
        list(group)
        for _, group in itertools.groupby(perspectives, key=lambda p: p.viewpoint)
    ]

    def hidden_point_removal(task):
        perspective, culled = task
        local = visible_points(positions[culled], perspective.viewpoint, config.radius_factor)
        return perspective.perspective_id, culled[local]

    with ThreadPoolExecutor(max_workers=config.jobs) as pool:
        culled_sets = list(
            itertools.chain.from_iterable(
                pool.map(lambda group: _cull_viewpoint(positions, group), groups)
            )
        )
        # The visible set is a subset of the culled one, so a frustum holding
        # fewer than keep_at points cannot be kept and skips the hull.
        visible_sets = dict(
            pool.map(
                hidden_point_removal,
                [t for t in zip(perspectives, culled_sets) if t[1].size >= keep_at],
            )
        )

    in_any_frustum = np.zeros(len(cloud), dtype=bool)
    covered = np.zeros(len(cloud), dtype=bool)
    kept: list[np.ndarray] = []
    entries: list[ManifestEntry] = []
    for perspective, culled in zip(perspectives, culled_sets):
        in_any_frustum[culled] = True
        visible = visible_sets.get(perspective.perspective_id)
        if visible is None or visible.size < keep_at:
            continue
        covered[visible] = True
        kept.append(visible)
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

    uncovered_frustum = len(cloud) - int(np.count_nonzero(in_any_frustum))
    if uncovered_frustum:
        logger.warning(
            "%s: %d of %d points (%.4f) fall in no frustum under this grid/fov config",
            cloud.room_id,
            uncovered_frustum,
            len(cloud),
            uncovered_frustum / len(cloud),
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
    return kept, manifest


def write_outputs(
    cloud: PointCloud,
    kept: list[np.ndarray],
    manifest: MultiviewManifest,
    out_dir,
) -> Path:
    """Write every kept partial set of ``cloud``, then the manifest; returns
    the manifest path.

    ``kept`` holds one index array per manifest entry, as
    ``generate_multiview`` returns them.  Kept sets overlap heavily, so
    every row that any of them holds is formatted once and each file is
    written from those lines.  A manifest of an earlier run in ``out_dir``
    is removed first, each file appears only once complete and the manifest
    comes last, so a run that fails part way leaves no manifest behind.
    """
    if len(kept) != len(manifest.entries):
        raise ValueError(
            f"{len(kept)} kept sets for {len(manifest.entries)} manifest entries"
        )
    for rows, entry in zip(kept, manifest.entries):
        if len(rows) != entry.point_count:
            raise ValueError(
                f"kept set of perspective {entry.perspective_id} has {len(rows)} "
                f"points, its manifest entry {entry.point_count}"
            )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / f"{manifest.room_id}{MANIFEST_SUFFIX}"
    manifest_path.unlink(missing_ok=True)
    covered = np.zeros(len(cloud), dtype=bool)
    for rows in kept:
        covered[rows] = True
    covered_rows = np.flatnonzero(covered)
    lines = format_lines(cloud, covered_rows)
    for rows, entry in zip(kept, manifest.entries):
        write_partial_set(lines[np.searchsorted(covered_rows, rows)], out / entry.file_path)
    write_manifest(manifest, manifest_path)
    return manifest_path


def _area_rng(seed: int, area: str) -> np.random.Generator:
    digest = hashlib.sha256(area.encode()).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "little")])


def fuse_training_set(
    originals: dict,
    partials: dict,
    recipe: FusionRecipe,
    seed: int,
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
