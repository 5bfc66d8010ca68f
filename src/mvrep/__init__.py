"""Multiview partial point set generation for indoor point clouds."""

import os

# The --jobs worker threads are the only parallelism mvrep asks for.  numpy's
# and scipy's OpenBLAS copies would each start a thread per extra core when
# loaded, which costs every short mvrep process CPU time and changes no
# output byte.  Importing this package loads numpy, so the count is set
# before any submodule is imported.  A value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .critical import (
    CriticalReport,
    FeatureBank,
    critical_set,
    embed,
    verify_monotonicity,
    verify_subset_invariance,
)
from .geometry import (
    Aabb,
    ConvexHull3,
    DegenerateInputError,
    FovSpec,
    Perspective,
    bounding_box,
    convex_hull_3d,
    frustum_mask,
    spherical_flip,
)
from .hpr import visible_points
from .io import (
    CloudFormatError,
    ManifestEntry,
    MultiviewManifest,
    PointCloud,
    parse_ply,
    parse_s3dis_room,
    read_manifest,
    write_manifest,
    write_partial_set,
)
from .pipeline import (
    FusionRecipe,
    PipelineConfig,
    fuse_training_set,
    generate_multiview,
    write_outputs,
)
from .synthetic import synthetic_room
from .viewpoints import GridConfig, enumerate_perspectives, grid_viewpoints

__version__ = "0.1.0"

__all__ = [
    "Aabb",
    "CloudFormatError",
    "ConvexHull3",
    "CriticalReport",
    "DegenerateInputError",
    "FeatureBank",
    "FovSpec",
    "FusionRecipe",
    "GridConfig",
    "ManifestEntry",
    "MultiviewManifest",
    "Perspective",
    "PipelineConfig",
    "PointCloud",
    "bounding_box",
    "convex_hull_3d",
    "critical_set",
    "embed",
    "enumerate_perspectives",
    "frustum_mask",
    "fuse_training_set",
    "generate_multiview",
    "grid_viewpoints",
    "parse_ply",
    "parse_s3dis_room",
    "read_manifest",
    "spherical_flip",
    "synthetic_room",
    "verify_monotonicity",
    "verify_subset_invariance",
    "visible_points",
    "write_manifest",
    "write_outputs",
    "write_partial_set",
]
