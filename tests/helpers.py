"""Small utilities shared by the test modules."""

import errno
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

import mvrep
from mvrep.geometry import ConvexHull3, FovSpec
from mvrep.hpr import visible_points
from mvrep.io import format_lines, write_partial_set
from mvrep.pipeline import PipelineConfig
from mvrep.viewpoints import GridConfig

# Cores this process may run on, which a container can pin below the host's.
VISIBLE_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

# Every field of the config, its fov and its grid set away from its default.
EVERY_FIELD_CHANGED = PipelineConfig(
    fov=FovSpec(hfov_deg=80.0, vfov_deg=50.0, min_depth=0.25, max_depth=6.0),
    grid=GridConfig(
        spacing=3.0, camera_height=1.2, yaw_steps=(0.0, 120.0, 240.0), pitch_steps=(-15.0, 15.0)
    ),
    min_points=123,
    radius_factor=250.0,
    seed=9,
    jobs=3,
)

# Variables OpenBLAS reads for its thread count, in order of precedence.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Settings that make OpenBLAS pick a pre-AVX kernel and numpy its loops for a
# CPU without AVX-512.  numpy starts even when it does not know a named
# feature.  On a CPU without AVX-512, or with an OpenBLAS that ignores its
# variable, a child run with them may take this process's paths and so
# checks less.
DISPATCH_SETTINGS = {
    "OPENBLAS_CORETYPE": "Prescott",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR",
}


# Orthonormal rows spanning a plane through the origin, tilted off every axis.
TILTED_BASIS = np.array([[1.0, 2.0, 2.0], [2.0, 1.0, -2.0]]) / 3.0

# Scenes whose flipped set and viewpoint, the origin, span fewer than three
# dimensions, so qhull rejects their first hull.
DEGENERATE_SCENES = {
    # Points and viewpoint share a plane, so the flipped set does too.
    "planar": np.column_stack(
        [np.random.default_rng(9).uniform(1.0, 4.0, size=(50, 2)), np.zeros(50)]
    ),
    # The same on a plane whose points are planar only up to rounding.
    "tilted_plane": np.random.default_rng(11).uniform(1.0, 4.0, size=(50, 2)) @ TILTED_BASIS,
    # One ray from the viewpoint.
    "collinear": np.outer(np.linspace(1.0, 2.0, 20), [1.0, 2.0, 3.0]),
    "repeated_point": np.tile([[1.0, 2.0, 3.0]], (8, 1)),
    "ray_pair": np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
}


def degenerate_visible_sets() -> dict[str, list[int]]:
    """Visible indices of each degenerate scene from the origin."""
    return {
        name: visible_points(points, np.zeros(3), 1000.0).tolist()
        for name, points in DEGENERATE_SCENES.items()
    }


def child_env(**settings: str) -> dict[str, str]:
    """Environment of a child Python process that imports this checkout's
    ``mvrep`` and the test modules: this process's environment without the
    BLAS thread and dispatch variables, then ``settings`` on top."""
    dropped = BLAS_THREAD_VARS + tuple(DISPATCH_SETTINGS)
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    src, tests = Path(mvrep.__file__).resolve().parents[1], Path(__file__).resolve().parent
    paths = [str(src), str(tests), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    env.update(settings)
    return env


def run_main_with_file_size_limit(argv: list[str]):
    """Run ``mvrep.cli.main(argv)`` in a child process whose writes stop at
    64 bytes a file, as a full disk would stop them.  The child ignores
    SIGXFSZ, which turns the stop into an OSError."""
    code = (
        "import resource, signal, sys; from mvrep.cli import main; "
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
        "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]; "
        "resource.setrlimit(resource.RLIMIT_FSIZE, (64, hard)); "
        f"sys.exit(main({argv!r}))"
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=child_env(PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120,
    )


def write_room(cloud, path) -> None:
    """Write every row of ``cloud`` as a text room."""
    write_partial_set(format_lines(cloud, np.arange(len(cloud))), path)


class FullDiskLines:
    """Partial-set lines whose last block raises ENOSPC when
    ``write_partial_set`` takes it, as a disk that fills part way through
    the write would."""

    def __init__(self, lines):
        self.lines = lines

    def __len__(self):
        return len(self.lines)

    def __getitem__(self, block: slice):
        if block.stop >= len(self.lines):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.lines[block]


def ball_sample(rng, n, scale=2.0):
    """``n`` points drawn uniformly from the ball of radius ``scale``."""
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction * scale * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1 / 3)


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
    """Largest signed distance of any point outside the hull of
    ``hull.vertex_indices``, whose facet planes scipy computes here.

    Zero or negative means every point is inside-or-on that hull, so no
    extreme point is missing from the vertex set.
    """
    points = np.asarray(points, dtype=np.float64)
    planes = ConvexHull(points[hull.vertex_indices]).equations
    signed = points @ planes[:, :3].T + planes[:, 3]
    return float(signed.max())


@dataclass(frozen=True)
class CoordinateBank:
    """Hand-checkable feature bank: feature j of a point is its coordinate
    ``dims[j]``.  It has the ``k`` and ``evaluate`` that ``critical_set``
    and ``verify_subset_invariance`` read from a bank."""

    dims: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.dims)

    def evaluate(self, points) -> np.ndarray:
        pos = np.asarray(points, dtype=np.float64)
        return pos[:, list(self.dims)]
