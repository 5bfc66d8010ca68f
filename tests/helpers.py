"""Small utilities shared by the test modules."""

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

import mvrep
from mvrep.geometry import ConvexHull3

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
        pos = np.asarray(getattr(points, "positions", points), dtype=np.float64)
        return pos[:, list(self.dims)]
