"""Critical sets of max-pooled point embeddings.

A feature bank maps each point x to K per-point features h_j(x); the set
embedding is the elementwise maximum u_j = max over the set.  The critical
set collects one attaining point per feature dimension (lowest index on
ties), and any T with ``critical set <= T <= upper mask`` reproduces u
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .geometry import Aabb, _as_points

__all__ = [
    "FeatureBank",
    "CriticalReport",
    "InvarianceReport",
    "critical_set",
    "verify_subset_invariance",
]


@dataclass(frozen=True)
class FeatureBank:
    """K per-point feature functions.

    The bank uses seeded Gaussian bumps
    ``h_j(x) = exp(-|x - c_j|^2 / sigma_j^2)`` with centres and widths drawn
    over a bounding box, so features are continuous and bounded in (0, 1].
    ``critical_set`` and ``verify_subset_invariance`` read only ``k`` and
    ``evaluate``.
    """

    k: int
    centers: np.ndarray
    widths: np.ndarray

    @classmethod
    def rbf(cls, bounds: Aabb, k: int, seed: int) -> "FeatureBank":
        if k < 1:
            raise ValueError(f"need at least one feature, got k={k}")
        rng = np.random.default_rng(seed)
        lo = np.asarray(bounds.lo, dtype=np.float64)
        hi = np.asarray(bounds.hi, dtype=np.float64)
        centers = rng.uniform(lo, hi, size=(k, 3))
        scale = max(bounds.diameter, 1e-6)
        widths = rng.uniform(0.2, 0.6, size=k) * scale
        return cls(k=k, centers=centers, widths=widths)

    def evaluate(self, points) -> np.ndarray:
        """Per-point feature matrix of shape (n, K)."""
        pos = _as_points(points)
        # |x - c|^2 expanded; avoids an (n, K, 3) intermediate on big clouds.
        sq = (
            (pos**2).sum(axis=1)[:, None]
            + (self.centers**2).sum(axis=1)[None, :]
            - 2.0 * pos @ self.centers.T
        )
        return np.exp(-np.maximum(sq, 0.0) / self.widths**2)


@dataclass(frozen=True)
class CriticalReport:
    """Critical set of one cloud under one feature bank."""

    u: np.ndarray
    critical_indices: np.ndarray
    upper_mask_description: str
    critical_size: int
    cloud_size: int
    k: int

    def to_dict(self) -> dict:
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "u": [float(v) for v in self.u],
            "critical_indices": [int(i) for i in self.critical_indices],
        }


def critical_set(points, bank: FeatureBank) -> CriticalReport:
    """One attaining point per feature dimension, lowest index on ties.

    The critical set size is therefore at most K regardless of cloud size.
    """
    return _critical_report(bank.evaluate(points), bank)


def _critical_report(feats: np.ndarray, bank: FeatureBank) -> CriticalReport:
    """Critical set of the cloud whose per-point features are ``feats``."""
    if feats.shape[0] == 0:
        raise ValueError("critical set of an empty set is undefined")
    u = feats.max(axis=0)
    # argmax returns the first, i.e. lowest, attaining index per dimension.
    critical = np.unique(feats.argmax(axis=0))
    return CriticalReport(
        u=u,
        critical_indices=critical.astype(np.intp),
        upper_mask_description=(
            f"points x with h_j(x) <= u_j for every one of the {bank.k} "
            "feature dimensions"
        ),
        critical_size=int(critical.size),
        cloud_size=int(feats.shape[0]),
        k=bank.k,
    )


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of sampling subsets between the critical set and upper mask."""

    trials: int
    failures: tuple[int, ...]
    report: CriticalReport

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "failures": [int(t) for t in self.failures],
            "passed": self.passed,
            "u": [float(v) for v in self.report.u],
            "critical_indices": [int(i) for i in self.report.critical_indices],
        }


def verify_subset_invariance(
    points, bank: FeatureBank, trials: int, seed: int
) -> InvarianceReport:
    """Sample subsets T with critical set <= T <= upper mask; u must not move.

    Every cloud point satisfies the upper-mask predicate h(x) <= u(S) by
    construction (the check is still executed), so T is the critical set
    plus a random selection of the remaining points.  Equality of the
    embeddings is exact, not approximate.
    """
    pos = _as_points(points)
    feats = bank.evaluate(pos)
    report = _critical_report(feats, bank)
    if not (feats <= report.u[None, :]).all():
        raise AssertionError("upper-mask predicate violated by a cloud point")
    critical = np.zeros(pos.shape[0], dtype=bool)
    critical[report.critical_indices] = True
    others = np.flatnonzero(~critical)
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(trials):
        subset = critical.copy()
        if others.size:
            subset[rng.choice(
                others, size=int(rng.integers(0, others.size + 1)), replace=False
            )] = True
        if not np.array_equal(feats[subset].max(axis=0), report.u):
            failures.append(trial)
    return InvarianceReport(
        trials=trials,
        failures=tuple(failures),
        report=report,
    )
