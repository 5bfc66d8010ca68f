"""Critical sets of max-pooled point embeddings.

A feature bank maps each point x to K per-point features h_j(x); the set
embedding is the elementwise maximum u_j = max over the set.  The critical
set collects one attaining point per feature dimension (lowest index on
ties), and any T with ``critical set <= T <= upper mask`` reproduces u
exactly.  The verification helpers check those identities and the
monotonicity chain u(sparse) <= u(sparse + partials) <= u(dense).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Aabb, _as_points

__all__ = [
    "FeatureBank",
    "CriticalReport",
    "InvarianceReport",
    "MonotonicityReport",
    "embed",
    "critical_set",
    "verify_subset_invariance",
    "verify_monotonicity",
]


@dataclass(frozen=True)
class FeatureBank:
    """K per-point feature functions.

    The bank uses seeded Gaussian bumps
    ``h_j(x) = exp(-|x - c_j|^2 / sigma_j^2)`` with centres and widths drawn
    over a bounding box, so features are continuous and bounded in (0, 1].
    ``embed``, ``critical_set`` and the ``verify_*`` helpers read only ``k``
    and ``evaluate``.
    """

    k: int
    seed: int
    centers: np.ndarray
    widths: np.ndarray

    @classmethod
    def rbf(cls, bounds: Aabb, k: int = 64, seed: int = 0) -> "FeatureBank":
        if k < 1:
            raise ValueError(f"need at least one feature, got k={k}")
        rng = np.random.default_rng(seed)
        lo = np.asarray(bounds.lo, dtype=np.float64)
        hi = np.asarray(bounds.hi, dtype=np.float64)
        centers = rng.uniform(lo, hi, size=(k, 3))
        scale = max(bounds.diameter, 1e-6)
        widths = rng.uniform(0.2, 0.6, size=k) * scale
        return cls(k=k, seed=seed, centers=centers, widths=widths)

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


def embed(points, bank: FeatureBank) -> np.ndarray:
    """Max-pooled set embedding u, shape (K,)."""
    pos = _as_points(points)
    if pos.shape[0] == 0:
        raise ValueError("embedding of an empty set is undefined")
    return bank.evaluate(pos).max(axis=0)


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
            "u": [float(v) for v in self.u],
            "critical_indices": [int(i) for i in self.critical_indices],
            "upper_mask_description": self.upper_mask_description,
            "critical_size": self.critical_size,
            "cloud_size": self.cloud_size,
            "k": self.k,
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
    def u(self) -> np.ndarray:
        return self.report.u

    @property
    def critical_indices(self) -> np.ndarray:
        return self.report.critical_indices

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "failures": [int(t) for t in self.failures],
            "passed": self.passed,
            "u": [float(v) for v in self.u],
            "critical_indices": [int(i) for i in self.critical_indices],
        }


def verify_subset_invariance(
    points, bank: FeatureBank, trials: int = 50, seed: int = 0
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


@dataclass(frozen=True)
class MonotonicityReport:
    """Elementwise embedding chain across sparse, fused, and dense clouds."""

    u_sparse: np.ndarray
    u_fused: np.ndarray
    u_dense: np.ndarray
    partials_within_sparse: bool
    violations_lower: tuple[int, ...]
    violations_upper: tuple[int, ...]
    equality_violations: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not (
            self.violations_lower or self.violations_upper or self.equality_violations
        )

    def to_dict(self) -> dict:
        return {
            "u_sparse": [float(v) for v in self.u_sparse],
            "u_fused": [float(v) for v in self.u_fused],
            "u_dense": [float(v) for v in self.u_dense],
            "partials_within_sparse": self.partials_within_sparse,
            "violations_lower": [int(v) for v in self.violations_lower],
            "violations_upper": [int(v) for v in self.violations_upper],
            "equality_violations": [int(v) for v in self.equality_violations],
            "passed": self.passed,
        }


def _row_set(pos: np.ndarray) -> set[bytes]:
    return {np.ascontiguousarray(row).tobytes() for row in pos}


def verify_monotonicity(dense, sparse, partials, bank: FeatureBank) -> MonotonicityReport:
    """Check u(sparse) <= u(sparse + partials) <= u(dense) elementwise.

    ``sparse`` and every partial must be subsets of ``dense`` by exact point
    positions.  When all partials already sit inside the sparse cloud, the
    fused embedding must equal the sparse one exactly, not just bound it.
    """
    dense_pos = _as_points(dense)
    sparse_pos = _as_points(sparse)
    partial_pos = [_as_points(p) for p in partials]
    dense_rows = _row_set(dense_pos)
    if not _row_set(sparse_pos) <= dense_rows:
        raise ValueError("sparse cloud is not a subset of the dense cloud")
    for i, pp in enumerate(partial_pos):
        if not _row_set(pp) <= dense_rows:
            raise ValueError(f"partial set {i} is not a subset of the dense cloud")

    sparse_rows = _row_set(sparse_pos)
    within = all(_row_set(pp) <= sparse_rows for pp in partial_pos)
    fused_pos = np.vstack([sparse_pos] + partial_pos) if partial_pos else sparse_pos

    u_sparse = embed(sparse_pos, bank)
    u_fused = embed(fused_pos, bank)
    u_dense = embed(dense_pos, bank)
    lower = tuple(int(j) for j in np.flatnonzero(u_sparse > u_fused))
    upper = tuple(int(j) for j in np.flatnonzero(u_fused > u_dense))
    equality: tuple[int, ...] = ()
    if within:
        equality = tuple(int(j) for j in np.flatnonzero(u_fused != u_sparse))
    return MonotonicityReport(
        u_sparse=u_sparse,
        u_fused=u_fused,
        u_dense=u_dense,
        partials_within_sparse=within,
        violations_lower=lower,
        violations_upper=upper,
        equality_violations=equality,
    )
