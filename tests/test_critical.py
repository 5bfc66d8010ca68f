"""Critical sets and subset invariance."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import CoordinateBank
from mvrep.critical import FeatureBank, critical_set, verify_subset_invariance
from mvrep.geometry import Aabb, bounding_box

# Hand fixture: with the coordinate bank (x, y), feature 0 peaks at point 1
# and feature 1 at point 2, so u = (1.0, 0.9) and the critical set is {1, 2}.
FIXTURE = np.array(
    [
        [0.5, 0.5, 0.0],
        [1.0, 0.1, 0.0],
        [0.2, 0.9, 0.0],
        [0.7, 0.3, 0.0],
        [0.1, 0.2, 0.0],
    ]
)


def random_cloud(seed, n=64):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 2.0, size=(n, 3))


CLOUD_5K = random_cloud(5, n=5_000)


class TestFeatureBank:
    def test_rbf_shapes_and_range(self):
        pts = random_cloud(0)
        bank = FeatureBank.rbf(bounding_box(pts), k=16, seed=1)
        feats = bank.evaluate(pts)
        assert feats.shape == (64, 16)
        assert np.all(feats > 0.0) and np.all(feats <= 1.0)

    def test_rbf_deterministic(self):
        bounds = Aabb(lo=np.zeros(3), hi=np.ones(3))
        a = FeatureBank.rbf(bounds, k=8, seed=5)
        b = FeatureBank.rbf(bounds, k=8, seed=5)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.widths, b.widths)

    def test_rbf_rejects_zero_features(self):
        with pytest.raises(ValueError, match="at least one"):
            FeatureBank.rbf(Aabb(lo=np.zeros(3), hi=np.ones(3)), k=0, seed=0)

    def test_coordinates_bank(self):
        bank = CoordinateBank((0, 2))
        feats = bank.evaluate(FIXTURE)
        assert bank.k == 2
        np.testing.assert_array_equal(feats, FIXTURE[:, [0, 2]])


class TestCriticalSet:
    def test_hand_fixture(self):
        report = critical_set(FIXTURE, CoordinateBank((0, 1)))
        np.testing.assert_allclose(report.u, [1.0, 0.9])
        np.testing.assert_array_equal(report.critical_indices, [1, 2])
        assert report.critical_size == 2
        assert report.cloud_size == 5
        assert report.k == 2

    def test_size_bounded_by_k(self):
        pts = random_cloud(2, n=500)
        bank = FeatureBank.rbf(bounding_box(pts), k=24, seed=3)
        report = critical_set(pts, bank)
        assert report.critical_size <= 24
        assert np.all(np.diff(report.critical_indices) > 0)

    def test_ties_pick_lowest_index(self):
        pts = np.vstack([FIXTURE[1], FIXTURE])  # duplicate max-x point first
        report = critical_set(pts, CoordinateBank((0, 1)))
        # max x attained at indices 0 and 2; index 0 wins the tie
        assert 0 in report.critical_indices
        assert 2 not in report.critical_indices

    def test_removing_critical_point_changes_u(self):
        pts = random_cloud(4, n=100)
        bank = FeatureBank.rbf(bounding_box(pts), k=12, seed=4)
        report = critical_set(pts, bank)
        drop = int(report.critical_indices[0])
        u_without = bank.evaluate(np.delete(pts, drop, axis=0)).max(axis=0)
        assert not np.array_equal(u_without, report.u)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            critical_set(np.zeros((0, 3)), CoordinateBank((0,)))

    def test_to_dict_is_json_friendly(self):
        report = critical_set(FIXTURE, CoordinateBank((0, 1)))
        d = report.to_dict()
        assert d == {
            "u": [1.0, 0.9],
            "critical_indices": [1, 2],
            "upper_mask_description": report.upper_mask_description,
            "critical_size": 2,
            "cloud_size": 5,
            "k": 2,
        }
        assert isinstance(d["upper_mask_description"], str)
        assert json.loads(json.dumps(d, allow_nan=False)) == d


class TestSubsetInvariance:
    def test_passes_on_random_clouds(self):
        for seed in range(5):
            pts = random_cloud(seed, n=128)
            bank = FeatureBank.rbf(bounding_box(pts), k=16, seed=seed)
            report = verify_subset_invariance(pts, bank, trials=25, seed=seed)
            assert report.passed
            assert report.trials == 25
            assert report.failures == ()

    def test_to_dict(self):
        pts = random_cloud(11, n=32)
        bank = FeatureBank.rbf(bounding_box(pts), k=4, seed=0)
        d = verify_subset_invariance(pts, bank, trials=5, seed=0).to_dict()
        assert d["passed"] is True
        assert d["trials"] == 5
        assert len(d["u"]) == 4

    def test_rejects_negative_trials(self):
        pts = random_cloud(11, n=32)
        bank = FeatureBank.rbf(bounding_box(pts), k=4, seed=0)
        with pytest.raises(ValueError, match="trials=-1"):
            verify_subset_invariance(pts, bank, trials=-1, seed=0)

    @pytest.mark.parametrize(
        "points, bank, trials",
        [
            (CLOUD_5K, FeatureBank.rbf(bounding_box(CLOUD_5K), k=16, seed=0), 10),
            (np.eye(3), CoordinateBank((0, 1, 2)), 4),
        ],
        ids=["random-5k", "all-critical"],
    )
    def test_matches_sorted_set_reference(self, points, bank, trials, monkeypatch):
        # The trials draw the same subsets, from the same calls on the same
        # population, as building each one with union1d from setdiff1d's
        # complement of the critical set.
        feats = bank.evaluate(points)
        report = critical_set(points, bank)
        others = np.setdiff1d(np.arange(len(points)), report.critical_indices)
        rng = np.random.default_rng(3)
        expected_draws, failures = [], []
        for trial in range(trials):
            extra = np.empty(0, dtype=np.intp)
            if others.size:
                size = int(rng.integers(0, others.size + 1))
                extra = rng.choice(others, size=size, replace=False)
                expected_draws.append((others, size, extra))
            subset = np.union1d(report.critical_indices, extra).astype(np.intp)
            if not np.array_equal(feats[subset].max(axis=0), report.u):
                failures.append(trial)
        expected = {
            "trials": trials,
            "failures": failures,
            "passed": not failures,
            "u": [float(v) for v in report.u],
            "critical_indices": [int(i) for i in report.critical_indices],
        }

        draws = []
        real_rng = np.random.default_rng

        class RecordingRng:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

            def choice(self, population, size, replace):
                picked = self.rng.choice(population, size=size, replace=replace)
                draws.append((np.array(population), size, picked))
                return picked

        monkeypatch.setattr(np.random, "default_rng", RecordingRng)
        got = verify_subset_invariance(points, bank, trials=trials, seed=3).to_dict()
        assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert len(draws) == len(expected_draws) == (trials if others.size else 0)
        for (population, size, picked), (want_population, want_size, want) in zip(
            draws, expected_draws
        ):
            np.testing.assert_array_equal(population, want_population)
            assert size == want_size
            np.testing.assert_array_equal(picked, want)

    @given(st.integers(0, 10_000))
    def test_any_superset_of_critical_reproduces_u(self, seed):
        pts = random_cloud(99, n=60)
        bank = FeatureBank.rbf(bounding_box(pts), k=8, seed=7)
        report = critical_set(pts, bank)
        rng = np.random.default_rng(seed)
        others = np.setdiff1d(np.arange(60), report.critical_indices)
        extra = others[rng.random(others.size) < 0.5]
        subset = np.union1d(report.critical_indices, extra)
        np.testing.assert_array_equal(bank.evaluate(pts[subset]).max(axis=0), report.u)
