"""Tests for the independent verification oracles.

The oracles themselves get fixed expected values here (hand-derived or
analytic), since the rest of the suite leans on them as ground truth.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import CoordinateBank, f1_score
from mvrep.critical import FeatureBank
from mvrep.geometry import convex_hull_3d
from oracles import (
    cap_visibility_sphere,
    hull_bruteforce,
    maxpool_bruteforce,
    median_nn_spacing,
    raycast_visibility,
)


class TestCapVisibilitySphere:
    def test_visible_fraction_matches_analytic(self):
        sample = cap_visibility_sphere(20_000, 1.0, 3.0, seed=0)
        expected = (1.0 - 1.0 / 3.0) / 2.0
        assert sample.visible.mean() == pytest.approx(expected, abs=0.01)

    def test_points_on_sphere(self):
        sample = cap_visibility_sphere(500, 2.0, 5.0, seed=1)
        np.testing.assert_allclose(
            np.linalg.norm(sample.points, axis=1), 2.0, atol=1e-12
        )

    def test_visible_set_is_polar_cap(self):
        sample = cap_visibility_sphere(2_000, 1.0, 4.0, seed=2)
        cos_theta = sample.points[:, 2] / 1.0
        np.testing.assert_array_equal(sample.visible, cos_theta >= 0.25)

    def test_viewpoint_on_axis(self):
        sample = cap_visibility_sphere(10, 1.0, 3.0)
        np.testing.assert_allclose(sample.viewpoint, [0.0, 0.0, 3.0])

    def test_deterministic(self):
        a = cap_visibility_sphere(100, 1.0, 3.0, seed=9)
        b = cap_visibility_sphere(100, 1.0, 3.0, seed=9)
        np.testing.assert_array_equal(a.points, b.points)

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ValueError):
            cap_visibility_sphere(10, 2.0, 1.0)


class TestMedianNnSpacing:
    def test_regular_lattice(self):
        g = np.stack(
            np.meshgrid(*[np.arange(4) * 0.5] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        assert median_nn_spacing(g) == pytest.approx(0.5)


class TestHullBruteforce:
    def test_cube_with_interior_point(self):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        pts = np.vstack([corners, [[0.5, 0.5, 0.5]]])
        np.testing.assert_array_equal(hull_bruteforce(pts), np.arange(8))

    def test_matches_hull_implementation(self, rng):
        for _ in range(20):
            pts = rng.normal(size=(rng.integers(6, 25), 3))
            brute = hull_bruteforce(pts)
            hull = convex_hull_3d(pts)
            np.testing.assert_array_equal(brute, np.sort(hull.vertex_indices))

    def test_size_limits(self):
        with pytest.raises(ValueError):
            hull_bruteforce(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            hull_bruteforce(np.zeros((31, 3)))

    def test_degenerate_rejected(self):
        pts = np.column_stack([np.arange(6.0), np.arange(6.0), np.zeros(6)])
        with pytest.raises(ValueError, match="degenerate"):
            hull_bruteforce(pts)


class TestMaxpoolBruteforce:
    def test_hand_fixture(self):
        # Two coordinate features over five points; the elementwise max is
        # (1.0, 0.9) and only point 1 (dim 0) with point 2 (dim 1) attain it.
        pts = np.array(
            [
                [0.2, 0.1, 0.0],
                [1.0, 0.3, 0.0],
                [0.5, 0.9, 0.0],
                [0.4, 0.2, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        bank = CoordinateBank((0, 1))
        u, minimal = maxpool_bruteforce(pts, bank)
        np.testing.assert_allclose(u, [1.0, 0.9])
        assert minimal == [(1, 2)]

    def test_single_point(self):
        pts = np.array([[0.3, 0.7, 0.0]])
        bank = CoordinateBank((0, 1))
        u, minimal = maxpool_bruteforce(pts, bank)
        np.testing.assert_allclose(u, [0.3, 0.7])
        assert minimal == [(0,)]

    def test_tied_points_give_alternative_minimal_sets(self):
        # Points 0 and 2 are identical, so either one alone attains both
        # feature maxima held by that location.
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        bank = CoordinateBank((0, 1))
        _, minimal = maxpool_bruteforce(pts, bank)
        assert minimal == [(0, 1), (1, 2)]

    def test_size_limit(self):
        bank = CoordinateBank((0,))
        with pytest.raises(ValueError):
            maxpool_bruteforce(np.zeros((16, 3)), bank)

    def test_minimal_sets_are_minimal(self, rng):
        from mvrep.geometry import bounding_box

        pts = rng.random(size=(8, 3))
        bank = FeatureBank.rbf(bounding_box(pts), k=5, seed=3)
        u, minimal = maxpool_bruteforce(pts, bank)
        feats = bank.evaluate(pts)
        for subset in minimal:
            np.testing.assert_array_equal(feats[list(subset)].max(axis=0), u)
            for drop in subset:
                rest = [i for i in subset if i != drop]
                assert not np.array_equal(feats[rest].max(axis=0), u)


class TestRaycastVisibility:
    def test_two_collinear_points(self):
        pts = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        vis = raycast_visibility(pts, np.zeros(3), 0.1)
        np.testing.assert_array_equal(vis, [True, False])

    def test_off_ray_point_unaffected(self):
        pts = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        vis = raycast_visibility(pts, np.zeros(3), 0.1)
        np.testing.assert_array_equal(vis, [True, False, True])

    def test_single_point_visible(self):
        vis = raycast_visibility(np.array([[1.0, 2.0, 3.0]]), np.zeros(3), 0.5)
        np.testing.assert_array_equal(vis, [True])

    def test_empty_input(self):
        assert raycast_visibility(np.zeros((0, 3)), np.zeros(3), 0.5).size == 0

    def test_equidistant_points_do_not_occlude(self):
        # Same distance, nearly same direction: neither is strictly closer.
        pts = np.array([[2.0, 0.0, 0.0], [2.0 * np.cos(0.01), 2.0 * np.sin(0.01), 0.0]])
        vis = raycast_visibility(pts, np.zeros(3), 0.5)
        np.testing.assert_array_equal(vis, [True, True])

    def test_viewpoint_coincidence_rejected(self):
        with pytest.raises(ValueError, match="viewpoint"):
            raycast_visibility(np.zeros((1, 3)), np.zeros(3), 0.1)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError, match="occlusion_radius"):
            raycast_visibility(np.array([[1.0, 0.0, 0.0]]), np.zeros(3), 0.0)

    def test_sphere_cap_agreement(self):
        # Dense sphere seen from 3 radii out; the tuned tube radius is three
        # median spacings.  The analytic cap is exact ground truth here.
        sample = cap_visibility_sphere(20_000, 1.0, 3.0, seed=7)
        radius = 3.0 * median_nn_spacing(sample.points)
        vis = raycast_visibility(sample.points, sample.viewpoint, radius)
        assert f1_score(vis, sample.visible) >= 0.98

    def test_occluder_near_viewpoint_blocks_all_tubes(self):
        # A point closer to the viewpoint than the tube radius sits inside
        # the start of every sight tube, so it hides every other point; pair
        # pruning cannot see such pairs, which is what the exact pass is for.
        pts = np.array([[0.05, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        vis = raycast_visibility(pts, np.zeros(3), 0.1)
        np.testing.assert_array_equal(vis, [True, False, False])

    @given(seed=st.integers(0, 1_000))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1, 1, size=(30, 3)) + np.array([3.0, 0.0, 0.0])
        perm = rng.permutation(30)
        vis = raycast_visibility(pts, np.zeros(3), 0.2)
        vis_perm = raycast_visibility(pts[perm], np.zeros(3), 0.2)
        np.testing.assert_array_equal(vis[perm], vis_perm)
