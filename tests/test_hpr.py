"""Hidden point removal behaviour on analytic and constructed scenes."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from helpers import DEGENERATE_SCENES, TILTED_BASIS, ball_sample, f1_score
from mvrep import hpr
from mvrep.geometry import DegenerateInputError, convex_hull_3d, spherical_flip
from mvrep.hpr import visible_points
from mvrep.pipeline import generate_multiview
from oracles import cap_visibility_sphere
from test_golden import golden_config, golden_room


def to_mask(indices, n):
    mask = np.zeros(n, dtype=bool)
    mask[indices] = True
    return mask


class TestSmallInputs:
    def test_single_point_visible(self):
        vis = visible_points(np.array([[1.0, 2.0, 3.0]]), np.zeros(3), 1000.0)
        np.testing.assert_array_equal(vis, [0])

    def test_fewer_than_four_points_all_visible(self):
        pts = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        np.testing.assert_array_equal(visible_points(pts, np.zeros(3), 1000.0), [0, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            visible_points(np.zeros((0, 3)), np.zeros(3), 1000.0)

    def test_viewpoint_coincidence_rejected(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="point 0"):
            visible_points(pts, np.zeros(3), 1000.0)

    def test_radius_factor_below_one_rejected(self):
        with pytest.raises(ValueError, match="radius_factor"):
            visible_points(np.array([[1.0, 0, 0]]), np.zeros(3), 0.5)


    @pytest.mark.parametrize(
        "viewpoint, radius_factor",
        [((np.nan, 0, 0), 1000.0), ((np.inf, 0, 0), 1000.0), ((0, 0, 0), np.inf)],
    )
    def test_non_finite_viewpoint_or_radius_factor_rejected(self, viewpoint, radius_factor):
        with pytest.raises(ValueError, match="finite"):
            visible_points(np.array([[1.0, 0, 0]]), viewpoint, radius_factor)


class TestOcclusion:
    def test_two_points_on_one_ray(self):
        # The pair sits on the +x ray inside a far surrounding shell, so the
        # hull cannot promote the far point through an empty neighbourhood.
        rng = np.random.default_rng(4)
        shell = rng.normal(size=(500, 3))
        shell /= np.linalg.norm(shell, axis=1, keepdims=True)
        pts = np.vstack([[[1.0, 0, 0], [2.0, 0, 0]], 10.0 * shell])
        vis = to_mask(visible_points(pts, np.zeros(3), 1000.0), len(pts))
        assert vis[0] and not vis[1]

    def test_sphere_cap_agreement(self):
        sample = cap_visibility_sphere(5_000, 1.0, 3.0, seed=2)
        vis = to_mask(
            visible_points(sample.points, sample.viewpoint, 100.0),
            len(sample.points),
        )
        assert f1_score(vis, sample.visible) >= 0.94

    def test_radius_factor_plateau_when_densely_sampled(self):
        # 10x..1000x give near-identical answers on a dense convex sample;
        # the plateau narrows as sampling thins (back points start to leak
        # through the flattened flip), so density matters here.
        sample = cap_visibility_sphere(20_000, 1.0, 3.0, seed=3)
        n = len(sample.points)
        scores = [
            f1_score(
                to_mask(visible_points(sample.points, sample.viewpoint, rf), n),
                sample.visible,
            )
            for rf in (10.0, 1000.0)
        ]
        assert abs(scores[0] - scores[1]) < 0.02


class TestInvariances:
    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(300, 3)) + [5.0, 0, 0]
        a = visible_points(pts, np.zeros(3), 1000.0)
        b = visible_points(pts, np.zeros(3), 1000.0)
        np.testing.assert_array_equal(a, b)

    def test_output_sorted_and_in_range(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(200, 3)) + [5.0, 0, 0]
        vis = visible_points(pts, np.zeros(3), 1000.0)
        assert np.all(np.diff(vis) > 0)
        assert vis[0] >= 0 and vis[-1] < 200

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(400, 3)) + [4.0, 1.0, 0.5]
        vp = np.array([0.3, -0.2, 0.1])
        a = visible_points(pts, vp, 1000.0)
        b = visible_points(pts * 7.5, vp * 7.5, 1000.0)
        np.testing.assert_array_equal(a, b)

    def test_rotation_invariance_within_boundary_slack(self):
        sample = cap_visibility_sphere(2_000, 1.0, 3.0, seed=8)
        angle = 0.7
        rot = np.array(
            [
                [np.cos(angle), -np.sin(angle), 0.0],
                [np.sin(angle), np.cos(angle), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        a = set(visible_points(sample.points, sample.viewpoint, 1000.0).tolist())
        b = set(
            visible_points(sample.points @ rot.T, rot @ sample.viewpoint, 1000.0).tolist()
        )
        # eps-scale hull decisions may flip a handful of silhouette points
        assert len(a ^ b) <= 0.005 * len(sample.points)


def in_plane_hull(points, basis):
    """Indices of ``points`` whose flipped images are vertices of the 2-D
    hull of the flipped set and the viewpoint, the origin, in the
    coordinates of the plane spanned by the rows of ``basis``."""
    radius = 1000.0 * np.linalg.norm(points, axis=1).max()
    flat = spherical_flip(points, np.zeros(3), radius) @ basis.T
    vertices = ConvexHull(np.vstack([flat, np.zeros(2)])).vertices
    return np.sort(vertices[vertices < len(points)])


class TestDegenerateScenes:
    @pytest.mark.parametrize("name", DEGENERATE_SCENES)
    def test_degenerate_scene_is_hulled_once_more_when_lifted(self, monkeypatch, name):
        outcomes = []

        def recording(points):
            try:
                hull = convex_hull_3d(points)
            except DegenerateInputError:
                outcomes.append("degenerate")
                raise
            outcomes.append("hull")
            return hull

        monkeypatch.setattr(hpr, "convex_hull_3d", recording)
        pts = DEGENERATE_SCENES[name]
        vis = visible_points(pts, np.zeros(3), 1000.0)
        assert outcomes == ["degenerate", "hull"]
        assert vis.size > 0
        assert np.all((vis >= 0) & (vis < len(pts)))
        assert np.all(np.diff(vis) > 0)

    def test_planar_scene_deterministic(self):
        rng = np.random.default_rng(10)
        xy = rng.uniform(1.0, 4.0, size=(40, 2))
        pts = np.column_stack([xy, np.zeros(40)])
        a = visible_points(pts, np.zeros(3), 1000.0)
        b = visible_points(pts, np.zeros(3), 1000.0)
        np.testing.assert_array_equal(a, b)

    def test_planar_scene_keeps_the_in_plane_hull(self):
        pts = DEGENERATE_SCENES["planar"]
        expected = in_plane_hull(pts, np.eye(3)[:2])
        assert len(expected) == 34
        np.testing.assert_array_equal(visible_points(pts, np.zeros(3), 1000.0), expected)

    def test_tilted_plane_through_the_viewpoint_keeps_the_in_plane_hull(self):
        pts = DEGENERATE_SCENES["tilted_plane"]
        np.testing.assert_array_equal(
            visible_points(pts, np.zeros(3), 1000.0), in_plane_hull(pts, TILTED_BASIS)
        )

    def test_collinear_scene_keeps_only_the_nearest_point(self):
        pts = DEGENERATE_SCENES["collinear"]
        np.testing.assert_array_equal(visible_points(pts, np.zeros(3), 1000.0), [0])

    def test_two_points_alone_on_one_ray_keep_the_nearer(self):
        pts = DEGENERATE_SCENES["ray_pair"]
        np.testing.assert_array_equal(visible_points(pts, np.zeros(3), 1000.0), [0])

    def test_repeated_point_keeps_one_copy(self):
        # Copies of one point flip to one image, and a hull keeps one copy of
        # a vertex.  Here it is the lowest index.
        pts = DEGENERATE_SCENES["repeated_point"]
        np.testing.assert_array_equal(visible_points(pts, np.zeros(3), 1000.0), [0])

    def test_copies_of_a_visible_point_keep_one_copy(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(60, 3)) + [5.0, 0, 0]
        vis = visible_points(pts, np.zeros(3), 1000.0)
        # Row i of the copied scene is a copy of point source[i].
        source = np.concatenate([np.arange(60), vis])
        kept = visible_points(pts[source], np.zeros(3), 1000.0)
        np.testing.assert_array_equal(np.sort(source[kept]), vis)


def default_option_vertices(points):
    """Sorted hull vertex indices of ``points`` from scipy's default options."""
    hull = ConvexHull(points)
    return np.flatnonzero(np.bincount(hull.simplices.ravel(), minlength=len(points)))


def test_hull_option_keeps_default_vertex_sets(monkeypatch):
    # Every input that HPR hulls in the golden generate run, in the golden
    # room seen from the centre of its bounds and in the degenerate scenes,
    # lifted off their span, then random balls.
    inputs = []

    def recording(points):
        hull = convex_hull_3d(points)
        inputs.append(points)
        return hull

    monkeypatch.setattr(hpr, "convex_hull_3d", recording)
    room = golden_room()
    generate_multiview(room, golden_config(jobs=1))
    visible_points(room.positions, (room.bounds.lo + room.bounds.hi) / 2.0, 1000.0)
    golden_hulls = len(inputs)
    for points in DEGENERATE_SCENES.values():
        visible_points(points, np.zeros(3), 1000.0)
    assert golden_hulls > 0 and len(inputs) == golden_hulls + len(DEGENERATE_SCENES)
    rng = np.random.default_rng(41)
    inputs += [ball_sample(rng, int(rng.integers(4, 501))) for _ in range(200)]
    for points in inputs:
        np.testing.assert_array_equal(
            convex_hull_3d(points).vertex_indices, default_option_vertices(points)
        )
