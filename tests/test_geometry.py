"""Unit tests for camera geometry, the flip map, and the hull wrapper."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import max_outside_distance
from mvrep.geometry import (
    CULL_BLOCK_ROWS,
    Aabb,
    ConvexHull3,
    DegenerateInputError,
    FovSpec,
    Perspective,
    bounding_box,
    camera_axes,
    convex_hull_3d,
    frustum_mask,
    spherical_flip,
)


def _perspective(viewpoint=(0.0, 0.0, 0.0), yaw=0.0, pitch=0.0, **fov_kwargs):
    return Perspective(0, tuple(viewpoint), yaw, pitch, FovSpec(**fov_kwargs))


class TestBoundingBox:
    def test_basic_extent_and_diameter(self):
        box = bounding_box(np.array([[0.0, 0, 0], [2.0, 1.0, 0.5]]))
        assert isinstance(box, Aabb)
        np.testing.assert_allclose(box.extent, [2.0, 1.0, 0.5])
        assert box.diameter == pytest.approx(np.sqrt(4 + 1 + 0.25))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bounding_box(np.zeros((0, 3)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            bounding_box(np.zeros((5, 2)))


class TestFovSpec:
    def test_defaults(self):
        fov = FovSpec()
        assert (fov.hfov_deg, fov.vfov_deg) == (70.0, 60.0)
        assert (fov.min_depth, fov.max_depth) == (0.5, 4.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hfov_deg": 0.0},
            {"hfov_deg": 180.0},
            {"vfov_deg": -10.0},
            {"min_depth": 0.0},
            {"min_depth": 4.0, "max_depth": 4.0},
            {"min_depth": 5.0, "max_depth": 4.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FovSpec(**kwargs)


class TestCameraAxes:
    def test_identity_heading(self):
        forward, right, up = camera_axes(0.0, 0.0)
        np.testing.assert_allclose(forward, [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(right, [0.0, -1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(up, [0.0, 0.0, 1.0], atol=1e-15)

    def test_yaw_quarter_turn(self):
        forward, right, up = camera_axes(90.0, 0.0)
        np.testing.assert_allclose(forward, [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(right, [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(up, [0.0, 0.0, 1.0], atol=1e-15)

    def test_pitch_up(self):
        forward, _, up = camera_axes(0.0, 30.0)
        assert forward[2] == pytest.approx(0.5)
        assert up[0] == pytest.approx(-0.5)

    @given(
        yaw=st.floats(-720, 720, allow_nan=False),
        pitch=st.floats(-89, 89, allow_nan=False),
    )
    def test_axes_orthonormal_right_handed(self, yaw, pitch):
        forward, right, up = camera_axes(yaw, pitch)
        basis = np.stack([forward, right, up])
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(np.cross(right, forward), up, atol=1e-12)


def _mask(points, yaw=0.0):
    """``frustum_mask`` of the default FovSpec from the origin, as a list."""
    return frustum_mask(np.array(points, dtype=float), _perspective(yaw=yaw)).tolist()


class TestFrustum:
    # Default FovSpec: 70 x 60 degrees, depth 0.5..4.0, all bounds inclusive.
    def test_point_straight_ahead(self):
        assert _mask([[2.0, 0.0, 0.0]]) == [True]

    def test_point_too_close(self):
        assert _mask([[0.3, 0.0, 0.0]]) == [False]

    def test_point_beyond_max_depth(self):
        assert _mask([[4.5, 0.0, 0.0]]) == [False]

    def test_depth_bounds_inclusive(self):
        assert _mask([[0.5, 0.0, 0.0], [4.0, 0.0, 0.0]]) == [True, True]

    def test_point_outside_horizontal_fov(self):
        # 40 degrees off axis against a 70 degree horizontal fov
        p = [2.0 * np.cos(np.radians(40)), 2.0 * np.sin(np.radians(40)), 0.0]
        assert _mask([p]) == [False]

    def test_point_inside_horizontal_fov(self):
        p = [2.0 * np.cos(np.radians(30)), 2.0 * np.sin(np.radians(30)), 0.0]
        assert _mask([p]) == [True]

    def test_vertical_fov_cut(self):
        # 35 degrees of elevation against a 60 degree vertical fov
        p = [2.0 * np.cos(np.radians(35)), 0.0, 2.0 * np.sin(np.radians(35))]
        assert _mask([p]) == [False]

    def test_yawed_perspective(self):
        assert _mask([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0]], yaw=90.0) == [True, False]


def _unblocked_mask(points, perspective):
    """The cull as one whole-array pass: the reference for the blocked one."""
    fov = perspective.fov
    forward, right, up = camera_axes(perspective.yaw_deg, perspective.pitch_deg)
    rel = points - np.asarray(perspective.viewpoint, dtype=np.float64)
    d = rel @ forward
    lateral = rel @ right
    vertical = rel @ up
    mask = (d >= fov.min_depth) & (d <= fov.max_depth)
    mask &= np.abs(np.arctan2(lateral, d)) <= math.radians(fov.hfov_deg) / 2.0
    mask &= np.abs(np.arctan2(vertical, d)) <= math.radians(fov.vfov_deg) / 2.0
    return mask


def _fov_edge(half_angle, d=2.0):
    """Largest offset whose angle at depth ``d`` is still within ``half_angle``."""
    y = d * math.tan(half_angle)
    while np.arctan2(y, d) > half_angle:
        y = np.nextafter(y, 0.0)
    while np.arctan2(np.nextafter(y, np.inf), d) <= half_angle:
        y = np.nextafter(y, np.inf)
    return float(y)


_FOV = FovSpec()
_H_EDGE = _fov_edge(math.radians(_FOV.hfov_deg) / 2.0)
_V_EDGE = _fov_edge(math.radians(_FOV.vfov_deg) / 2.0)
# From the origin at yaw 0, pitch 0: depth is x, lateral is -y, vertical is z,
# each exact, so these points sit on a bound or one ulp outside it.
_EDGE_POINTS = {
    "min-depth": ([_FOV.min_depth, 0.0, 0.0], [np.nextafter(_FOV.min_depth, 0.0), 0.0, 0.0]),
    "max-depth": ([_FOV.max_depth, 0.0, 0.0], [np.nextafter(_FOV.max_depth, np.inf), 0.0, 0.0]),
    "hfov-edge": ([2.0, -_H_EDGE, 0.0], [2.0, -np.nextafter(_H_EDGE, np.inf), 0.0]),
    "vfov-edge": ([2.0, 0.0, _V_EDGE], [2.0, 0.0, np.nextafter(_V_EDGE, np.inf)]),
}


class TestFrustumBlocks:
    """The cull runs in row blocks and must agree with one whole-array pass."""

    B = CULL_BLOCK_ROWS
    EDGE_ROWS = [B - 1, B, B + 1, 2 * B, 2 * B + 4]

    @pytest.fixture(scope="class")
    def cloud(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform([-1.0, -4.0, -3.0], [5.0, 4.0, 3.0], size=(2 * self.B + 5, 3))
        pts[2 * self.B + 2] = [2.0, 0.0, 0.0]  # inside, in the tail block
        return pts

    @pytest.mark.parametrize("outside", [False, True], ids=["on", "one-ulp-out"])
    @pytest.mark.parametrize("edge", sorted(_EDGE_POINTS))
    def test_edges_across_block_boundaries(self, cloud, edge, outside):
        pts = cloud.copy()
        pts[self.EDGE_ROWS] = _EDGE_POINTS[edge][outside]
        perspective = _perspective()
        mask = frustum_mask(pts, perspective)
        assert mask[self.EDGE_ROWS].tolist() == [not outside] * len(self.EDGE_ROWS)
        assert mask[2 * self.B + 2]
        np.testing.assert_array_equal(mask, _unblocked_mask(pts, perspective))

    def test_random_headings_match_whole_array_pass(self, cloud):
        rng = np.random.default_rng(8)
        for i in range(6):
            perspective = Perspective(
                i, tuple(rng.uniform(-1.0, 1.0, 3).tolist()),
                float(rng.uniform(0.0, 360.0)), float(rng.uniform(-45.0, 45.0)), _FOV,
            )
            np.testing.assert_array_equal(
                frustum_mask(cloud, perspective), _unblocked_mask(cloud, perspective)
            )

    # A product over one row may round differently from the product over
    # many rows.  These two tests place a point whose cull result depends on
    # that rounding where a blocked cull could compute it on its own.
    HEADING = _perspective(viewpoint=(0.3, -0.2, 1.5), yaw=45.0, pitch=30.0)

    def _min_depth_candidates(self):
        """Points on the min-depth plane, well inside the field of view, and
        the indices of those whose depth a one-row product puts on the other
        side of ``min_depth`` than the many-row product does."""
        forward, right, up = camera_axes(45.0, 30.0)
        vp = np.asarray(self.HEADING.viewpoint)
        offsets = np.random.default_rng(9).uniform(-0.2, 0.2, size=(2000, 2))
        candidates = vp + _FOV.min_depth * forward + offsets[:, :1] * right + offsets[:, 1:] * up
        many = (candidates - vp) @ forward >= _FOV.min_depth
        one = np.array([((row[None] - vp) @ forward)[0] for row in candidates]) >= _FOV.min_depth
        return candidates, np.flatnonzero(many != one)

    def test_one_row_tail_rounds_as_whole_array(self, cloud):
        candidates, sensitive = self._min_depth_candidates()
        pts = np.vstack([cloud[: self.B], candidates[sensitive[0]]])
        np.testing.assert_array_equal(
            frustum_mask(pts, self.HEADING), _unblocked_mask(pts, self.HEADING)
        )

    def test_one_row_input_rounds_as_many_rows(self):
        candidates, sensitive = self._min_depth_candidates()
        assert sensitive.size > 0
        together = frustum_mask(candidates, self.HEADING)
        alone = [frustum_mask(candidates[i][None], self.HEADING)[0] for i in sensitive]
        assert alone == together[sensitive].tolist()

    def test_single_depth_survivor_rounds_as_whole_array(self):
        forward, right, up = camera_axes(45.0, 30.0)
        vp = np.asarray(self.HEADING.viewpoint)
        half_h = math.radians(_FOV.hfov_deg) / 2.0
        rng = np.random.default_rng(10)
        for _ in range(100):
            # Sweep across the horizontal field-of-view edge in sub-ulp steps.
            depth, height = rng.uniform(1.0, 3.0), rng.uniform(-0.5, 0.5)
            lateral = depth * (math.tan(half_h) + np.linspace(-3e-14, 3e-14, 6001))
            candidates = vp + depth * forward + lateral[:, None] * right + height * up
            rel = candidates - vp
            d = rel @ forward
            many = np.abs(np.arctan2(rel @ right, d)) <= half_h
            one = np.abs(np.arctan2([(row[None] @ right)[0] for row in rel], d)) <= half_h
            if (many != one).any():
                break
        # Every other row of the block lies behind the camera.
        pts = np.tile(vp - 2.0 * forward, (self.B, 1))
        pts[17] = candidates[int(np.argmax(many != one))]
        np.testing.assert_array_equal(
            frustum_mask(pts, self.HEADING), _unblocked_mask(pts, self.HEADING)
        )

    def test_empty_cloud(self):
        assert frustum_mask(np.empty((0, 3)), _perspective()).shape == (0,)


class TestSphericalFlip:
    def test_worked_example(self):
        flipped = spherical_flip(np.array([[1.0, 0.0, 0.0]]), [0.0, 0.0, 0.0], 2.0)
        np.testing.assert_allclose(flipped, [[3.0, 0.0, 0.0]], atol=1e-15)

    def test_involution(self, rng):
        pts = rng.normal(size=(2000, 3))
        vp = np.array([0.2, -0.1, 0.4])
        radius = float(np.linalg.norm(pts - vp, axis=1).max()) * 1.5
        back = spherical_flip(spherical_flip(pts, vp, radius), vp, radius)
        assert np.abs(back - pts).max() < 1e-9

    def test_radial_order_reversal(self, rng):
        direction = np.array([1.0, 2.0, -0.5])
        direction /= np.linalg.norm(direction)
        radii = rng.uniform(0.5, 3.0, size=64)
        pts = radii[:, None] * direction
        flipped = spherical_flip(pts, np.zeros(3), 5.0)
        flipped_norms = np.linalg.norm(flipped, axis=1)
        order = np.argsort(radii)
        assert np.all(np.diff(flipped_norms[order]) < 0)

    def test_viewpoint_coincidence_rejected(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="point 0"):
            spherical_flip(pts, [0.0, 0.0, 0.0], 2.0)

    def test_radius_smaller_than_scene_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            spherical_flip(np.array([[3.0, 0.0, 0.0]]), [0.0, 0.0, 0.0], 1.0)


TETRA = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.25, 0.25, 0.25],
    ]
)


class TestConvexHull:
    def test_tetrahedron_vertices(self):
        hull = convex_hull_3d(TETRA)
        np.testing.assert_array_equal(hull.vertex_indices, [0, 1, 2, 3])

    def test_facets_reference_vertices_only(self):
        hull = convex_hull_3d(TETRA)
        assert set(np.unique(hull.facets)) == set(hull.vertex_indices)
        assert hull.facets.shape[1] == 3

    def test_facets_outward_oriented(self, rng):
        pts = rng.normal(size=(50, 3))
        hull = convex_hull_3d(pts)
        centroid = pts[hull.vertex_indices].mean(axis=0)
        a, b, c = (pts[hull.facets[:, k]] for k in range(3))
        normals = np.cross(b - a, c - a)
        outward = np.einsum("ij,ij->i", normals, a - centroid)
        assert np.all(outward > 0)

    def test_all_points_inside(self, rng):
        pts = rng.normal(size=(400, 3))
        hull = convex_hull_3d(pts)
        diameter = bounding_box(pts).diameter
        assert max_outside_distance(pts, hull) <= 1e-9 * diameter

    def test_idempotent(self, rng):
        pts = rng.normal(size=(100, 3))
        hull = convex_hull_3d(pts)
        verts = pts[hull.vertex_indices]
        again = convex_hull_3d(verts)
        assert again.vertex_indices.size == hull.vertex_indices.size

    def test_coplanar_rejected_with_dimensionality(self, rng):
        xy = rng.normal(size=(30, 2))
        # Three points that are not collinear span a plane too.
        triangle = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.5], [0.0, 2.0, 1.0]])
        for pts in (np.column_stack([xy, np.zeros(30)]), triangle):
            with pytest.raises(DegenerateInputError) as err:
                convex_hull_3d(pts)
            assert err.value.dimensionality == 2

    def test_collinear_rejected(self):
        t = np.linspace(0, 1, 12)
        # Two distinct points always span a line.
        for pts in (np.outer(t, [1.0, 2.0, 3.0]), np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])):
            with pytest.raises(DegenerateInputError) as err:
                convex_hull_3d(pts)
            assert err.value.dimensionality == 1

    def test_repeated_point_rejected(self):
        pts = np.tile([[1.0, 2.0, 3.0]], (8, 1))
        with pytest.raises(DegenerateInputError) as err:
            convex_hull_3d(pts)
        assert err.value.dimensionality == 0

    def test_hull_type(self, rng):
        hull = convex_hull_3d(rng.normal(size=(20, 3)))
        assert isinstance(hull, ConvexHull3)

    @given(seed=st.integers(0, 10_000))
    def test_random_sets_contained(self, seed):
        pts = np.random.default_rng(seed).normal(size=(40, 3))
        hull = convex_hull_3d(pts)
        diameter = bounding_box(pts).diameter
        assert max_outside_distance(pts, hull) <= 1e-9 * diameter
