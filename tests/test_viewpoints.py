"""Viewpoint grid construction and perspective enumeration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvrep.geometry import Aabb, FovSpec
from mvrep.viewpoints import (
    DEFAULT_PITCHES,
    DEFAULT_YAWS,
    GridConfig,
    enumerate_perspectives,
    grid_viewpoints,
)


def box(hi, lo=(0.0, 0.0, 0.0)):
    return Aabb(lo=np.array(lo, dtype=float), hi=np.array(hi, dtype=float))


class TestGridConfig:
    def test_defaults(self):
        cfg = GridConfig()
        assert cfg.spacing == 4.0
        assert cfg.camera_height == 1.5
        assert cfg.yaw_steps == tuple(float(y) for y in range(0, 360, 45))
        assert cfg.pitch_steps == (-30.0, 0.0, 30.0)

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            GridConfig(spacing=0.0)

    def test_empty_steps(self):
        with pytest.raises(ValueError):
            GridConfig(yaw_steps=())


    @pytest.mark.parametrize(
        "kwargs",
        [
            {"camera_height": float("nan")},
            {"camera_height": float("inf")},
            {"yaw_steps": (float("nan"), 0.0)},
            {"pitch_steps": (0.0, float("inf"))},
        ],
    )
    def test_non_finite_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            GridConfig(**kwargs)


class TestGridViewpoints:
    def test_exact_multiple_extent(self):
        vps = grid_viewpoints(box((8.0, 4.0, 3.0)), GridConfig())
        xs = sorted(set(vps[:, 0]))
        ys = sorted(set(vps[:, 1]))
        assert xs == [0.0, 4.0, 8.0]
        assert ys == [0.0, 4.0]
        assert len(vps) == 6

    def test_infinite_spacing_puts_viewpoints_on_the_corners(self):
        vps = grid_viewpoints(box((4.0, 3.0, 2.5)), GridConfig(spacing=float("inf")))
        np.testing.assert_array_equal(vps, [[0, 0, 1.5], [0, 3, 1.5], [4, 0, 1.5], [4, 3, 1.5]])

    def test_boundary_line_appended(self):
        vps = grid_viewpoints(box((8.0, 6.0, 3.0)), GridConfig())
        ys = sorted(set(vps[:, 1]))
        assert ys == [0.0, 4.0, 6.0]

    def test_small_extent_gets_both_edges(self):
        vps = grid_viewpoints(box((1.0, 1.0, 3.0)), GridConfig())
        xs = sorted(set(vps[:, 0]))
        assert xs == [0.0, 1.0]

    def test_camera_height_applied(self):
        vps = grid_viewpoints(box((4.0, 4.0, 3.0), lo=(0, 0, 1.0)), GridConfig())
        np.testing.assert_allclose(vps[:, 2], 2.5)

    def test_lexicographic_order(self):
        vps = grid_viewpoints(box((8.0, 6.0, 3.0)), GridConfig())
        as_tuples = [tuple(v[:2]) for v in vps]
        assert as_tuples == sorted(as_tuples)

    def test_degenerate_extent_collapses_to_centroid(self):
        vps = grid_viewpoints(box((0.0, 6.0, 3.0)), GridConfig())
        assert vps.shape == (1, 3)
        np.testing.assert_allclose(vps[0], [0.0, 3.0, 1.5])

    def test_offset_origin(self):
        vps = grid_viewpoints(
            box((12.0, 7.0, 3.0), lo=(2.0, 1.0, 0.0)), GridConfig()
        )
        assert sorted(set(vps[:, 0])) == [2.0, 6.0, 10.0, 12.0]
        assert sorted(set(vps[:, 1])) == [1.0, 5.0, 7.0]

    @given(
        ex=st.floats(0.5, 40.0),
        ey=st.floats(0.5, 40.0),
        spacing=st.floats(0.5, 10.0),
    )
    def test_line_counts_and_containment(self, ex, ey, spacing):
        cfg = GridConfig(spacing=spacing)
        vps = grid_viewpoints(box((ex, ey, 3.0)), cfg)
        xs = sorted(set(vps[:, 0]))
        ys = sorted(set(vps[:, 1]))
        assert len(vps) == len(xs) * len(ys)
        assert xs[0] == 0.0 and ys[0] == 0.0
        assert xs[-1] <= ex + 1e-9 and ys[-1] <= ey + 1e-9
        # consecutive lines never exceed the spacing
        assert all(b - a <= spacing + 1e-9 for a, b in zip(xs, xs[1:]))


class TestEnumeratePerspectives:
    def test_cartesian_product_counts(self):
        vps = grid_viewpoints(box((8.0, 6.0, 3.0)), GridConfig())
        persp = enumerate_perspectives(vps, GridConfig(), FovSpec())
        assert len(persp) == len(vps) * len(DEFAULT_YAWS) * len(DEFAULT_PITCHES)

    def test_sequential_ids(self):
        vps = grid_viewpoints(box((4.0, 4.0, 3.0)), GridConfig())
        persp = enumerate_perspectives(vps, GridConfig(), FovSpec())
        assert [p.perspective_id for p in persp] == list(range(len(persp)))

    def test_enumeration_order(self):
        vps = np.array([[0.0, 0.0, 1.5], [4.0, 0.0, 1.5]])
        cfg = GridConfig(yaw_steps=(0.0, 90.0), pitch_steps=(-30.0, 0.0))
        persp = enumerate_perspectives(vps, cfg, FovSpec())
        combos = [(p.viewpoint[0], p.yaw_deg, p.pitch_deg) for p in persp]
        assert combos == [
            (0.0, 0.0, -30.0),
            (0.0, 0.0, 0.0),
            (0.0, 90.0, -30.0),
            (0.0, 90.0, 0.0),
            (4.0, 0.0, -30.0),
            (4.0, 0.0, 0.0),
            (4.0, 90.0, -30.0),
            (4.0, 90.0, 0.0),
        ]

    def test_fov_attached(self):
        vps = np.array([[0.0, 0.0, 1.5]])
        fov = FovSpec(hfov_deg=90.0)
        persp = enumerate_perspectives(vps, GridConfig(), fov)
        assert all(p.fov == fov for p in persp)

    def test_viewpoint_tuples(self):
        vps = np.array([[1.0, 2.0, 1.5]])
        persp = enumerate_perspectives(vps, GridConfig(), FovSpec())
        assert persp[0].viewpoint == (1.0, 2.0, 1.5)
