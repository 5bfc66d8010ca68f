"""End-to-end generation pipeline and training-list fusion."""

import numpy as np
import pytest

from mvrep import pipeline
from mvrep.geometry import FovSpec, frustum_mask
from mvrep.io import parse_s3dis_room, read_manifest
from mvrep.pipeline import (
    FusionRecipe,
    PipelineConfig,
    fuse_training_set,
    generate_multiview,
    write_outputs,
)
from mvrep.synthetic import synthetic_room
from mvrep.viewpoints import GridConfig, enumerate_perspectives, grid_viewpoints


def small_config(**overrides):
    defaults = dict(
        grid=GridConfig(spacing=2.0),
        min_points=50,
        radius_factor=1000.0,
        seed=0,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def room():
    return synthetic_room(12_000, size=(4.0, 3.0, 2.5), seed=1)


@pytest.fixture(scope="module")
def generated(room):
    return generate_multiview(room, small_config())


class TestPipelineConfig:
    def test_echo_excludes_execution_knobs(self):
        echo = PipelineConfig(jobs=7).echo()
        assert "jobs" not in echo
        assert echo["min_points"] == 40_000
        assert echo["radius_factor"] == 1000.0

    def test_hash_ignores_jobs_but_not_parameters(self):
        base = PipelineConfig()
        assert base.config_hash() == PipelineConfig(jobs=8).config_hash()
        assert base.config_hash() != PipelineConfig(seed=1).config_hash()
        assert base.config_hash() != PipelineConfig(min_points=1).config_hash()

    def test_validation(self):
        with pytest.raises(ValueError, match="min_points"):
            PipelineConfig(min_points=-1)
        with pytest.raises(ValueError, match="radius_factor"):
            PipelineConfig(radius_factor=0.5)
        with pytest.raises(ValueError, match="jobs"):
            PipelineConfig(jobs=0)

    def test_fusion_recipe_validation(self):
        with pytest.raises(ValueError, match="partial_per_area"):
            FusionRecipe(partial_per_area=-1)


class TestGenerateMultiview:
    def test_entries_match_partials(self, room, generated):
        partials, manifest = generated
        assert len(partials) == len(manifest.entries)
        assert len(partials) > 0
        assert manifest.room_id == room.room_id
        assert manifest.original_count == len(room)
        for cloud, entry in zip(partials, manifest.entries):
            assert len(cloud) == entry.point_count
            assert entry.point_count >= 50
            assert cloud.room_id == room.room_id

    def test_partials_are_exact_subsets(self, room, generated):
        partials, _ = generated
        pool = {row.tobytes() for row in room.positions}
        sample = partials[0]
        assert all(row.tobytes() in pool for row in sample.positions)
        assert sample.labels is not None

    def test_perspective_ids_strictly_increase(self, generated):
        _, manifest = generated
        ids = [e.perspective_id for e in manifest.entries]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_coverage_is_a_fraction(self, generated):
        _, manifest = generated
        assert 0.0 < manifest.coverage <= 1.0

    def test_worker_count_does_not_change_bytes(self, room, tmp_path):
        dirs = []
        for jobs in (1, 4):
            partials, manifest = generate_multiview(room, small_config(jobs=jobs))
            out = tmp_path / f"jobs{jobs}"
            write_outputs(partials, manifest, out)
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_seed_changes_nothing_when_scene_is_generic(self, room):
        # The jitter retry is the only seeded step and generic scenes never
        # take it, so different seeds give identical partial sets but
        # different manifest hashes (the seed is part of the recipe echo).
        _, m0 = generate_multiview(room, small_config(seed=0))
        _, m1 = generate_multiview(room, small_config(seed=1))
        assert [e.point_count for e in m0.entries] == [
            e.point_count for e in m1.entries
        ]
        assert m0.generation_config_hash != m1.generation_config_hash

    def test_hpr_runs_only_on_frusta_that_can_be_kept(self, room, monkeypatch):
        # Visible points are a subset of the culled ones, so a frustum that
        # culls fewer than min_points points skips hidden point removal.
        config = small_config()
        hpr_inputs = []
        real = pipeline.visible_points

        def counting(points, *args, **kwargs):
            hpr_inputs.append(len(points))
            return real(points, *args, **kwargs)

        monkeypatch.setattr(pipeline, "visible_points", counting)
        generate_multiview(room, config)
        viewpoints = grid_viewpoints(room.bounds, config.grid)
        culled = [
            int(frustum_mask(room.positions, p).sum())
            for p in enumerate_perspectives(viewpoints, config.grid, config.fov)
        ]
        assert len(hpr_inputs) == sum(c >= config.min_points for c in culled)
        assert min(hpr_inputs) >= config.min_points

    def test_min_points_floor_drops_empty_views(self, room):
        partials, manifest = generate_multiview(room, small_config(min_points=0))
        assert all(len(p) >= 1 for p in partials)
        assert all(e.point_count >= 1 for e in manifest.entries)


class TestWriteOutputs:
    def test_round_trip(self, generated, tmp_path):
        partials, manifest = generated
        path = write_outputs(partials, manifest, tmp_path / "out")
        assert path.name == f"{manifest.room_id}_manifest.json"
        loaded = read_manifest(path)
        assert loaded == manifest
        first = manifest.entries[0]
        cloud = parse_s3dis_room(path.parent / first.file_path, with_labels=True)
        assert len(cloud) == first.point_count
        np.testing.assert_allclose(
            cloud.positions, partials[0].positions, atol=5e-7
        )
        np.testing.assert_array_equal(cloud.colors, partials[0].colors)
        np.testing.assert_array_equal(cloud.labels, partials[0].labels)


class TestFuseTrainingSet:
    ORIGINALS = {
        "Area_1": ["a1/roomA.txt", "a1/roomB.txt"],
        "Area_2": ["a2/roomC.txt"],
    }
    PARTIALS = {
        "Area_1": [f"a1/p{i}.txt" for i in range(6)],
        "Area_2": [f"a2/p{i}.txt" for i in range(4)],
    }

    def test_deterministic_and_orderly(self):
        recipe = FusionRecipe(partial_per_area=2)
        a = fuse_training_set(self.ORIGINALS, self.PARTIALS, recipe, seed=3)
        b = fuse_training_set(self.ORIGINALS, self.PARTIALS, recipe, seed=3)
        assert a == b
        assert len(a) == 3 + 4
        assert a[:2] == ["a1/roomA.txt", "a1/roomB.txt"]
        picked_a1 = set(a[2:4])
        assert picked_a1 < set(self.PARTIALS["Area_1"])

    def test_independent_of_dict_ordering(self):
        recipe = FusionRecipe(partial_per_area=1)
        flipped_orig = dict(reversed(list(self.ORIGINALS.items())))
        flipped_part = {
            k: list(reversed(v)) for k, v in reversed(list(self.PARTIALS.items()))
        }
        assert fuse_training_set(
            self.ORIGINALS, self.PARTIALS, recipe, seed=9
        ) == fuse_training_set(flipped_orig, flipped_part, recipe, seed=9)

    def test_without_originals(self):
        recipe = FusionRecipe(partial_per_area=2, include_originals=False)
        out = fuse_training_set(self.ORIGINALS, self.PARTIALS, recipe, seed=0)
        assert len(out) == 4
        assert not any("room" in p for p in out)

    def test_requesting_too_many_is_an_error(self):
        recipe = FusionRecipe(partial_per_area=5)
        with pytest.raises(
            ValueError, match="area Area_2: requested 5 partial sets but only 4"
        ):
            fuse_training_set(self.ORIGINALS, self.PARTIALS, recipe)
