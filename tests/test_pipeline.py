"""End-to-end generation pipeline and training-list fusion."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from helpers import EVERY_FIELD_CHANGED, FullDiskLines
from mvrep import pipeline
from mvrep.geometry import FovSpec, Perspective, camera_axes, frustum_mask
from mvrep.io import (
    WRITE_BLOCK_ROWS,
    ManifestEntry,
    MultiviewManifest,
    PointCloud,
    parse_s3dis_room,
    partial_filename,
    read_manifest,
)
from mvrep.pipeline import (
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


def _one_field_changed():
    """(name, config) for every field of the config, its fov and its grid:
    the default config with that one field taken from EVERY_FIELD_CHANGED."""
    base = PipelineConfig()
    for f in dataclasses.fields(base):
        nested = getattr(base, f.name)
        if not dataclasses.is_dataclass(nested):
            yield f.name, dataclasses.replace(base, **{f.name: getattr(EVERY_FIELD_CHANGED, f.name)})
            continue
        for g in dataclasses.fields(nested):
            value = getattr(getattr(EVERY_FIELD_CHANGED, f.name), g.name)
            yield g.name, dataclasses.replace(
                base, **{f.name: dataclasses.replace(nested, **{g.name: value})}
            )


@pytest.fixture(scope="module")
def room():
    return synthetic_room(12_000, size=(4.0, 3.0, 2.5), seed=1)


@pytest.fixture(scope="module")
def generated(room):
    return generate_multiview(room, small_config())


@pytest.fixture(scope="module")
def generated_at_radius_5(room):
    """The same room at radius factor 5: three fewer kept sets than ``generated``."""
    return generate_multiview(room, small_config(radius_factor=5.0))


class TestPipelineConfig:
    def test_echo_excludes_execution_knobs(self):
        echo = PipelineConfig(jobs=7).echo()
        assert "jobs" not in echo
        assert echo["min_points"] == 40_000
        assert echo["radius_factor"] == 1000.0

    def test_hash_ignores_jobs_but_not_parameters(self):
        base = PipelineConfig()
        for name, config in _one_field_changed():
            # A field added without a value in EVERY_FIELD_CHANGED fails here.
            assert config != base, name
            if name == "jobs":
                assert config.config_hash() == base.config_hash()
            else:
                assert config.config_hash() != base.config_hash(), name

    @pytest.mark.parametrize(
        "config, expected",
        [
            (
                EVERY_FIELD_CHANGED,
                {
                    "hfov_deg": 80.0,
                    "vfov_deg": 50.0,
                    "min_depth": 0.25,
                    "max_depth": 6.0,
                    "spacing": 3.0,
                    "camera_height": 1.2,
                    "yaw_steps": [0.0, 120.0, 240.0],
                    "pitch_steps": [-15.0, 15.0],
                    "include_boundary": True,
                    "min_points": 123,
                    "radius_factor": 250.0,
                    "seed": 9,
                },
            ),
            (
                PipelineConfig(fov=FovSpec(max_depth=math.inf), grid=GridConfig(spacing=math.inf)),
                {
                    "hfov_deg": 70.0,
                    "vfov_deg": 60.0,
                    "min_depth": 0.5,
                    "max_depth": None,
                    "spacing": None,
                    "camera_height": 1.5,
                    "yaw_steps": [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0],
                    "pitch_steps": [-30.0, 0.0, 30.0],
                    "include_boundary": True,
                    "min_points": 40_000,
                    "radius_factor": 1000.0,
                    "seed": 0,
                },
            ),
        ],
        ids=["every-field-changed", "no-far-plane-one-cell"],
    )
    def test_echo_matches_frozen_literal(self, config, expected):
        echo = config.echo()
        assert echo == expected
        assert {k: type(v) for k, v in echo.items()} == {k: type(v) for k, v in expected.items()}
        assert json.dumps(echo, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_validation(self):
        with pytest.raises(ValueError, match="min_points"):
            PipelineConfig(min_points=-1)
        with pytest.raises(ValueError, match="radius_factor"):
            PipelineConfig(radius_factor=0.5)
        with pytest.raises(ValueError, match="radius_factor"):
            PipelineConfig(radius_factor=float("inf"))
        with pytest.raises(ValueError, match="jobs"):
            PipelineConfig(jobs=0)


class TestGenerateMultiview:
    def test_entries_match_partials(self, room, generated):
        kept, manifest = generated
        assert len(kept) == len(manifest.entries)
        assert len(kept) > 0
        assert manifest.room_id == room.room_id
        assert manifest.original_count == len(room)
        for rows, entry in zip(kept, manifest.entries):
            assert len(rows) == entry.point_count
            assert entry.point_count >= 50

    def test_partials_are_exact_subsets(self, room, generated):
        # A kept set is a sorted array of distinct row indices into the room.
        kept, _ = generated
        for rows in kept:
            assert rows.dtype.kind == "i"
            assert (np.diff(rows) > 0).all()
            assert 0 <= rows[0] and rows[-1] < len(room)

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
            kept, manifest = generate_multiview(room, small_config(jobs=jobs))
            out = tmp_path / f"jobs{jobs}"
            write_outputs(room, kept, manifest, out)
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_seed_changes_nothing_when_scene_is_generic(self, room):
        # The seed reaches only the manifest: its own field and the config
        # echo, and through the echo the config hash.
        kept0, m0 = generate_multiview(room, small_config(seed=0))
        kept1, m1 = generate_multiview(room, small_config(seed=1))
        assert len(kept0) == len(kept1)
        for a, b in zip(kept0, kept1):
            np.testing.assert_array_equal(a, b)
        assert m0.generation_config_hash != m1.generation_config_hash
        assert m1 == dataclasses.replace(
            m0,
            seed=1,
            config={**m0.config, "seed": 1},
            generation_config_hash=m1.generation_config_hash,
        )

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
        kept, manifest = generate_multiview(room, small_config(min_points=0))
        assert all(len(rows) >= 1 for rows in kept)
        assert all(e.point_count >= 1 for e in manifest.entries)

    @pytest.mark.parametrize("max_depth", [2.4, 2.0])
    def test_uncovered_frustum_warning_counts_points(self, room, caplog, max_depth):
        config = small_config(fov=FovSpec(max_depth=max_depth))
        seen = np.zeros(len(room), dtype=bool)
        viewpoints = grid_viewpoints(room.bounds, config.grid)
        for perspective in enumerate_perspectives(viewpoints, config.grid, config.fov):
            seen |= frustum_mask(room.positions, perspective)
        missed = int(np.count_nonzero(~seen))
        assert missed > 0
        with caplog.at_level("WARNING", logger="mvrep.pipeline"):
            generate_multiview(room, config)
        assert (
            f"{room.room_id}: {missed} of {len(room)} points ({missed / len(room):.4f}) "
            "fall in no frustum"
        ) in caplog.text

    def test_no_uncovered_frustum_warning_when_every_point_is_seen(self, room, caplog):
        with caplog.at_level("WARNING", logger="mvrep.pipeline"):
            generate_multiview(room, small_config(fov=FovSpec(max_depth=3.0)))
        assert "no frustum" not in caplog.text


def _shell_culls(positions, perspectives):
    """Culled indices per perspective, one viewpoint's headings at a time."""
    culls = []
    for _, group in itertools.groupby(perspectives, key=lambda p: p.viewpoint):
        culls.extend(pipeline._cull_viewpoint(positions, list(group)))
    return culls


def _assert_shell_culls_exact(positions, perspectives):
    for perspective, culled in zip(perspectives, _shell_culls(positions, perspectives)):
        np.testing.assert_array_equal(
            culled, np.flatnonzero(frustum_mask(positions, perspective))
        )


# Steps of a few ulps across a bound, in units of that bound.
_ULP_STEPS = 1.0 + np.linspace(-8e-15, 8e-15, 33)


def _extreme_inside_points(perspective):
    """The nearest and the farthest point the frustum keeps, from two fans.

    One fan runs straight ahead across ``min_depth``, the other along the
    four far corner rays across ``max_depth``, so the farthest kept point is
    as far away as the fov's ``reach`` up to rounding.
    """
    fov = perspective.fov
    forward, right, up = camera_axes(perspective.yaw_deg, perspective.pitch_deg)
    vp = np.asarray(perspective.viewpoint)
    tan_h = math.tan(math.radians(fov.hfov_deg) / 2.0)
    tan_v = math.tan(math.radians(fov.vfov_deg) / 2.0)
    near = vp + (fov.min_depth * _ULP_STEPS)[:, None] * forward
    far = np.vstack([
        vp + (fov.max_depth * _ULP_STEPS)[:, None]
        * (forward + shrink * (h * tan_h * right + v * tan_v * up))
        for h, v in itertools.product((1.0, -1.0), repeat=2)
        for shrink in 1.0 - 2e-16 * np.arange(9)
    ])
    picked = []
    for fan, pick in ((near, np.argmin), (far, np.argmax)):
        kept = fan[frustum_mask(fan, perspective)]
        rel = kept - vp
        picked.append(kept[pick(np.einsum("ij,ij->i", rel, rel))])
    return picked


SHELL_FOVS = {
    "default": FovSpec(),
    "wide-170": FovSpec(hfov_deg=170.0, vfov_deg=170.0),
    "narrow-10-deep-20": FovSpec(hfov_deg=10.0, vfov_deg=10.0, max_depth=20.0),
}


class TestViewpointShell:
    """A viewpoint's headings are culled on the rows within its reach only;
    the culls must equal those of the whole cloud."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("fov", SHELL_FOVS.values(), ids=SHELL_FOVS)
    def test_random_room_with_points_on_the_shell_bounds(self, fov, seed):
        room = synthetic_room(4_000, size=(3 * fov.max_depth, 2 * fov.max_depth, 3.0), seed=seed)
        grid = GridConfig(spacing=fov.max_depth)
        perspectives = enumerate_perspectives(grid_viewpoints(room.bounds, grid), grid, fov)
        planted = np.array(
            [pt for p in perspectives for pt in _extreme_inside_points(p)]
        )
        positions = np.vstack([room.positions, planted])
        # Some planted points must fall outside the shell without its
        # margin, or this test could not see the margin go missing.
        rel = planted - np.repeat([p.viewpoint for p in perspectives], 2, axis=0)
        dist2 = np.einsum("ij,ij->i", rel, rel)
        assert ((dist2 < fov.min_depth**2) | (dist2 > fov.reach**2)).any()
        _assert_shell_culls_exact(positions, perspectives)

    @pytest.mark.parametrize("fov", SHELL_FOVS.values(), ids=SHELL_FOVS)
    def test_reach_is_the_far_corner_distance(self, fov):
        perspective = Perspective(0, (0.0, 0.0, 0.0), 0.0, 0.0, fov)
        corner = _extreme_inside_points(perspective)[1]
        assert np.linalg.norm(corner) == pytest.approx(fov.reach, rel=1e-12)

    def test_lone_shell_row_is_culled_within_the_whole_cloud(self):
        # numpy rounds a one-row product differently from a many-row one.
        # Pick a point whose depth lands on either side of min_depth between
        # the two, and put every other row far beyond the reach.
        fov = FovSpec()
        perspective = Perspective(0, (0.3, -0.2, 1.5), 45.0, 30.0, fov)
        forward, right, up = camera_axes(45.0, 30.0)
        vp = np.asarray(perspective.viewpoint)
        offsets = np.random.default_rng(9).uniform(-0.2, 0.2, size=(2000, 2))
        candidates = vp + fov.min_depth * forward + offsets[:, :1] * right + offsets[:, 1:] * up
        many = (candidates - vp) @ forward >= fov.min_depth
        one = np.array([((row[None] - vp) @ forward)[0] for row in candidates]) >= fov.min_depth
        assert (many != one).any()
        lone = candidates[int(np.argmax(many != one))]
        far_away = vp + 10.0 * fov.reach * forward + np.arange(50)[:, None] * right
        positions = np.vstack([far_away, lone, far_away])
        dist = np.linalg.norm(positions - vp, axis=1)
        assert np.count_nonzero((dist >= fov.min_depth) & (dist <= fov.reach)) == 1
        _assert_shell_culls_exact(positions, [perspective])


class TestWriteOutputs:
    def test_round_trip(self, room, generated, tmp_path):
        kept, manifest = generated
        path = write_outputs(room, kept, manifest, tmp_path / "out")
        assert path.name == f"{manifest.room_id}_manifest.json"
        loaded = read_manifest(path)
        assert loaded == manifest
        first = manifest.entries[0]
        cloud = parse_s3dis_room(path.parent / first.file_path, with_labels=True)
        assert len(cloud) == first.point_count
        np.testing.assert_allclose(
            cloud.positions, room.positions[kept[0]], atol=5e-7
        )
        np.testing.assert_array_equal(cloud.colors, room.colors[kept[0]])
        np.testing.assert_array_equal(cloud.labels, room.labels[kept[0]])

    def test_failed_partial_write_leaves_no_manifest(self, room, generated, tmp_path, monkeypatch):
        kept, manifest = generated
        manifest_name = f"{manifest.room_id}_manifest.json"
        # An out directory that holds the manifest and partial files of an
        # earlier run made with another radius factor.
        rerun = tmp_path / "rerun"
        write_outputs(room, *generate_multiview(room, small_config(radius_factor=5.0)), rerun)
        assert (rerun / manifest_name).exists()
        real = pipeline.write_partial_set
        calls = []

        def failing_second(lines, path):
            calls.append(path)
            return real(FullDiskLines(lines) if len(calls) == 2 else lines, path)

        monkeypatch.setattr(pipeline, "write_partial_set", failing_second)
        fresh = tmp_path / "fresh"
        for out in (fresh, rerun):
            calls.clear()
            with pytest.raises(OSError):
                write_outputs(room, kept, manifest, out)
            assert len(calls) == 2
            assert not (out / manifest_name).exists(), out.name
        assert sorted(p.name for p in fresh.iterdir()) == [manifest.entries[0].file_path]

    def test_rerun_removes_the_partial_files_it_does_not_name(
        self, room, generated, generated_at_radius_5, tmp_path
    ):
        kept, manifest = generated_at_radius_5
        assert (len(generated[1].entries), len(manifest.entries)) == (156, 153)
        write_outputs(room, *generated, tmp_path)
        write_outputs(room, kept, manifest, tmp_path)
        assert sorted(p.name for p in tmp_path.glob("*.txt")) == sorted(
            entry.file_path for entry in manifest.entries
        )

    def test_rerun_keeps_other_rooms_files(self, room, generated, tmp_path):
        kept, manifest = generated

        def renamed(room_id, count):
            entries = tuple(
                dataclasses.replace(
                    e, file_path=partial_filename(room_id, e.perspective_id, e.yaw_deg, e.pitch_deg)
                )
                for e in manifest.entries[:count]
            )
            return dataclasses.replace(manifest, room_id=room_id, entries=entries)

        # Each id extends the one before it.  A re-run of either of the first
        # two keeps the files of the other rooms.
        room_ids = ("office", "office_1", "office_10")
        (tmp_path / "notes.txt").write_text("notes\n")
        for room_id in room_ids:
            write_outputs(room, kept, renamed(room_id, len(kept)), tmp_path)
        for room_id in room_ids[:2]:
            write_outputs(room, kept[:1], renamed(room_id, 1), tmp_path)
        expected = {"notes.txt"}
        for room_id, count in zip(room_ids, (1, 1, len(kept))):
            expected.add(f"{room_id}_manifest.json")
            expected |= {e.file_path for e in renamed(room_id, count).entries}
        assert {p.name for p in tmp_path.iterdir()} == expected

    def test_earlier_manifest_cannot_remove_files_outside_out(
        self, room, generated, generated_at_radius_5, tmp_path
    ):
        out = tmp_path / "out"
        manifest_path = write_outputs(room, *generated, out)
        doc = json.loads(manifest_path.read_text())
        doc["entries"][0]["file_path"] = "../x"
        manifest_path.write_text(json.dumps(doc))
        (tmp_path / "x").write_text("outside\n")
        write_outputs(room, *generated_at_radius_5, out)
        assert (tmp_path / "x").read_text() == "outside\n"

    @pytest.mark.parametrize("with_labels", [False, True], ids=["6col", "7col"])
    def test_overlapping_sets_match_rows_formatted_one_at_a_time(self, tmp_path, with_labels):
        n = 2 * WRITE_BLOCK_ROWS + 50
        rng = np.random.default_rng(4)
        positions = rng.uniform(-5.0, 5.0, size=(n, 3))
        edge = [-0.0, -4e-7, 0.0078125, 1e9 + 0.1234565, -1e9 - 0.5, 999_999_999.9999996]
        positions[:len(edge), 0] = edge
        positions[n - len(edge):, 2] = edge
        labels = rng.integers(0, 13, size=n)
        labels[:2] = (0, 12)
        cloud = PointCloud(
            positions=positions,
            colors=rng.integers(0, 256, size=(n, 3)),
            labels=labels if with_labels else None,
            room_id="edge",
        )
        kept = [
            np.arange(WRITE_BLOCK_ROWS - 7, 2 * WRITE_BLOCK_ROWS + 9),
            np.arange(0, n, 3),
            np.flatnonzero(rng.random(n) < 0.5),
            np.r_[0:len(edge), n - len(edge):n],
        ]
        entries = tuple(
            ManifestEntry(i, (0.0, 0.0, 0.0), 0.0, 0.0, len(rows), f"edge_v{i}.txt")
            for i, rows in enumerate(kept)
        )
        manifest = MultiviewManifest("edge", n, entries, "0" * 16, 0, {"min_points": 0})
        write_outputs(cloud, kept, manifest, tmp_path)
        for rows, entry in zip(kept, entries):
            expected = []
            for i in rows:
                line = "%.6f %.6f %.6f %d %d %d" % (
                    *(float(v) for v in positions[i]), *(int(v) for v in cloud.colors[i])
                )
                expected.append(line + (" %d" % labels[i] if with_labels else "") + "\n")
            assert (tmp_path / entry.file_path).read_bytes() == "".join(expected).encode()
        edge_file = (tmp_path / entries[3].file_path).read_text().split()
        assert {"-0.000000", "0.007812", "1000000000.123456"} <= set(edge_file)

    @pytest.mark.parametrize(
        "mismatch",
        ["missing set", "extra set", "short set", "long set"],
    )
    def test_mismatched_kept_sets_write_nothing(self, room, generated, tmp_path, mismatch):
        kept, manifest = generated
        assert len(kept) >= 2
        kept = list(kept)
        if mismatch == "missing set":
            kept.pop()
        elif mismatch == "extra set":
            kept.append(kept[0])
        elif mismatch == "short set":
            kept[1] = kept[1][:-1]
        else:
            kept[1] = np.union1d(kept[1], np.setdiff1d(np.arange(len(room)), kept[1])[:1])
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ValueError, match="kept set"):
            write_outputs(room, kept, manifest, out)
        assert list(out.iterdir()) == []


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
        a = fuse_training_set(self.ORIGINALS, self.PARTIALS, 2, True, seed=3)
        b = fuse_training_set(self.ORIGINALS, self.PARTIALS, 2, True, seed=3)
        assert a == b
        assert len(a) == 3 + 4
        assert a[:2] == ["a1/roomA.txt", "a1/roomB.txt"]
        picked_a1 = set(a[2:4])
        assert picked_a1 < set(self.PARTIALS["Area_1"])

    def test_independent_of_dict_ordering(self):
        flipped_orig = dict(reversed(list(self.ORIGINALS.items())))
        flipped_part = {
            k: list(reversed(v)) for k, v in reversed(list(self.PARTIALS.items()))
        }
        assert fuse_training_set(
            self.ORIGINALS, self.PARTIALS, 1, True, seed=9
        ) == fuse_training_set(flipped_orig, flipped_part, 1, True, seed=9)

    def test_without_originals(self):
        out = fuse_training_set(self.ORIGINALS, self.PARTIALS, 2, False, seed=0)
        assert len(out) == 4
        assert not any("room" in p for p in out)

    def test_requesting_too_many_is_an_error(self):
        with pytest.raises(
            ValueError, match="area Area_2: requested 5 partial sets but only 4"
        ):
            fuse_training_set(self.ORIGINALS, self.PARTIALS, 5, True, seed=0)

    def test_negative_request_is_an_error(self):
        # Rejected before any area is looked at, so also when there is none.
        for partials in ({}, self.PARTIALS):
            with pytest.raises(ValueError, match="partial_per_area must be >= 0, got -1"):
                fuse_training_set({}, partials, -1, True, seed=0)
