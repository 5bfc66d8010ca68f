"""CLI behaviour, exercised in process through ``main``; a write that hits
the file size limit runs ``main`` in a child process."""

import json
import os
import shutil
import signal
from pathlib import Path

import numpy as np
import pytest

from helpers import run_main_with_file_size_limit, write_room
from mvrep.cli import main
from mvrep.critical import FeatureBank
from mvrep.io import parse_s3dis_room, read_manifest, write_manifest
from mvrep.pipeline import PipelineConfig
from mvrep.synthetic import synthetic_room
from mvrep.viewpoints import GridConfig


@pytest.fixture(scope="module")
def room_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("rooms") / "Area_1_office_9.txt"
    room = synthetic_room(
        6_000, size=(4.0, 3.0, 2.5), seed=2, room_id="Area_1_office_9", with_labels=False
    )
    write_room(room, path)
    return path


def run_generate(room_file, out, *extra):
    return main(
        [
            "generate",
            "--input",
            str(room_file),
            "--out",
            str(out),
            "--spacing",
            "2.0",
            "--min-points",
            "50",
            *extra,
        ]
    )


class TestGenerate:
    def test_writes_manifest_and_partials(self, room_file, tmp_path, capsys):
        out = tmp_path / "mv"
        assert run_generate(room_file, out) == 0
        manifest_path = out / "Area_1_office_9_manifest.json"
        manifest = read_manifest(manifest_path)
        assert manifest.room_id == "Area_1_office_9"
        assert len(manifest.entries) > 0
        assert manifest.source_path == str(room_file.resolve())
        for entry in manifest.entries:
            cloud = parse_s3dis_room(out / entry.file_path)
            assert len(cloud) == entry.point_count
        assert "kept" in capsys.readouterr().out

    def test_unset_flags_take_dataclass_defaults(self, room_file, tmp_path):
        out = tmp_path / "mv"
        assert run_generate(room_file, out) == 0
        manifest = read_manifest(out / "Area_1_office_9_manifest.json")
        expected = PipelineConfig(grid=GridConfig(spacing=2.0), min_points=50)
        assert manifest.config == expected.echo()
        assert manifest.generation_config_hash == expected.config_hash()

    def test_config_file_layering(self, room_file, tmp_path):
        # defaults < config file < explicit flag
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("min-points = 10\nseed = 5  # comment\n\nspacing=2.0\n")
        out = tmp_path / "mv"
        code = main(
            [
                "generate",
                "--input",
                str(room_file),
                "--out",
                str(out),
                "--config",
                str(cfg),
                "--seed",
                "7",
            ]
        )
        assert code == 0
        manifest = read_manifest(out / "Area_1_office_9_manifest.json")
        assert manifest.seed == 7
        assert manifest.config["min_points"] == 10
        assert manifest.config["spacing"] == 2.0

    def test_config_via_environment(self, room_file, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("min_points=25\nspacing=2.0\n")
        monkeypatch.setenv("MVREP_CONFIG", str(cfg))
        out = tmp_path / "mv"
        assert main(["generate", "--input", str(room_file), "--out", str(out)]) == 0
        manifest = read_manifest(out / "Area_1_office_9_manifest.json")
        assert manifest.config["min_points"] == 25

    def test_unknown_config_key_is_config_error(self, room_file, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_knob=3\n")
        code = main(
            [
                "generate",
                "--input",
                str(room_file),
                "--out",
                str(tmp_path / "mv"),
                "--config",
                str(cfg),
            ]
        )
        assert code == 2
        assert "unknown key 'not_a_knob'" in capsys.readouterr().err

    def test_bad_flag_value_is_config_error(self, room_file, tmp_path, capsys):
        code = run_generate(room_file, tmp_path / "mv", "--hfov", "200")
        assert code == 2
        assert "hfov" in capsys.readouterr().err

    def test_missing_input_is_input_error(self, tmp_path, capsys):
        code = main(
            ["generate", "--input", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_with_labels_round_trip(self, tmp_path):
        room = synthetic_room(
            5_000, size=(3.0, 3.0, 2.5), seed=4, room_id="Area_2_office_1"
        )
        src = tmp_path / "Area_2_office_1.txt"
        write_room(room, src)
        out = tmp_path / "mv"
        assert run_generate(src, out, "--with-labels") == 0
        manifest = read_manifest(out / "Area_2_office_1_manifest.json")
        first = parse_s3dis_room(out / manifest.entries[0].file_path, with_labels=True)
        assert first.labels is not None
        assert set(np.unique(first.labels)) <= set(np.unique(room.labels))

    def test_with_labels_on_ply_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "Area_2_office_4.ply"
        src.write_text(
            "ply\nformat ascii 1.0\nelement vertex 4\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n0 0 0 1 2 3\n1 0 0 1 2 3\n0 1 0 1 2 3\n0 0 1 1 2 3\n"
        )
        out = tmp_path / "mv"
        assert run_generate(src, out, "--with-labels") == 1
        assert "labels requested" in capsys.readouterr().err
        assert not out.exists()


class TestHpr:
    def test_filters_and_writes(self, room_file, tmp_path, capsys):
        out = tmp_path / "vis.txt"
        code = main(
            ["hpr", "--input", str(room_file), "--viewpoint", "2,1.5,1.5", "--out", str(out)]
        )
        assert code == 0
        kept = parse_s3dis_room(out)
        total = parse_s3dis_room(room_file)
        assert 0 < len(kept) < len(total)
        assert f"{len(kept)} of {len(total)}" in capsys.readouterr().out

    def test_bad_viewpoint_is_config_error(self, room_file, tmp_path, capsys):
        for viewpoint in ["1,2", "1,x,3"]:
            argv = ["hpr", "--input", str(room_file), "--viewpoint", viewpoint,
                    "--out", str(tmp_path / "v.txt")]
            assert main(argv) == 2
            assert "--viewpoint" in capsys.readouterr().err

    def test_small_radius_factor_is_config_error(self, room_file, tmp_path):
        code = main(
            [
                "hpr",
                "--input",
                str(room_file),
                "--viewpoint",
                "2,1.5,1.5",
                "--radius-factor",
                "0.2",
                "--out",
                str(tmp_path / "v.txt"),
            ]
        )
        assert code == 2


# Flags whose value parses as a float but is not finite where a finite
# number is needed: (command, flag, value).
NON_FINITE_FLAGS = [
    ("hpr", "--viewpoint", "nan,1,1"),
    ("hpr", "--viewpoint", "inf,1,1"),
    ("hpr", "--radius-factor", "inf"),
    ("generate", "--radius-factor", "inf"),
    ("generate", "--camera-height", "nan"),
    ("generate", "--yaw-steps", "nan,0"),
    ("generate", "--pitch-steps", "0,inf"),
]


@pytest.mark.parametrize("command, flag, value", NON_FINITE_FLAGS)
def test_non_finite_flag_is_config_error_before_input_is_read(
    tmp_path, capsys, command, flag, value
):
    missing = tmp_path / "no_such_room.txt"
    argv = [command, "--input", str(missing), "--out", str(tmp_path / "out"), flag, value]
    if command == "hpr" and flag != "--viewpoint":
        argv += ["--viewpoint", "2,1.5,1.5"]
    assert main(argv) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--max-depth", "inf"], ["--spacing", "inf"]])
def test_infinite_far_plane_and_spacing_stay_valid(room_file, tmp_path, flag):
    # No far plane, and viewpoints on the corners of the bounds.
    out = tmp_path / "mv"
    assert run_generate(room_file, out, *flag) == 0
    path = out / "Area_1_office_9_manifest.json"

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    # Strict JSON: a reader outside Python rejects Infinity and NaN.
    json.loads(path.read_text(), parse_constant=reject)
    manifest = read_manifest(path)
    assert manifest.entries
    again = tmp_path / "again.json"
    write_manifest(manifest, again)
    assert again.read_bytes() == path.read_bytes()


# Config files that ``generate --config`` rejects, besides an unknown key:
# (content, message).
BAD_CONFIG_FILES = [
    pytest.param(b"min-points\n", "expected key=value", id="no-equals"),
    pytest.param(b"min-points = \xff\n", "can't decode byte 0xff", id="undecodable"),
]


@pytest.mark.parametrize("content, message", BAD_CONFIG_FILES)
def test_bad_config_file_is_config_error_naming_it(room_file, tmp_path, capsys, content, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(content)
    assert run_generate(room_file, tmp_path / "mv", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert f"config file {cfg}:" in err and message in err


@pytest.fixture(scope="module")
def manifest_dir(room_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("manifests")
    assert run_generate(room_file, out / "Area_1_office_9") == 0
    return out


class TestFuse:
    def test_composes_training_list(self, manifest_dir, tmp_path, capsys):
        out = tmp_path / "train.txt"
        code = main(
            ["fuse", "--manifests", str(manifest_dir), "--partial-per-area", "2", "--out", str(out)]
        )
        assert code == 0
        files = out.read_text().splitlines()
        assert len(files) == 3  # the original plus two partial sets
        assert sum("_manifest" in f for f in files) == 0
        assert "wrote 3 training files" in capsys.readouterr().out

    def test_no_originals(self, manifest_dir, tmp_path):
        out = tmp_path / "train.txt"
        code = main(
            [
                "fuse",
                "--manifests",
                str(manifest_dir),
                "--partial-per-area",
                "1",
                "--no-originals",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1

    def test_requesting_too_many_is_input_error(self, manifest_dir, tmp_path, capsys):
        code = main(
            [
                "fuse",
                "--manifests",
                str(manifest_dir),
                "--partial-per-area",
                "100000",
                "--out",
                str(tmp_path / "t.txt"),
            ]
        )
        assert code == 1
        assert "available" in capsys.readouterr().err

    def test_negative_request_is_config_error(self, manifest_dir, tmp_path):
        code = main(
            [
                "fuse",
                "--manifests",
                str(manifest_dir),
                "--partial-per-area",
                "-1",
                "--out",
                str(tmp_path / "t.txt"),
            ]
        )
        assert code == 2

    def test_negative_seed_is_config_error_before_manifests_are_read(self, tmp_path, capsys):
        code = main(
            [
                "fuse",
                "--manifests",
                str(tmp_path / "no_such_dir"),
                "--partial-per-area",
                "1",
                "--seed",
                "-1",
                "--out",
                str(tmp_path / "t.txt"),
            ]
        )
        assert code == 2
        assert "--seed must be >= 0" in capsys.readouterr().err

    def test_unset_seed_is_zero_and_originals_are_kept(self, room_file, manifest_dir, tmp_path):
        lists = {}
        for name, extra in [("unset", []), ("zero", ["--seed", "0"]), ("none", ["--no-originals"])]:
            out = tmp_path / f"{name}.txt"
            argv = ["fuse", "--manifests", str(manifest_dir), "--partial-per-area", "2"]
            assert main(argv + extra + ["--out", str(out)]) == 0
            lists[name] = out.read_text().splitlines()
        assert lists["unset"] == lists["zero"]
        assert str(room_file.resolve()) in lists["unset"]
        assert lists["none"] == [f for f in lists["unset"] if f != str(room_file.resolve())]

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs a file size limit")
    def test_failed_write_keeps_the_previous_list(self, manifest_dir, tmp_path):
        out = tmp_path / "train.txt"
        out.write_bytes(b"previous list\n")
        argv = ["fuse", "--manifests", str(manifest_dir), "--partial-per-area", "2",
                "--out", str(out)]
        child = run_main_with_file_size_limit(argv)
        assert child.returncode == 1, child.stderr
        assert "File too large" in child.stderr
        assert out.read_bytes() == b"previous list\n"
        assert not (tmp_path / ".train.txt.tmp").exists()

    def test_lists_rooms_under_paths_that_are_not_utf8(self, room_file, tmp_path):
        rooms = os.path.join(os.fsencode(tmp_path), b"r\xff")
        try:
            os.mkdir(rooms)
        except OSError as exc:
            pytest.skip(f"the filesystem refuses a name that is not UTF-8: {exc}")
        room = Path(os.fsdecode(rooms)) / room_file.name
        shutil.copyfile(room_file, room)
        assert run_generate(room, tmp_path / "mv") == 0
        out = tmp_path / "train.txt"
        argv = ["fuse", "--manifests", str(tmp_path / "mv"), "--partial-per-area", "1",
                "--out", str(out)]
        assert main(argv) == 0
        assert os.path.join(rooms, os.fsencode(room_file.name)) in out.read_bytes().splitlines()

    def test_empty_directory_is_input_error(self, tmp_path):
        code = main(
            [
                "fuse",
                "--manifests",
                str(tmp_path),
                "--partial-per-area",
                "0",
                "--out",
                str(tmp_path / "t.txt"),
            ]
        )
        assert code == 1


class TestCritical:
    def test_report_json(self, room_file, tmp_path, capsys):
        out = tmp_path / "crit.json"
        code = main(
            [
                "critical",
                "--input",
                str(room_file),
                "--k",
                "16",
                "--trials",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["room_id"] == "Area_1_office_9"
        assert doc["critical"]["k"] == 16
        assert doc["critical"]["critical_size"] <= 16
        assert doc["invariance"]["passed"] is True
        assert "invariance ok" in capsys.readouterr().out

    def test_feature_bank_evaluated_once(self, room_file, tmp_path, monkeypatch):
        calls = []
        real = FeatureBank.evaluate

        def counting(self, points):
            calls.append(len(points))
            return real(self, points)

        monkeypatch.setattr(FeatureBank, "evaluate", counting)
        out = tmp_path / "crit.json"
        argv = ["critical", "--input", str(room_file), "--k", "16", "--trials", "10"]
        assert main(argv + ["--out", str(out)]) == 0
        assert calls == [6_000]

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs a file size limit")
    def test_failed_write_keeps_the_previous_report(self, room_file, tmp_path):
        out = tmp_path / "crit.json"
        out.write_bytes(b"previous report\n")
        argv = ["critical", "--input", str(room_file), "--k", "16", "--trials", "10",
                "--out", str(out)]
        child = run_main_with_file_size_limit(argv)
        assert child.returncode == 1, child.stderr
        assert "File too large" in child.stderr
        assert out.read_bytes() == b"previous report\n"
        assert not (tmp_path / ".crit.json.tmp").exists()

    def test_bad_k_is_config_error(self, room_file, tmp_path):
        code = main(
            ["critical", "--input", str(room_file), "--k", "0", "--out", str(tmp_path / "c.json")]
        )
        assert code == 2

    def test_unset_flags_take_the_cli_defaults(self, room_file, tmp_path):
        out = tmp_path / "crit.json"
        assert main(["critical", "--input", str(room_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["critical"]["k"] == 64
        assert doc["invariance"]["trials"] == 50
        assert doc["seed"] == 0

    @pytest.mark.parametrize("flag", [["--k", "0"], ["--trials", "-1"], ["--seed", "-1"]])
    def test_flag_error_reported_before_input_is_read(self, tmp_path, capsys, flag):
        missing = tmp_path / "no_such_room.txt"
        code = main(["critical", "--input", str(missing), *flag, "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert "must be >=" in capsys.readouterr().err


# Manifests that ``stats`` and ``fuse`` cannot read: (content, message).
BAD_MANIFESTS = [
    pytest.param(b"{not json", "unreadable manifest", id="not-json"),
    pytest.param(b'{"room_id": "x"}', "malformed manifest", id="missing-keys"),
    pytest.param(b'{"room_id": "\xff"}', "unreadable manifest", id="undecodable"),
]


@pytest.mark.parametrize("command", ["stats", "fuse"])
@pytest.mark.parametrize("content, message", BAD_MANIFESTS)
def test_bad_manifest_is_input_error_naming_it(tmp_path, capsys, command, content, message):
    bad = tmp_path / "mv" / "Area_1_office_1_manifest.json"
    bad.parent.mkdir()
    bad.write_bytes(content)
    argv = [command, "--manifests", str(bad.parent)]
    if command == "fuse":
        argv += ["--partial-per-area", "0", "--out", str(tmp_path / "t.txt")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{bad}: {message}" in err


class TestStats:
    def test_table_layout(self, room_file, tmp_path, capsys):
        out = tmp_path / "mv"
        assert run_generate(room_file, out) == 0
        capsys.readouterr()  # drop the generate progress line
        assert main(["stats", "--manifests", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["Area", "Original", "MV"]
        assert lines[1].startswith("Area_1")
        assert lines[-1].startswith("Total")
        # column counts are integers and the total row reproduces them
        assert lines[1].split()[1:] == lines[-1].split()[1:]

    def test_missing_directory_is_input_error(self, tmp_path, capsys):
        assert main(["stats", "--manifests", str(tmp_path / "none")]) == 1
        assert "not a directory" in capsys.readouterr().err


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()
