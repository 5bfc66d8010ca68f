"""I/O tests: cloud container, text formats, PLY, and manifests."""

import json
import struct

import numpy as np
import pytest

from helpers import FullDiskLines, write_room
from mvrep.io import (
    S3DIS_CATEGORIES,
    WRITE_BLOCK_ROWS,
    CloudFormatError,
    ManifestEntry,
    MultiviewManifest,
    PointCloud,
    area_of,
    format_lines,
    parse_ply,
    parse_s3dis_room,
    partial_filename,
    read_manifest,
    write_manifest,
    write_partial_set,
)


def small_cloud(n=5, room_id="Area_2_office_3", with_labels=True):
    rng = np.random.default_rng(0)
    return PointCloud(
        positions=rng.uniform(0, 4, size=(n, 3)),
        colors=rng.integers(0, 256, size=(n, 3)).astype(np.uint8),
        labels=rng.integers(0, 13, size=n).astype(np.int32) if with_labels else None,
        room_id=room_id,
    )


class TestPointCloud:
    def test_basic_construction(self):
        c = small_cloud()
        assert len(c) == 5
        assert c.colors.dtype == np.uint8
        assert c.labels.dtype == np.int32
        assert c.bounds.lo.shape == (3,)

    def test_float_colors_in_range_coerced(self):
        c = PointCloud(
            positions=np.zeros((2, 3)) + [[0, 0, 0], [1, 1, 1]],
            colors=np.array([[0.0, 128.0, 255.0], [1.0, 2.0, 3.0]]),
            labels=None,
        )
        assert c.colors.dtype == np.uint8
        assert c.colors[0, 2] == 255

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"positions": np.zeros((0, 3)), "colors": np.zeros((0, 3)), "labels": None},
            {"positions": np.zeros((2, 2)), "colors": np.zeros((2, 2)), "labels": None},
            {
                "positions": np.array([[np.nan, 0, 0]]),
                "colors": np.zeros((1, 3)),
                "labels": None,
            },
            {
                "positions": np.zeros((1, 3)),
                "colors": np.array([[0, 0, 256]]),
                "labels": None,
            },
            {
                "positions": np.zeros((1, 3)),
                "colors": np.array([[0.5, 0, 0]]),
                "labels": None,
            },
            {"positions": np.zeros((2, 3)), "colors": np.zeros((2, 3)), "labels": [1]},
            # Labels that the int32 cast would change.
            {
                "positions": np.zeros((2, 3)),
                "colors": np.zeros((2, 3)),
                "labels": np.array([3_000_000_000, 2.7]),
            },
            {
                "positions": np.zeros((2, 3)),
                "colors": np.zeros((2, 3)),
                "labels": np.array([3_000_000_000, 2], dtype=np.int64),
            },
            {
                "positions": np.zeros((2, 3)),
                "colors": np.zeros((2, 3)),
                "labels": np.array([1.0, np.nan]),
            },
            {"positions": np.zeros((1, 3)), "colors": np.array([[0, 0, np.nan]]), "labels": None},
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PointCloud(**kwargs)

    def test_subset_preserves_columns(self):
        c = small_cloud()
        s = c.subset([3, 1])
        np.testing.assert_array_equal(s.positions, c.positions[[3, 1]])
        np.testing.assert_array_equal(s.colors, c.colors[[3, 1]])
        np.testing.assert_array_equal(s.labels, c.labels[[3, 1]])
        assert s.room_id == c.room_id


class TestAreaOf:
    def test_standard_ids(self):
        assert area_of("Area_3_office_12") == "Area_3"
        assert area_of("Area_11_hallway_2") == "Area_11"

    def test_unprefixed_id(self):
        assert area_of("synthroom") == "ungrouped"


class TestTextRoundTrip:
    def test_write_then_parse_with_labels(self, tmp_path):
        c = small_cloud()
        f = tmp_path / "room.txt"
        write_room(c, f)
        back = parse_s3dis_room(f, with_labels=True)
        np.testing.assert_allclose(back.positions, c.positions, atol=5e-7)
        np.testing.assert_array_equal(back.colors, c.colors)
        np.testing.assert_array_equal(back.labels, c.labels)

    def test_write_without_labels(self, tmp_path):
        c = small_cloud(with_labels=False)
        f = tmp_path / "room.txt"
        write_room(c, f)
        text = f.read_text()
        assert text.endswith("\n")
        assert len(text.splitlines()) == len(c)
        assert len(text.splitlines()[0].split()) == 6

    @pytest.mark.parametrize("with_labels", [False, True], ids=["6col", "7col"])
    @pytest.mark.parametrize(
        "xyz, rgb, label, six_col, seven_col",
        [
            pytest.param(
                (1.23456789, 0.0, 2.0), (7, 8, 9), 0,
                "1.234568 0.000000 2.000000 7 8 9\n",
                "1.234568 0.000000 2.000000 7 8 9 0\n",
                id="round",
            ),
            pytest.param(
                (-0.0, 2.5e-7, -2.5e-7), (0, 255, 0), -1,
                "-0.000000 0.000000 -0.000000 0 255 0\n",
                "-0.000000 0.000000 -0.000000 0 255 0 -1\n",
                id="signed-zero",
            ),
            pytest.param(
                (1.0000005, 123456.7890125, -123456.7890125), (255, 0, 255), 12,
                "1.000001 123456.789012 -123456.789012 255 0 255\n",
                "1.000001 123456.789012 -123456.789012 255 0 255 12\n",
                id="decimal-tie",
            ),
            pytest.param(
                (-9.9999996, -99.9999999, -0.0), (255, 255, 255), -10,
                "-10.000000 -100.000000 -0.000000 255 255 255\n",
                "-10.000000 -100.000000 -0.000000 255 255 255 -10\n",
                id="widest-carry",
            ),
        ],
    )
    def test_six_decimal_coordinates(
        self, tmp_path, xyz, rgb, label, six_col, seven_col, with_labels
    ):
        c = PointCloud(
            positions=np.array([xyz]),
            colors=np.array([rgb], dtype=np.uint8),
            labels=np.array([label]) if with_labels else None,
        )
        f = tmp_path / "p.txt"
        # The formatted lines are as wide as the widest line can be.
        write_partial_set(format_lines(c, [0]), f)
        assert f.read_text() == (seven_col if with_labels else six_col)

    def test_formatted_lines_hold_the_widest_label(self, tmp_path):
        # The longest label is the smallest one here, in the widest row.
        c = PointCloud(
            positions=np.array([[-9.9999996, -99.9999999, -0.0], [1.0, 2.0, 3.0]]),
            colors=np.array([[255, 255, 255], [0, 0, 0]], dtype=np.uint8),
            labels=np.array([-10, 12]),
        )
        f = tmp_path / "p.txt"
        write_room(c, f)
        assert f.read_text() == (
            "-10.000000 -100.000000 -0.000000 255 255 255 -10\n"
            "1.000000 2.000000 3.000000 0 0 0 12\n"
        )

    @pytest.mark.parametrize("with_labels", [False, True], ids=["6col", "7col"])
    def test_blocks_match_rows_written_one_at_a_time(self, tmp_path, with_labels):
        c = small_cloud(n=2 * WRITE_BLOCK_ROWS + 3, with_labels=with_labels)
        f = tmp_path / "p.txt"
        write_room(c, f)
        expected = []
        for i in range(len(c)):
            x, y, z = (float(v) for v in c.positions[i])
            r, g, b = (int(v) for v in c.colors[i])
            label = f" {int(c.labels[i])}" if with_labels else ""
            expected.append(f"{x:.6f} {y:.6f} {z:.6f} {r} {g} {b}{label}\n")
        assert f.read_bytes() == "".join(expected).encode()

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        f = tmp_path / "p.txt"
        write_room(small_cloud(), f)
        before = f.read_bytes()
        # Whole blocks go out before the disk fills on the last one.
        c = small_cloud(n=2 * WRITE_BLOCK_ROWS + 3)
        with pytest.raises(OSError):
            write_partial_set(FullDiskLines(format_lines(c, np.arange(len(c)))), f)
        assert f.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["p.txt"]

    def test_text_positions_are_contiguous(self, tmp_path):
        f = tmp_path / "room.txt"
        write_room(small_cloud(), f)
        assert parse_s3dis_room(f).positions.flags.c_contiguous

    def test_labels_requested_but_missing(self, tmp_path):
        c = small_cloud(with_labels=False)
        f = tmp_path / "r.txt"
        write_room(c, f)
        with pytest.raises(CloudFormatError, match="label"):
            parse_s3dis_room(f, with_labels=True)

    def test_ragged_line_reports_line_number(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1 2 3 4 5 6\n1 2 3 4 5\n")
        with pytest.raises(CloudFormatError, match="line 2"):
            parse_s3dis_room(f)

    def test_non_numeric_token_reports_line_number(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1 2 3 4 5 6\n1 2 oops 4 5 6\n")
        with pytest.raises(CloudFormatError, match="line 2"):
            parse_s3dis_room(f)

    # Python's float accepts these tokens; np.loadtxt does not.
    @pytest.mark.parametrize("token", ["1_0", "１", "٣"], ids=["underscore", "fullwidth", "arabic-indic"])
    def test_token_only_float_accepts_reports_line_number(self, tmp_path, token):
        f = tmp_path / "bad.txt"
        f.write_text(f"1 2 3 4 5 6\n{token} 2 3 4 5 6\n", encoding="utf-8")
        with pytest.raises(CloudFormatError, match=f"line 2: unparsable field '{token}'"):
            parse_s3dis_room(f)

    def test_rescan_reads_lines_in_blocks(self, tmp_path, monkeypatch):
        f = tmp_path / "bad.txt"
        f.write_text("1 2 3 4 5 6\n" * 19_999 + "1_0 2 3 4 5 6\n")
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        with pytest.raises(CloudFormatError, match="line 20000: unparsable field '1_0'"):
            parse_s3dis_room(f)
        assert len(calls) < 20_000 // 8

    # The re-scan reports the first bad line, whichever check it fails.
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({5000: "1 2 oops 4 5 6", 15000: "1 2 3 4 5"}, "line 5000: unparsable field 'oops'"),
            ({5000: "1 2 3 4 5", 15000: "1 2 oops 4 5 6"}, "line 5000: expected 6 fields, got 5"),
            ({4999: "1 2 oops 4 5 6", 5000: "1 2 3 4 5"}, "line 4999: unparsable field 'oops'"),
        ],
        ids=["field-first", "width-first", "field-then-width"],
    )
    def test_rescan_reports_first_bad_line(self, tmp_path, bad, message):
        lines = ["1 2 3 4 5 6"] * 20_000
        for lineno, line in bad.items():
            lines[lineno - 1] = line
        f = tmp_path / "bad.txt"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(CloudFormatError, match=message):
            parse_s3dis_room(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("")
        with pytest.raises(CloudFormatError, match="no data"):
            parse_s3dis_room(f)

    def test_wrong_column_count(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1 2 3\n4 5 6\n")
        with pytest.raises(CloudFormatError, match="6 fields"):
            parse_s3dis_room(f)

    @pytest.mark.parametrize(
        "bad_row, with_labels, message",
        [
            pytest.param("1 nan 3 4 5 6 0", False, "non-finite", id="nan-coordinate"),
            pytest.param("1 2 3 4 nan 6 0", False, "non-finite", id="nan-color"),
            pytest.param("1 2 3 0 0 300 0", False, "color", id="color-range"),
            pytest.param("1 2 3 0 1.5 0 0", False, "color", id="color-fraction"),
            pytest.param("1 2 3 -1 0 0 0", False, "color", id="color-negative"),
            pytest.param("1 2 3 4 5 6 2.5", True, "label", id="label-fraction"),
            pytest.param("1 2 3 4 5 6 3e9", True, "label", id="label-beyond-int32"),
        ],
    )
    def test_bad_row_reports_data_line(self, tmp_path, bad_row, with_labels, message):
        # The comment line is not a data line: the bad row is data line 3.
        f = tmp_path / "bad.txt"
        f.write_text(f"0 0 0 1 2 3 4\n# scan header\n1 1 1 1 2 3 4\n{bad_row}\n")
        with pytest.raises(CloudFormatError, match=f"data line 3: {message}"):
            parse_s3dis_room(f, with_labels=with_labels)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CloudFormatError, match="no such file"):
            parse_s3dis_room(tmp_path / "absent.txt")


class TestS3disLayout:
    def _make_room(self, tmp_path, area="Area_1", room="office_7"):
        ann = tmp_path / area / room / "Annotations"
        ann.mkdir(parents=True)
        (ann / "chair_1.txt").write_text("0 0 0 10 20 30\n1 0 0 10 20 30\n")
        (ann / "widget_1.txt").write_text("0 1 0 1 2 3\n")
        return tmp_path / area / room

    def test_annotation_categories_become_labels(self, tmp_path):
        room_dir = self._make_room(tmp_path)
        cloud = parse_s3dis_room(room_dir, with_labels=True)
        assert len(cloud) == 3
        chair = S3DIS_CATEGORIES.index("chair")
        clutter = S3DIS_CATEGORIES.index("clutter")
        np.testing.assert_array_equal(cloud.labels, [chair, chair, clutter])

    def test_room_id_carries_area_prefix(self, tmp_path):
        room_dir = self._make_room(tmp_path)
        cloud = parse_s3dis_room(room_dir)
        assert cloud.room_id == "Area_1_office_7"

    def test_merged_file_fallback(self, tmp_path):
        d = tmp_path / "office_9"
        d.mkdir()
        (d / "office_9.txt").write_text("0 0 0 1 2 3\n")
        cloud = parse_s3dis_room(d)
        assert cloud.room_id == "office_9"
        assert len(cloud) == 1

    def test_empty_room_dir(self, tmp_path):
        d = tmp_path / "office_2"
        (d / "Annotations").mkdir(parents=True)
        with pytest.raises(CloudFormatError, match="no annotation files"):
            parse_s3dis_room(d)


def ascii_ply(tmp_path, body, n, extra_props="", color_type="uchar"):
    f = tmp_path / "a.ply"
    f.write_text(
        "ply\nformat ascii 1.0\n"
        f"element vertex {n}\n"
        "property float x\nproperty float y\nproperty float z\n"
        f"property {color_type} red\nproperty {color_type} green\n"
        f"property {color_type} blue\n"
        f"{extra_props}end_header\n{body}"
    )
    return f


class TestPly:
    def test_ascii_round_trip(self, tmp_path):
        f = ascii_ply(tmp_path, "0 0 0 1 2 3\n1.5 2 3 254 255 0\n", 2)
        cloud = parse_ply(f)
        np.testing.assert_allclose(cloud.positions[1], [1.5, 2.0, 3.0])
        np.testing.assert_array_equal(cloud.colors[1], [254, 255, 0])

    def test_binary_little_endian_round_trip(self, tmp_path):
        f = tmp_path / "b.ply"
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
        )
        rows = b"".join(
            struct.pack("<fffBBB", *vals)
            for vals in [(0.5, 1.0, -2.0, 9, 8, 7), (3.0, 2.0, 1.0, 1, 2, 3)]
        )
        f.write_bytes(header.encode("ascii") + rows)
        cloud = parse_ply(f)
        np.testing.assert_allclose(cloud.positions[0], [0.5, 1.0, -2.0], atol=1e-7)
        np.testing.assert_array_equal(cloud.colors, [[9, 8, 7], [1, 2, 3]])

    @pytest.mark.parametrize("bad", ["300", "2.5", "-1"])
    def test_ascii_color_outside_uchar_reports_data_line(self, tmp_path, bad):
        f = ascii_ply(tmp_path, f"0 0 0 1 2 3\n1 1 1 4 {bad} 6\n", 2)
        with pytest.raises(CloudFormatError, match="data line 2: color"):
            parse_ply(f)

    def test_ascii_ragged_line_reports_file_line(self, tmp_path):
        # Ten header lines, so the second vertex is line 12 of the file.
        f = ascii_ply(tmp_path, "0 0 0 1 2 3\n1 1 1 4 5\n", 2)
        with pytest.raises(CloudFormatError, match="line 12: expected 6 fields"):
            parse_ply(f)

    def test_vertex_count_mismatch(self, tmp_path):
        f = ascii_ply(tmp_path, "0 0 0 1 2 3\n", 2)
        with pytest.raises(CloudFormatError):
            parse_ply(f)

    def test_list_property_unsupported(self, tmp_path):
        f = ascii_ply(
            tmp_path,
            "0 0 0 1 2 3\n",
            1,
            extra_props="property list uchar int vertex_indices\n",
        )
        with pytest.raises(CloudFormatError, match="list"):
            parse_ply(f)

    def test_duplicate_property_rejected(self, tmp_path):
        f = tmp_path / "dup.ply"
        f.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float x\nproperty float z\n"
            "end_header\n0 0 0\n"
        )
        with pytest.raises(CloudFormatError, match="duplicate"):
            parse_ply(f)

    def test_empty_vertex_element(self, tmp_path):
        f = ascii_ply(tmp_path, "", 0)
        with pytest.raises(CloudFormatError):
            parse_ply(f)

    def test_missing_coordinates(self, tmp_path):
        f = tmp_path / "noz.ply"
        f.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\n"
            "end_header\n0 0\n"
        )
        with pytest.raises(CloudFormatError):
            parse_ply(f)

    def test_not_a_ply(self, tmp_path):
        f = tmp_path / "x.ply"
        f.write_text("not a ply at all\n")
        with pytest.raises(CloudFormatError):
            parse_ply(f)


class TestPartialFilename:
    def test_format(self):
        name = partial_filename("Area_1_office_1", 12, 45.0, -30.0)
        assert name == "Area_1_office_1_v12_y45_p-30.txt"

    def test_zero_angles(self):
        assert partial_filename("r", 0, 0.0, 0.0) == "r_v0_y0_p0.txt"


def _manifest(n_entries=2, min_points=10):
    entries = tuple(
        ManifestEntry(
            perspective_id=i,
            viewpoint=(0.0, float(i), 1.5),
            yaw_deg=45.0 * i,
            pitch_deg=0.0,
            point_count=50 + i,
            file_path=f"room_v{i}_y{45 * i}_p0.txt",
        )
        for i in range(n_entries)
    )
    return MultiviewManifest(
        room_id="Area_1_office_1",
        original_count=1000,
        entries=entries,
        generation_config_hash="abcd1234",
        seed=7,
        config={"min_points": min_points},
        source_path="/data/room.txt",
        coverage=0.91,
    )


class TestManifest:
    def test_round_trip(self, tmp_path):
        m = _manifest()
        path = tmp_path / "m.json"
        write_manifest(m, path)
        back = read_manifest(path)
        assert back == m

    def test_canonical_json(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(_manifest(), path)
        doc = json.loads(path.read_text())
        assert list(doc) == sorted(doc)
        assert doc["totals"] == {"original_sets": 1, "partial_sets": 2}
        assert path.read_text().endswith("\n")

    def test_duplicate_perspective_ids_rejected(self, tmp_path):
        m = _manifest()
        dup = MultiviewManifest(
            room_id=m.room_id,
            original_count=m.original_count,
            entries=(m.entries[0], m.entries[0]),
            generation_config_hash=m.generation_config_hash,
            seed=m.seed,
            config=m.config,
        )
        with pytest.raises(ValueError, match="duplicate"):
            write_manifest(dup, tmp_path / "m.json")

    def test_entry_below_min_points_rejected(self, tmp_path):
        m = _manifest(min_points=100)
        with pytest.raises(ValueError, match="below"):
            write_manifest(m, tmp_path / "m.json")

    def test_non_finite_value_rejected(self, tmp_path):
        m = _manifest()
        m.config["max_depth"] = float("inf")
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="JSON"):
            write_manifest(m, path)
        assert not path.exists()

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(CloudFormatError, match="unreadable"):
            read_manifest(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"room_id": "x"}))
        with pytest.raises(CloudFormatError, match="malformed"):
            read_manifest(path)
