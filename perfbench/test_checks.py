"""Self-tests of the benchmark's checks.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py

A small room goes through the real CLI once; the checks must pass on that
output and fail on each deliberately corrupted copy of it.  The independent
frustum, grid and HPR references are also held to hand-worked cases.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from inputs import MICRO, RoomInput, _quantised, _write_text  # noqa: E402
from workloads import DEFAULT_GENERATE, Call  # noqa: E402

CONFIG = dict(DEFAULT_GENERATE, min_points=300, yaw_steps=[0.0, 90.0, 180.0, 270.0])


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """Inputs, one genuine output of every command, and the calls that made them."""
    from mvrep.cli import main
    from mvrep.synthetic import synthetic_room

    root = tmp_path_factory.mktemp("bench")
    room = synthetic_room(6000, size=(3.0, 2.5, 2.5), seed=3, room_id="tiny")
    q, colors = _quantised(room)
    table = np.column_stack([q, colors, room.labels.astype(np.int64)])
    _write_text(root / "tiny.txt", q, colors, table[:, 6])
    np.save(root / "tiny.npy", table)
    spec = RoomInput("tiny", "tiny", "tiny.txt", "tiny.npy", len(table), True)
    out = root / "out"
    out.mkdir()
    pos = table[:, :3] / MICRO
    centre = (pos.min(axis=0) + pos.max(axis=0)) / 2.0
    inp = str(root / "tiny.txt")
    calls = {
        "generate": Call("generate", ["generate", "--input", inp, "--out", str(out / "gen"),
                                      "--min-points", "300", "--yaw-steps", "0,90,180,270",
                                      "--with-labels"],
                         spec, out / "gen", {"config": CONFIG, "labels": True}),
        "critical": Call("critical", ["critical", "--input", inp, "--k", "8", "--trials", "3",
                                      "--seed", "0", "--out", str(out / "critical.json")],
                         spec, out / "critical.json", {"k": 8, "trials": 3, "seed": 0}),
        "hpr": Call("hpr", ["hpr", "--input", inp, "--viewpoint",
                            ",".join(repr(float(v)) for v in centre),
                            "--out", str(out / "hpr.txt")],
                    spec, out / "hpr.txt", {"viewpoint": centre, "radius_factor": 1000.0}),
        "fuse": Call("fuse", ["fuse", "--manifests", str(out / "gen"), "--partial-per-area", "2",
                              "--out", str(out / "train.txt")],
                     out=out / "train.txt", expect={"per_area": 2, "manifests": out / "gen"}),
    }
    stdout = {}
    for kind, call in calls.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(call.argv) == 0
        stdout[kind] = buf.getvalue()
    return {"table": table, "calls": calls, "stdout": stdout}


def _run(call, table, stdout=""):
    log = checks.CheckLog()
    if call.kind == "generate":
        checks.check_generate(call, table, log, random.Random(0), hpr_samples=3)
    elif call.kind == "critical":
        checks.check_critical(call, table, log)
    elif call.kind == "hpr":
        checks.check_hpr(call, table, stdout, log)
    elif call.kind == "fuse":
        checks.check_fuse(call, log)
    return log


def _corrupt_copy(produced, tmp_path, kind):
    """A copy of one call's output that the test may damage."""
    call = produced["calls"][kind]
    dst = tmp_path / Path(call.out).name
    if Path(call.out).is_dir():
        shutil.copytree(call.out, dst)
    else:
        shutil.copy(call.out, dst)
    return Call(call.kind, call.argv, call.room, dst, call.expect)


def _first_partial(gen_dir: Path):
    manifest = json.loads(next(gen_dir.glob("*_manifest.json")).read_text())
    return manifest, manifest["entries"][0]


def _failed(log, name):
    return any(f.startswith(name) for f in log.failures)


def test_genuine_outputs_pass(produced):
    for kind, call in produced["calls"].items():
        log = _run(call, produced["table"], produced["stdout"][kind])
        assert log.attempted > 0
        assert log.failures == [], (kind, log.failures)


def test_dropped_row_fails(produced, tmp_path):
    call = _corrupt_copy(produced, tmp_path, "generate")
    _, entry = _first_partial(call.out)
    path = call.out / entry["file_path"]
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert _failed(_run(call, produced["table"]), "line count equals point_count")


def test_row_not_in_input_fails(produced, tmp_path):
    call = _corrupt_copy(produced, tmp_path, "generate")
    _, entry = _first_partial(call.out)
    path = call.out / entry["file_path"]
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[0].split()
    fields[0] = f"{float(fields[0]) + 0.000001:.6f}"
    lines[0] = " ".join(fields) + "\n"
    path.write_text("".join(lines))
    assert _failed(_run(call, produced["table"]), "each partial row is an input row")


def test_point_outside_frustum_fails(produced, tmp_path):
    call = _corrupt_copy(produced, tmp_path, "generate")
    _, entry = _first_partial(call.out)
    table = produced["table"]
    pos = table[:, :3] / MICRO
    inside = checks.frustum(pos, entry["viewpoint"], entry["yaw_deg"], entry["pitch_deg"], CONFIG)
    outside_row = table[np.flatnonzero(~inside)[0]]
    path = call.out / entry["file_path"]
    lines = path.read_text().splitlines(keepends=True)
    x, y, z = outside_row[:3] / MICRO
    lines[0] = f"{x:.6f} {y:.6f} {z:.6f} " + " ".join(str(v) for v in outside_row[3:]) + "\n"
    path.write_text("".join(lines))
    log = _run(call, table)
    assert _failed(log, "each source point in its frustum")
    assert not _failed(log, "each partial row is an input row")


def test_point_count_off_by_one_fails(produced, tmp_path):
    call = _corrupt_copy(produced, tmp_path, "generate")
    man_path = next(call.out.glob("*_manifest.json"))
    manifest = json.loads(man_path.read_text())
    manifest["entries"][0]["point_count"] += 1
    man_path.write_text(json.dumps(manifest))
    assert _failed(_run(call, produced["table"]), "line count equals point_count")


def test_wrong_u_fails(produced, tmp_path):
    call = _corrupt_copy(produced, tmp_path, "critical")
    doc = json.loads(call.out.read_text())
    doc["critical"]["u"][0] -= 1e-6
    call.out.write_text(json.dumps(doc))
    assert _failed(_run(call, produced["table"]), "u equals the maximum")


def test_fuse_list_short_fails(produced, tmp_path):
    call = _corrupt_copy(produced, tmp_path, "fuse")
    lines = call.out.read_text().splitlines()
    call.out.write_text("\n".join(lines[:-1]) + "\n")
    call.expect["manifests"] = produced["calls"]["fuse"].expect["manifests"]
    assert _failed(_run(call, produced["table"]), "fuse list length")


# --- hand-worked references ------------------------------------------------

def test_camera_frame_by_hand():
    np.testing.assert_allclose(checks.camera_frame(0.0, 0.0), np.eye(3), atol=1e-15)
    np.testing.assert_allclose(checks.camera_frame(90.0, 0.0)[:, 0], [0.0, 1.0, 0.0], atol=1e-15)
    frame = checks.camera_frame(0.0, 30.0)
    np.testing.assert_allclose(frame[:, 0], [math.sqrt(3) / 2, 0.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(frame[:, 2], [-0.5, 0.0, math.sqrt(3) / 2], atol=1e-15)


def test_frustum_by_hand():
    fov = {"hfov_deg": 70.0, "vfov_deg": 60.0, "min_depth": 0.5, "max_depth": 4.0}
    t35, t30 = math.tan(math.radians(35.0)), math.tan(math.radians(30.0))
    pts = np.array([
        [1.0, 0.0, 0.0],           # straight ahead
        [0.4, 0.0, 0.0],           # nearer than min_depth
        [4.0, 0.0, 0.0],           # on the far plane, inclusive
        [4.001, 0.0, 0.0],         # beyond it
        [1.0, t35 - 1e-6, 0.0],    # just inside the horizontal half-angle
        [1.0, -t35 - 1e-6, 0.0],   # just outside it, to the right
        [1.0, 0.0, t30 - 1e-6],    # just inside the vertical half-angle
        [1.0, 0.0, t30 + 1e-6],    # just outside it
        [-1.0, 0.0, 0.0],          # behind the camera
    ])
    expected = [True, False, True, False, True, False, True, False, False]
    assert checks.frustum(pts, (0.0, 0.0, 0.0), 0.0, 0.0, fov).tolist() == expected
    # Turned to +y, the same offsets rotate with the camera.
    turned = pts[:, [1, 0, 2]] * [-1.0, 1.0, 1.0]
    assert checks.frustum(turned, (0.0, 0.0, 0.0), 90.0, 0.0, fov).tolist() == expected


def test_grid_lines_by_hand():
    assert checks.grid_lines(0.0, 8.0, 4.0) == [0.0, 4.0, 8.0]
    assert checks.grid_lines(0.0, 8.01, 4.0) == [0.0, 4.0, 8.0, 8.01]
    assert checks.grid_lines(0.0, 3.5, 4.0) == [0.0, 3.5]


def test_reference_hpr_by_hand():
    # A 5x5 wall at x = 1; behind it, on the rays of its inner 3x3 points,
    # points at twice the distance are hidden.  A point off to the side is not.
    g5 = np.linspace(-1.0, 1.0, 5)
    near = np.array([[1.0, y, z] for y in g5 for z in g5])
    hidden = np.array([2.0 * p for p in near if abs(p[1]) < 1.0 and abs(p[2]) < 1.0])
    aside = np.array([[2.0, 3.0, 0.0]])
    visible = checks.reference_hpr(np.vstack([near, hidden, aside]), (0.0, 0.0, 0.0), 1000.0)
    assert visible.tolist() == list(range(len(near))) + [len(near) + len(hidden)]
    # Three points cannot form a hull: all of them are returned.
    assert checks.reference_hpr(near[:3], (0.0, 0.0, 0.0), 1000.0).tolist() == [0, 1, 2]


def test_rbf_feature_is_one_at_its_centre():
    lo, hi = np.zeros(3), np.ones(3)
    centres = np.random.default_rng(4).uniform(lo, hi, size=(2, 3))
    feats = checks.rbf_features(centres, 2, 4, lo, hi)
    np.testing.assert_allclose(np.diag(feats), 1.0)
    assert (feats <= 1.0).all()
