"""Deterministic workload inputs and the reference tables the checks use.

Every input is built from ``mvrep.synthetic.synthetic_room`` and written by
this module, not by the program.  Coordinates are quantised to micrometres
before they are written, so the reference table of a room is an exact
integer table: ``x y z`` in micrometres, ``r g b`` and, for labelled
inputs, the category label.  A partial row written by the program with six
decimals maps back to a reference row without any tolerance.

Built inputs are cached under ``perfbench/.work/inputs/<key>/``; the key
hashes the input specs, this file and ``src/mvrep/synthetic.py``, so a
change to any of them builds afresh.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

MICRO = 1_000_000

# Fixed seeds: the workload inputs never depend on the benchmark's --seed,
# so output digests and per-layer counts repeat exactly between runs.
ROOM1M = {"points": 1_000_000, "size": (8.0, 6.0, 3.0), "seed": 5}
HALL = {"points": 200_000, "size": (16.0, 12.0, 3.5), "seed": 7}
OFFICES = (
    ("office_1", 18_000, (3.2, 3.0, 2.7), 21),
    ("office_2", 20_000, (3.5, 3.0, 2.8), 22),
    ("office_3", 22_000, (3.6, 3.4, 2.8), 23),
    ("office_4", 24_000, (3.9, 3.5, 3.0), 24),
)
CORPUS_CONFIG = "# generate flags for every corpus room\nmin-points = 5000\n"


@dataclass(frozen=True)
class RoomInput:
    """One room as the program reads it plus its exact reference table."""

    name: str
    room_id: str  # the id the program derives from the path
    path: str  # file or room directory, relative to the input directory
    reference: str  # .npy integer table, relative to the input directory
    points: int
    labelled: bool

    def table(self, root: Path) -> np.ndarray:
        return np.load(root / self.reference)


def _quantised(room) -> tuple[np.ndarray, np.ndarray]:
    q = np.rint(room.positions * MICRO).astype(np.int64)
    return q, room.colors.astype(np.int64)


def _text_lines(q: np.ndarray, colors: np.ndarray, labels=None) -> str:
    pos = q / MICRO
    cols = [pos[:, 0], pos[:, 1], pos[:, 2], colors[:, 0], colors[:, 1], colors[:, 2]]
    fmt = "%.6f %.6f %.6f %d %d %d"
    if labels is not None:
        cols.append(labels)
        fmt += " %d"
    rows = np.empty((q.shape[0], len(cols)), dtype=object)
    for j, col in enumerate(cols):
        rows[:, j] = col.tolist()
    line = fmt + "\n"
    return "".join(line % tuple(r) for r in rows)


def _write_text(path: Path, q, colors, labels=None) -> None:
    with open(path, "w") as fh:
        for s in range(0, q.shape[0], 200_000):
            part = slice(s, s + 200_000)
            fh.write(_text_lines(q[part], colors[part], None if labels is None else labels[part]))


def _write_ply(path: Path, q, colors) -> None:
    n = q.shape[0]
    rec = np.empty(n, dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                             ("red", "u1"), ("green", "u1"), ("blue", "u1")])
    pos = q / MICRO
    rec["x"], rec["y"], rec["z"] = pos[:, 0], pos[:, 1], pos[:, 2]
    rec["red"], rec["green"], rec["blue"] = colors[:, 0], colors[:, 1], colors[:, 2]
    header = (
        "ply\nformat binary_little_endian 1.0\ncomment perfbench hall\n"
        f"element vertex {n}\n"
        "property double x\nproperty double y\nproperty double z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(rec.tobytes())


def _check_unique_positions(table: np.ndarray, name: str) -> None:
    # Row lookup in the checks assumes no two input points share a position.
    if np.unique(table[:, :3], axis=0).shape[0] != table.shape[0]:
        raise RuntimeError(f"{name}: generated input has duplicate positions")


def _build_room1m(root: Path) -> list[RoomInput]:
    from mvrep.synthetic import synthetic_room

    spec = ROOM1M
    room = synthetic_room(spec["points"], size=spec["size"], seed=spec["seed"], room_id="room1m")
    q, colors = _quantised(room)
    labels = room.labels.astype(np.int64)
    table = np.column_stack([q, colors, labels])
    _check_unique_positions(table, "room1m")
    _write_text(root / "room1m.txt", q, colors, labels)
    np.save(root / "room1m.npy", table)
    return [RoomInput("room1m", "room1m", "room1m.txt", "room1m.npy", len(room), True)]


def _build_hall(root: Path) -> list[RoomInput]:
    from mvrep.synthetic import synthetic_room

    spec = HALL
    room = synthetic_room(spec["points"], size=spec["size"], seed=spec["seed"], room_id="hall")
    q, colors = _quantised(room)
    table = np.column_stack([q, colors])
    _check_unique_positions(table, "hall")
    _write_ply(root / "hall.ply", q, colors)
    np.save(root / "hall.npy", table)
    return [RoomInput("hall", "hall", "hall.ply", "hall.npy", len(room), False)]


def _build_corpus(root: Path) -> list[RoomInput]:
    """Area_1/<office>/Annotations/<category>_<i>.txt, walls one file each."""
    from mvrep.io import S3DIS_CATEGORIES
    from mvrep.synthetic import synthetic_room

    wall = S3DIS_CATEGORIES.index("wall")
    rooms = []
    for name, n, size, seed in OFFICES:
        room = synthetic_room(n, size=size, seed=seed, room_id=name)
        q, colors = _quantised(room)
        labels = room.labels.astype(np.int64)
        # Instance number per point: walls split by the nearest wall plane.
        instance = np.ones(n, dtype=np.int64)
        is_wall = labels == wall
        p = q[is_wall] / MICRO
        plane_dist = np.column_stack([p[:, 1], size[0] - p[:, 0], size[1] - p[:, 1], p[:, 0]])
        instance[is_wall] = np.argmin(np.abs(plane_dist), axis=1) + 1
        ann = root / "Area_1" / name / "Annotations"
        ann.mkdir(parents=True)
        files = []
        for lab in np.unique(labels):
            for inst in np.unique(instance[labels == lab]):
                files.append((f"{S3DIS_CATEGORIES[lab]}_{inst}.txt", lab, inst))
        # The parser concatenates annotation files in sorted name order;
        # the reference table is built in that documented order.
        parts = []
        for fname, lab, inst in sorted(files):
            m = (labels == lab) & (instance == inst)
            _write_text(ann / fname, q[m], colors[m])
            parts.append(np.column_stack([q[m], colors[m], labels[m]]))
        table = np.vstack(parts)
        _check_unique_positions(table, name)
        np.save(root / f"{name}.npy", table)
        rooms.append(RoomInput(name, f"Area_1_{name}", f"Area_1/{name}", f"{name}.npy", n, True))
    (root / "generate.cfg").write_text(CORPUS_CONFIG)
    return rooms


MAKE_INPUTS = {"room1m": _build_room1m, "hall": _build_hall, "corpus": _build_corpus}
SPECS = {"room1m": ROOM1M, "hall": HALL, "corpus": {"offices": OFFICES, "config": CORPUS_CONFIG}}


def file_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every generated input file under ``root``, by relative path."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "inputs.json":
            out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _cache_key(workload: str, repo: Path) -> str:
    h = hashlib.sha256()
    h.update(json.dumps({workload: SPECS[workload]}, sort_keys=True).encode())
    h.update(Path(__file__).read_bytes())
    h.update((repo / "src" / "mvrep" / "synthetic.py").read_bytes())
    return h.hexdigest()[:16]


def ensure_inputs(workload: str, repo: Path, work: Path) -> tuple[Path, list[RoomInput], dict]:
    """Build (or reuse) a workload's inputs; returns (dir, rooms, digests)."""
    root = work / "inputs" / f"{workload}-{_cache_key(workload, repo)}"
    meta = root / "inputs.json"
    if not meta.is_file():
        tmp = root.with_name(root.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        rooms = MAKE_INPUTS[workload](tmp)
        doc = {"rooms": [asdict(r) for r in rooms], "digests": file_digests(tmp)}
        (tmp / "inputs.json").write_text(json.dumps(doc, indent=1, sort_keys=True))
        for stale in root.parent.glob(f"{workload}-*"):
            if stale != tmp:  # inputs of earlier specs and unfinished builds
                shutil.rmtree(stale, ignore_errors=True)
        os.replace(tmp, root)
    doc = json.loads(meta.read_text())
    digests = file_digests(root)
    if digests != doc["digests"]:
        raise RuntimeError(f"{root}: cached inputs no longer match their recorded digests")
    return root, [RoomInput(**r) for r in doc["rooms"]], digests
