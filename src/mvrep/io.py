"""Point cloud and manifest I/O.

Text point sets use the room-scan convention of one point per line,
``x y z r g b`` with an optional trailing integer label column.  Coordinates
are metres, colors are integers in [0, 255].  Blank lines and ``#`` comments
are skipped.  PLY input supports ascii and binary_little_endian vertex
layouts with float/double x y z and optional uchar red green blue.  Text
files, ``Annotations/`` directories and PLY vertices all become one
``x y z r g b [label]`` table with one row check.

Manifests are canonical JSON named ``<room_id>_manifest.json`` (``MANIFEST_SUFFIX``):
keys sorted, entries sorted by perspective id, so semantically equal
manifests serialize to identical bytes.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .geometry import Aabb, bounding_box

__all__ = [
    "MANIFEST_SUFFIX",
    "S3DIS_CATEGORIES",
    "WRITE_BLOCK_ROWS",
    "CloudFormatError",
    "PointCloud",
    "ManifestEntry",
    "MultiviewManifest",
    "parse_s3dis_room",
    "parse_ply",
    "format_lines",
    "replacing",
    "write_partial_set",
    "write_json",
    "write_manifest",
    "read_manifest",
    "partial_filename",
    "area_of",
]

MANIFEST_SUFFIX = "_manifest.json"

# Rows per block formatted and written by ``write_partial_set``.
WRITE_BLOCK_ROWS = 1 << 13

# Native room-scan annotation categories; unknown object names map to clutter.
S3DIS_CATEGORIES = (
    "ceiling", "floor", "wall", "beam", "column", "window", "door",
    "table", "chair", "sofa", "bookcase", "board", "clutter",
)


class CloudFormatError(ValueError):
    """Malformed point cloud or manifest input."""


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Immutable column-oriented point set.

    positions: (n, 3) float64, colors: (n, 3) uint8, labels: (n,) int32 or
    None.  ``bounds`` is computed on construction and always tight.
    """

    positions: np.ndarray
    colors: np.ndarray
    labels: np.ndarray | None
    room_id: str = "cloud"
    bounds: Aabb = field(init=False)

    def __post_init__(self) -> None:
        pos = np.ascontiguousarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] == 0:
            raise ValueError(f"positions must be a non-empty (n, 3) array, got {pos.shape}")
        if not np.isfinite(pos).all():
            raise ValueError("positions contain NaN or Inf")
        col = np.asarray(self.colors)
        if col.shape != pos.shape:
            raise ValueError(f"colors shape {col.shape} does not match positions {pos.shape}")
        if col.dtype != np.uint8:
            if np.any((col < 0) | (col > 255)) or np.any(col != np.floor(col)):
                raise ValueError("colors must be integers in [0, 255]")
            col = col.astype(np.uint8)
        lab = self.labels
        if lab is not None:
            lab = np.asarray(lab)
            if lab.shape != (pos.shape[0],):
                raise ValueError(f"labels shape {lab.shape} does not match point count")
            if lab.dtype != np.int32:
                with np.errstate(invalid="ignore"):
                    cast = lab.astype(np.int32)
                if np.any(cast != lab):
                    raise ValueError("labels must be integers in the int32 range")
                lab = cast
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "colors", col)
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "bounds", bounding_box(pos))

    def __len__(self) -> int:
        return self.positions.shape[0]

    def subset(self, indices) -> "PointCloud":
        idx = np.asarray(indices)
        return PointCloud(
            positions=self.positions[idx],
            colors=self.colors[idx],
            labels=None if self.labels is None else self.labels[idx],
            room_id=self.room_id,
        )


# Lines per ``np.loadtxt`` call in the re-scan of a malformed table.
_RESCAN_BLOCK_LINES = 2048


def _loadtxt_parses(fields: list[str]) -> bool:
    """Whether ``np.loadtxt`` reads every one of ``fields`` as a float."""
    try:
        np.loadtxt(fields, dtype=np.float64)  # one field per row
    except ValueError:
        return False
    return True


def _check_fields(path: Path, lines: list[tuple[int, list[str]]]) -> None:
    """Raise for the first of ``lines``, given as (line number, fields), with
    a field that ``np.loadtxt`` does not read as a float."""
    if lines and not _loadtxt_parses([tok for _, fields in lines for tok in fields]):
        lineno, fields = next(line for line in lines if not _loadtxt_parses(line[1]))
        tok = next(t for t in fields if not _loadtxt_parses([t]))
        raise CloudFormatError(f"{path}: line {lineno}: unparsable field {tok!r}") from None


def _load_numeric_lines(path: Path, skiprows: int = 0, max_rows: int | None = None) -> np.ndarray:
    """Whitespace-separated numeric table of the file at ``path``, from the
    ``skiprows``-th line on and at most ``max_rows`` data lines long; errors
    carry 1-based file line numbers."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on empty input
            data = np.loadtxt(
                path, dtype=np.float64, ndmin=2, skiprows=skiprows, max_rows=max_rows
            )
    except (ValueError, UnicodeDecodeError):
        # Re-scan to pin malformed content to a line number.  loadtxt itself
        # judges each field, so the re-scan rejects exactly what it rejects.
        # One call judges a block of lines, and the lines before a ragged one
        # are judged before it is reported, so the first bad line is named.
        width = None
        block: list[tuple[int, list[str]]] = []
        with open(path, "r", errors="replace") as fh:
            for lineno, line in itertools.islice(enumerate(fh, start=1), skiprows, None):
                fields = line.split("#", 1)[0].split()
                if not fields:
                    continue
                if width is None:
                    width = len(fields)
                elif len(fields) != width:
                    _check_fields(path, block)
                    raise CloudFormatError(
                        f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
                    ) from None
                block.append((lineno, fields))
                if len(block) == _RESCAN_BLOCK_LINES:
                    _check_fields(path, block)
                    block = []
        _check_fields(path, block)
        raise CloudFormatError(f"{path}: malformed numeric table") from None
    except OSError as exc:
        raise CloudFormatError(f"{path}: {exc}") from None
    if data.size == 0:
        raise CloudFormatError(f"{path}: no data lines")
    return data


def _cloud_from_table(
    data: np.ndarray, path: Path, with_labels: bool, room_id: str
) -> PointCloud:
    """The one row check of every room input: ``x y z r g b [label]`` rows,
    finite, colors integers in [0, 255] and labels integers."""
    ncols = data.shape[1]
    if ncols not in (6, 7):
        raise CloudFormatError(
            f"{path}: expected 6 fields per line (x y z r g b), or 7 with a "
            f"label column, got {ncols}"
        )
    if with_labels and ncols != 7:
        raise CloudFormatError(f"{path}: labels requested but no 7th column present")
    # A field that the cast leaves unchanged is an integer in range.
    with np.errstate(invalid="ignore"):
        colors = data[:, 3:6].astype(np.uint8)
        labels = data[:, 6].astype(np.int32) if with_labels else None
    checks = [
        (~np.isfinite(data), "non-finite coordinate"),
        (colors != data[:, 3:6], "color fields must be integers in [0, 255]"),
    ]
    if with_labels:
        checks.append((labels != data[:, 6], "label must be an integer"))
    for bad, message in checks:
        if bad.any():
            # Row-major indices: the first one lies on the first bad row.
            row = int(np.nonzero(bad)[0][0]) + 1
            raise CloudFormatError(f"{path}: data line {row}: {message}")
    return PointCloud(positions=data[:, :3], colors=colors, labels=labels, room_id=room_id)


def _room_id_for(path: Path) -> str:
    """Filesystem-safe room id; prepends the nearest Area_<n> ancestor if any."""
    base = path.stem if path.is_file() else path.name
    for parent in path.resolve().parents:
        if re.fullmatch(r"Area_\d+", parent.name):
            return f"{parent.name}_{base}"
    return base


def area_of(room_id: str) -> str:
    """Area grouping key encoded in a room id, e.g. Area_3_office_1 -> Area_3."""
    m = re.match(r"(Area_\d+)_", room_id)
    return m.group(1) if m else "ungrouped"


def parse_s3dis_room(path, with_labels: bool = False) -> PointCloud:
    """Load a room scan from text.

    ``path`` may be a single merged file (6 columns, or 7 when labels are
    wanted) or a room directory in the native layout, where per-object files
    under ``Annotations/`` carry the category in their filename.  Annotation
    files are concatenated in sorted filename order so loads are
    deterministic.
    """
    path = Path(path)
    if path.is_dir():
        ann = path / "Annotations"
        if ann.is_dir():
            files = sorted(ann.glob("*.txt"))
            if not files:
                raise CloudFormatError(f"{ann}: no annotation files")
            tables = []
            for f in files:
                data = _load_numeric_lines(f)
                if data.shape[1] != 6:
                    raise CloudFormatError(
                        f"{f}: annotation files must have 6 columns, got {data.shape[1]}"
                    )
                category = f.stem.split("_")[0].lower()
                cat_id = (
                    S3DIS_CATEGORIES.index(category)
                    if category in S3DIS_CATEGORIES
                    else S3DIS_CATEGORIES.index("clutter")
                )
                # The category becomes the 7th (label) column of the table.
                tables.append(np.column_stack([data, np.full(data.shape[0], cat_id)]))
            return _cloud_from_table(
                np.vstack(tables), path, with_labels=with_labels, room_id=_room_id_for(path)
            )
        merged_file = path / f"{path.name}.txt"
        if not merged_file.is_file():
            raise CloudFormatError(
                f"{path}: neither an Annotations/ directory nor {merged_file.name} found"
            )
        path = merged_file
    if not path.is_file():
        raise CloudFormatError(f"{path}: no such file")
    data = _load_numeric_lines(path)
    return _cloud_from_table(data, path, with_labels=with_labels, room_id=_room_id_for(path))


_PLY_SCALARS = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}


def parse_ply(path, with_labels: bool = False) -> PointCloud:
    """Load vertices from an ascii or binary_little_endian PLY file.

    Requires float/double x y z properties; uchar red/green/blue are used
    when all three are present, otherwise colors default to (0, 0, 0).
    Unsupported vertex layouts raise with the property list that was found.
    The vertex columns, picked by property name, get the row checks of a
    text room; a PLY vertex has no label column, so ``with_labels`` fails.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CloudFormatError(f"{path}: {exc}") from None
    end = raw.find(b"end_header\n")
    if not raw.startswith(b"ply") or end < 0:
        raise CloudFormatError(f"{path}: not a PLY file (missing header)")
    header = raw[:end].decode("ascii", errors="replace").splitlines()
    body = raw[end + len(b"end_header\n"):]

    fmt = None
    elements: list[tuple[str, int, list[tuple[str, str]]]] = []
    for line in header[1:]:
        fields = line.split()
        if not fields or fields[0] == "comment":
            continue
        if fields[0] == "format":
            if len(fields) < 2 or fields[1] not in ("ascii", "binary_little_endian"):
                raise CloudFormatError(f"{path}: unsupported format {line!r}")
            fmt = fields[1]
        elif fields[0] == "element":
            if len(fields) != 3 or not fields[2].isdigit():
                raise CloudFormatError(f"{path}: bad element line {line!r}")
            elements.append((fields[1], int(fields[2]), []))
        elif fields[0] == "property":
            if not elements:
                raise CloudFormatError(f"{path}: property before any element")
            if fields[1] == "list":
                elements[-1][2].append(("list", " ".join(fields[2:])))
            elif len(fields) == 3:
                elements[-1][2].append((fields[1], fields[2]))
            else:
                raise CloudFormatError(f"{path}: bad property line {line!r}")
    if fmt is None:
        raise CloudFormatError(f"{path}: header has no format line")

    element_names = [name for name, _, _ in elements]
    if "vertex" not in element_names:
        raise CloudFormatError(f"{path}: no vertex element")
    preceding = elements[:element_names.index("vertex")]
    _, vertex_count, vertex_props = elements[len(preceding)]

    def unsupported(reason: str) -> CloudFormatError:
        found = ", ".join(f"{t} {n}" for t, n in vertex_props)
        return CloudFormatError(f"{path}: {reason}; vertex properties found: {found}")

    if any(t == "list" for t, _ in vertex_props):
        raise unsupported("list property in vertex element")
    types = {n: t for t, n in vertex_props}
    if len(types) != len(vertex_props):
        raise unsupported("duplicate vertex property names")
    color_names = ("red", "green", "blue")
    n_colors = sum(c in types for c in color_names)
    if 0 < n_colors < 3:
        raise unsupported("incomplete red/green/blue color triple")
    names = ("x", "y", "z") + (color_names if n_colors else ())
    for name in names:
        kind, codes = ("uchar", ("u1",)) if name in color_names else ("float", ("f4", "f8"))
        if name not in types:
            raise unsupported(f"missing vertex property {name}")
        if _PLY_SCALARS.get(types[name]) not in codes:
            raise unsupported(f"vertex property {name} has non-{kind} type {types[name]}")
    if any(t not in _PLY_SCALARS for t, _ in vertex_props):
        raise unsupported("unknown property type")
    if vertex_count == 0:
        raise CloudFormatError(f"{path}: empty vertex element")

    if fmt == "binary_little_endian":
        for name, count, props in preceding:
            if any(t == "list" or t not in _PLY_SCALARS for t, _ in props):
                raise CloudFormatError(
                    f"{path}: cannot skip element {name!r} preceding the vertices"
                )
            body = body[count * sum(np.dtype("<" + _PLY_SCALARS[t]).itemsize for t, _ in props):]
        dtype = np.dtype([(name, "<" + _PLY_SCALARS[t]) for t, name in vertex_props])
        if len(body) < vertex_count * dtype.itemsize:
            raise CloudFormatError(
                f"{path}: vertex element declares {vertex_count} entries but data is short"
            )
        vertices = np.frombuffer(body, dtype=dtype, count=vertex_count)
    else:
        # One line per element entry: the vertex lines follow the header
        # and the entries of the elements declared before them.
        skip = raw.count(b"\n", 0, end) + 1 + sum(count for _, count, _ in preceding)
        table = _load_numeric_lines(path, skiprows=skip, max_rows=vertex_count)
        if table.shape != (vertex_count, len(types)):
            raise CloudFormatError(
                f"{path}: vertex element declares {vertex_count} lines of "
                f"{len(types)} fields, found {table.shape[0]} of {table.shape[1]}"
            )
        vertices = dict(zip(types, table.T))

    # Filled column by column, each in one contiguous pass; colors stay 0
    # when the vertices have none.
    columns = np.zeros((6, vertex_count))
    for i, name in enumerate(names):
        columns[i] = vertices[name]
    return _cloud_from_table(columns.T, path, with_labels, room_id=_room_id_for(path))


@contextmanager
def replacing(path):
    """A binary file opened beside ``path`` that replaces it once complete.

    A write that fails removes the temporary file and leaves ``path`` as it
    was, so no reader ever sees a partly written file under its name.
    Every file that mvrep writes goes through it.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def format_lines(cloud: PointCloud, rows) -> np.ndarray:
    """``x y z r g b [label]`` lines of ``cloud``'s ``rows``, coordinates
    with 6 decimals.

    This is the one statement of the partial-set row format.  The result
    is a fixed-width bytes array with one NUL-padded line per row, so a
    line costs the width of the longest line ``cloud`` can print rather
    than a Python string.  Indexing it selects lines; ``write_partial_set``
    writes them.
    """
    labelled = cloud.labels is not None
    row = "%.6f %.6f %.6f %d %d %d" + " %d" * labelled + "\n"
    # ``%.6f`` rounds correctly, so no coordinate prints longer than its
    # axis's largest magnitude with a minus sign, and no color than 255.
    # Allocating that width up front holds the lines once, not twice.
    magnitude = np.maximum(np.abs(cloud.bounds.lo), np.abs(cloud.bounds.hi))
    widest = [-m for m in magnitude.tolist()] + [255] * 3
    if labelled:
        widest.append(max(cloud.labels.min(), cloud.labels.max(), key=lambda v: len(str(v))))
    lines = np.empty(len(rows), dtype=f"S{len(row % tuple(widest))}")
    # Rows go in ``WRITE_BLOCK_ROWS`` blocks so only one block is held as
    # Python lists.
    for start in range(0, len(rows), WRITE_BLOCK_ROWS):
        block = rows[start:start + WRITE_BLOCK_ROWS]
        columns = cloud.positions[block].T.tolist() + cloud.colors[block].T.tolist()
        if labelled:
            columns.append(cloud.labels[block].tolist())
        lines[start:start + len(block)] = [row % values for values in zip(*columns)]
    return lines


def write_partial_set(lines, path) -> None:
    """Write a partial set from its ``lines``, as ``format_lines`` returns
    them.  The file appears under its name only once it is complete."""
    with replacing(path) as fh:
        for start in range(0, len(lines), WRITE_BLOCK_ROWS):
            raw = lines[start:start + WRITE_BLOCK_ROWS].view(np.uint8)
            fh.write(raw[raw != 0].tobytes())


def partial_filename(room_id: str, perspective_id: int, yaw_deg: float, pitch_deg: float) -> str:
    return f"{room_id}_v{perspective_id}_y{yaw_deg:g}_p{pitch_deg:g}.txt"


@dataclass(frozen=True)
class ManifestEntry:
    """One kept perspective of a generated multiview set."""

    perspective_id: int
    viewpoint: tuple[float, float, float]
    yaw_deg: float
    pitch_deg: float
    point_count: int
    file_path: str


@dataclass(frozen=True)
class MultiviewManifest:
    """Record of one room's multiview generation run.

    Besides the per-perspective entries this echoes the effective generation
    config (jobs and output paths excluded; they must not change results),
    the source path of the original scan, and the achieved point coverage.
    """

    room_id: str
    original_count: int
    entries: tuple[ManifestEntry, ...]
    generation_config_hash: str
    seed: int
    config: dict
    source_path: str = ""
    coverage: float = 0.0


def write_json(doc, path) -> None:
    """Write ``doc`` as canonical JSON: sorted keys, two-space indent, no
    NaN or Infinity, a trailing newline.  Like a partial set, the file
    appears under its name only once complete."""
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with replacing(path) as fh:
        fh.write(text.encode())


def write_manifest(manifest: MultiviewManifest, path) -> None:
    """Serialize a manifest with ``write_json``, its entries sorted by
    perspective id."""
    ids = [e.perspective_id for e in manifest.entries]
    if len(set(ids)) != len(ids):
        raise ValueError(f"manifest for {manifest.room_id} has duplicate perspective ids")
    min_points = int(manifest.config.get("min_points") or 0)
    for e in manifest.entries:
        if e.point_count < min_points:
            raise ValueError(
                f"manifest entry {e.perspective_id} has {e.point_count} points, "
                f"below the configured minimum {min_points}"
            )
    doc = asdict(manifest)
    doc["entries"] = sorted(doc["entries"], key=lambda e: e["perspective_id"])
    doc["totals"] = {"original_sets": 1, "partial_sets": len(ids)}
    write_json(doc, path)


def read_manifest(path) -> MultiviewManifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CloudFormatError(f"{path}: unreadable manifest: {exc}") from None
    try:
        entries = tuple(
            ManifestEntry(
                perspective_id=int(e["perspective_id"]),
                viewpoint=tuple(float(v) for v in e["viewpoint"]),
                yaw_deg=float(e["yaw_deg"]),
                pitch_deg=float(e["pitch_deg"]),
                point_count=int(e["point_count"]),
                file_path=str(e["file_path"]),
            )
            for e in doc["entries"]
        )
        return MultiviewManifest(
            room_id=str(doc["room_id"]),
            original_count=int(doc["original_count"]),
            entries=entries,
            generation_config_hash=str(doc["generation_config_hash"]),
            seed=int(doc["seed"]),
            config=dict(doc["config"]),
            source_path=str(doc.get("source_path", "")),
            coverage=float(doc.get("coverage", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CloudFormatError(f"{path}: malformed manifest: {exc}") from None
