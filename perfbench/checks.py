"""Output checks made apart from the program.

Nothing here imports ``mvrep``.  The references are written from the method's
definition: a camera frame built with ``scipy.spatial.transform.Rotation``,
hidden point removal by spherical flipping plus ``scipy.spatial.ConvexHull``
(Katz, Tal and Basri, "Direct Visibility of Point Sets", SIGGRAPH 2007), the
documented grid rule, and the Gaussian feature bank's definition.  Inputs are
exact micrometre tables (see ``inputs.py``), so row identity needs no
tolerance.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial.transform import Rotation

MICRO = 1_000_000

# Tolerance for frustum membership: the program and this reference build the
# camera frame with different arithmetic, so a point on a frustum face may
# land a few ulps either side.
FRUSTUM_TOL = 1e-9

# Reference HPR must agree with the program's kept set up to this share of
# the reference visible set (symmetric difference).  Both call qhull, but
# the flip is computed in a different frame, so a near-coplanar facet may
# gain or lose a vertex.
HPR_AGREEMENT = 0.005

# |u_program - u_reference| bound for the critical report.  The program
# expands |x - c|^2; the reference subtracts first.
U_TOL = 1e-9


class CheckLog:
    """Counts checks attempted and failed; keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, name: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)


# --- row identity ----------------------------------------------------------

def read_rows(path: Path, ncols: int) -> tuple[np.ndarray | None, int, str]:
    """(integer table, line count, problem) of a written point file."""
    data = Path(path).read_bytes()
    lines = data.count(b"\n")
    if data and not data.endswith(b"\n"):
        return None, lines, "last line is not terminated"
    try:
        values = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        return None, lines, str(exc)
    if values.shape != (lines, ncols):
        return None, lines, f"expected {ncols} fields on each of {lines} lines, got {values.shape}"
    q = np.rint(values[:, :3] * MICRO)
    if np.abs(values[:, :3] * MICRO - q).max(initial=0.0) > 1e-3:
        return None, lines, "coordinates carry more than six decimals"
    table = np.column_stack([q, values[:, 3:]]).astype(np.int64)
    if not np.array_equal(table[:, 3:], values[:, 3:]):
        return None, lines, "non-integer color or label field"
    return table, lines, ""


def _key(q: np.ndarray) -> np.ndarray:
    q = q.astype(np.uint64)
    return q[:, 0] * np.uint64(0x9E3779B97F4A7C15) ^ q[:, 1] * np.uint64(0xC2B2AE3D27D4EB4F) ^ q[:, 2]


class RowIndex:
    """Maps written rows back to input rows by exact position."""

    def __init__(self, table: np.ndarray) -> None:
        self.table = table
        keys = _key(table[:, :3])
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]
        if np.any(self.keys[1:] == self.keys[:-1]):
            raise ValueError("input positions collide in the row index")

    def lookup(self, rows: np.ndarray) -> np.ndarray | None:
        """Input index of every row, or None if some row is not an input row."""
        keys = _key(rows[:, :3])
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        idx = self.order[at]
        width = rows.shape[1]
        if not (np.array_equal(self.keys[at], keys) and np.array_equal(self.table[idx, :width], rows)):
            return None
        return idx


# --- camera frame, frustum, grid -------------------------------------------

def camera_frame(yaw_deg: float, pitch_deg: float) -> np.ndarray:
    """Columns: forward, left, up.  Yaw about +z from +x, then pitch up."""
    return Rotation.from_euler("ZY", [yaw_deg, -pitch_deg], degrees=True).as_matrix()


def frustum(pos: np.ndarray, viewpoint, yaw: float, pitch: float, fov: dict,
            tol: float = 0.0) -> np.ndarray:
    """Points inside the inclusive view frustum, widened by ``tol``."""
    local = (pos - np.asarray(viewpoint, dtype=np.float64)) @ camera_frame(yaw, pitch)
    depth, left, up = local[:, 0], local[:, 1], local[:, 2]
    half_h = math.radians(fov["hfov_deg"]) / 2.0
    half_v = math.radians(fov["vfov_deg"]) / 2.0
    inside = (depth >= fov["min_depth"] - tol) & (depth <= fov["max_depth"] + tol)
    inside &= np.abs(np.arctan2(left, depth)) <= half_h + tol
    inside &= np.abs(np.arctan2(up, depth)) <= half_v + tol
    return inside


def grid_lines(lo: float, hi: float, spacing: float) -> list[float]:
    """lo + k * spacing up to hi, plus hi itself when no line lands on it."""
    extent = hi - lo
    lines = [lo]
    while lines[-1] + spacing <= hi + 1e-9 * spacing:
        lines.append(lo + len(lines) * spacing)
    if hi - lines[-1] > 1e-9 * max(extent, 1.0):
        lines.append(hi)
    return lines


def perspectives(pos: np.ndarray, config: dict) -> list[tuple[tuple, float, float]]:
    """Grid x yaw x pitch enumeration; the index is the perspective id."""
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    z = lo[2] + config["camera_height"]
    xs = grid_lines(lo[0], hi[0], config["spacing"])
    ys = grid_lines(lo[1], hi[1], config["spacing"])
    return [((x, y, z), yaw, pitch) for x in xs for y in ys
            for yaw in config["yaw_steps"] for pitch in config["pitch_steps"]]


# --- hidden point removal and features -------------------------------------

def reference_hpr(pos: np.ndarray, viewpoint, radius_factor: float) -> np.ndarray:
    """Sorted indices whose flipped image is a hull vertex (viewpoint added)."""
    rel = pos - np.asarray(viewpoint, dtype=np.float64)
    r = np.sqrt((rel * rel).sum(axis=1))
    if len(pos) < 4:
        return np.arange(len(pos))
    radius = radius_factor * r.max()
    flipped = rel * ((2.0 * radius - r) / r)[:, None]
    hull = ConvexHull(np.vstack([flipped, np.zeros(3)]))
    return np.sort(hull.vertices[hull.vertices < len(pos)])


def rbf_features(pos: np.ndarray, k: int, seed: int, lo, hi) -> np.ndarray:
    """h_j(x) = exp(-|x - c_j|^2 / sigma_j^2), bank drawn as documented."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(lo, hi, size=(k, 3))
    diameter = float(np.linalg.norm(np.asarray(hi) - np.asarray(lo)))
    widths = rng.uniform(0.2, 0.6, size=k) * max(diameter, 1e-6)
    out = np.empty((len(pos), k))
    for s in range(0, len(pos), 20_000):
        d = pos[s:s + 20_000, None, :] - centers[None, :, :]
        out[s:s + 20_000] = np.exp(-(d * d).sum(axis=2) / widths**2)
    return out


def _agree(kept: np.ndarray, ref: np.ndarray) -> tuple[bool, str]:
    diff = np.setxor1d(kept, ref).size
    return diff <= HPR_AGREEMENT * max(ref.size, 1), f"{diff} of {ref.size} differ"


# --- per-call checks -------------------------------------------------------

def check_generate(call, table: np.ndarray, log: CheckLog, sample_rng, hpr_samples: int) -> None:
    """Manifest, every partial file, coverage and a sample of HPR sets."""
    room, out, config = call.room, Path(call.out), call.expect["config"]
    ncols = 7 if call.expect["labels"] else 6
    man_path = out / f"{room.room_id}_manifest.json"
    if not log.check(man_path.is_file(), "manifest exists", str(man_path)):
        return
    manifest = json.loads(man_path.read_text())
    pos = table[:, :3] / MICRO
    n = len(table)
    log.check(manifest["room_id"] == room.room_id, "manifest room_id", manifest["room_id"])
    log.check(manifest["original_count"] == n, "manifest original_count",
              f"{manifest['original_count']} != {n}")
    log.check(manifest["config"] == config, "manifest config echo", json.dumps(manifest["config"]))
    entries = manifest["entries"]
    ids = [e["perspective_id"] for e in entries]
    log.check(ids == sorted(set(ids)), "entries sorted by unique perspective id")
    totals = manifest["totals"]
    log.check(totals == {"original_sets": 1, "partial_sets": len(entries)}, "manifest totals")

    enum = perspectives(pos, config)
    keep_at = max(config["min_points"], 1)
    listed = {e["file_path"] for e in entries}
    on_disk = {p.name for p in out.iterdir()} - {man_path.name}
    log.check(on_disk == listed, "partial files match manifest entries",
              f"{len(on_disk ^ listed)} differ")

    index = RowIndex(table)
    covered = np.zeros(n, dtype=bool)
    kept = {}
    for e in entries:
        pid = e["perspective_id"]
        name = e["file_path"]
        if not log.check(0 <= pid < len(enum), "perspective id in enumeration", name):
            continue
        vp, yaw, pitch = enum[pid]
        log.check(np.allclose(e["viewpoint"], vp, rtol=0.0, atol=1e-9) and e["yaw_deg"] == yaw
                  and e["pitch_deg"] == pitch, "perspective matches grid x yaw x pitch", name)
        rows, lines, problem = read_rows(out / e["file_path"], ncols)
        log.check(lines == e["point_count"], "line count equals point_count",
                  f"{name}: {lines} != {e['point_count']}")
        log.check(e["point_count"] >= keep_at, "point_count at least min_points", name)
        if not log.check(rows is not None, "partial file format", f"{name}: {problem}"):
            continue
        idx = index.lookup(rows)
        if not log.check(idx is not None, "each partial row is an input row", name):
            continue
        log.check(np.all(np.diff(idx) > 0), "rows in input order without repeats", name)
        inside = frustum(pos[idx], vp, yaw, pitch, config, FRUSTUM_TOL)
        log.check(inside.all(), "each source point in its frustum",
                  f"{name}: {int((~inside).sum())} outside")
        covered[idx] = True
        kept[pid] = idx
    log.check(abs(manifest["coverage"] - covered.mean()) <= 1e-12, "coverage of the union",
              f"{manifest['coverage']} != {covered.mean()}")

    for pid in sample_rng.sample(sorted(kept), min(hpr_samples, len(kept))):
        vp, yaw, pitch = enum[pid]
        culled = np.flatnonzero(frustum(pos, vp, yaw, pitch, config))
        log.check(np.isin(kept[pid], culled).all(), "kept set within culled set", f"v{pid}")
        ref = culled[reference_hpr(pos[culled], vp, config["radius_factor"])]
        ok, detail = _agree(kept[pid], ref)
        log.check(ok, "kept set agrees with reference HPR", f"v{pid}: {detail}")


def check_hpr(call, table: np.ndarray, stdout: str, log: CheckLog) -> None:
    rows, lines, problem = read_rows(call.out, 6)
    m = re.search(r"(\d+) of (\d+) points visible", stdout)
    log.check(m is not None and int(m.group(1)) == lines and int(m.group(2)) == len(table),
              "hpr counts match its output", stdout.strip())
    if not log.check(rows is not None, "hpr file format", problem):
        return
    idx = RowIndex(table).lookup(rows)
    if not log.check(idx is not None, "each hpr row is an input row"):
        return
    log.check(np.all(np.diff(idx) > 0), "hpr rows in input order without repeats")
    ref = reference_hpr(table[:, :3] / MICRO, call.expect["viewpoint"], call.expect["radius_factor"])
    ok, detail = _agree(idx, ref)
    log.check(ok, "hpr output agrees with reference HPR", detail)


def check_critical(call, table: np.ndarray, log: CheckLog) -> None:
    doc = json.loads(Path(call.out).read_text())
    crit, inv = doc["critical"], doc["invariance"]
    k, n = call.expect["k"], len(table)
    log.check(crit["k"] == k and crit["cloud_size"] == n, "critical k and cloud size")
    log.check(crit["critical_size"] == len(crit["critical_indices"]) <= k, "critical_size <= K",
              str(crit["critical_size"]))
    log.check(inv["passed"] is True and inv["failures"] == [] and inv["trials"] == call.expect["trials"],
              "subset invariance passed")
    pos = table[:, :3] / MICRO
    feats = rbf_features(pos, k, call.expect["seed"], pos.min(axis=0), pos.max(axis=0))
    u_ref = feats.max(axis=0)
    u = np.asarray(crit["u"], dtype=np.float64)
    ok = u.shape == u_ref.shape and np.abs(u - u_ref).max() <= U_TOL
    log.check(ok, "u equals the maximum of the recomputed features",
              f"max error {np.abs(u - u_ref).max() if u.shape == u_ref.shape else 'shape'}")
    idx = np.asarray(crit["critical_indices"], dtype=np.int64)
    attained = feats[idx].max(axis=0) if idx.size and idx.max() < n else np.zeros(k)
    log.check(np.abs(attained - u_ref).max() <= U_TOL, "critical points attain every u_j")


def _manifests(root: Path) -> list[tuple[Path, dict]]:
    return [(p, json.loads(p.read_text())) for p in sorted(Path(root).rglob("*_manifest.json"))]


def _area(room_id: str) -> str:
    m = re.match(r"(Area_\d+)_", room_id)
    return m.group(1) if m else "ungrouped"


def check_fuse(call, log: CheckLog) -> None:
    manifests = _manifests(call.expect["manifests"])
    per_area = call.expect["per_area"]
    originals, partials = set(), set()
    areas = set()
    for path, m in manifests:
        areas.add(_area(m["room_id"]))
        if m["source_path"]:
            originals.add(m["source_path"])
        partials.update(str(path.parent / e["file_path"]) for e in m["entries"])
    lines = Path(call.out).read_text().splitlines()
    log.check(len(lines) == len(originals) + per_area * len(areas), "fuse list length",
              f"{len(lines)} != {len(originals)} + {per_area} x {len(areas)}")
    picked = [ln for ln in lines if ln not in originals]
    log.check(set(lines) >= originals and set(picked) <= partials and len(set(picked)) == len(picked),
              "fuse list holds every original and distinct partial sets")


def check_stats(call, stdout: str, log: CheckLog) -> None:
    manifests = _manifests(call.expect["manifests"])
    rows = {}
    for line in stdout.splitlines()[1:]:
        fields = line.split()
        if len(fields) == 3:
            rows[fields[0]] = (int(fields[1]), int(fields[2]))
    total = (len(manifests), sum(len(m["entries"]) for _, m in manifests))
    log.check(rows.get("Total") == total, "stats totals equal manifest counts",
              f"{rows.get('Total')} != {total}")
    per_area = {}
    for _, m in manifests:
        orig, mv = per_area.get(_area(m["room_id"]), (0, 0))
        per_area[_area(m["room_id"])] = (orig + 1, mv + len(m["entries"]))
    log.check({a: v for a, v in rows.items() if a != "Total"} == per_area, "stats rows per area")
