"""In-process spans around the calls one ``mvrep`` module makes into another.

The tracer replaces module attributes (the names a caller looks up at call
time) with wrappers; nothing under ``src/`` changes.  Each span records its
name, start, end, thread, parent and the counts taken at that boundary.
Spans stay in memory until the run ends.  A worker thread with no open span
of its own takes the innermost open span of the main thread as parent, so
per-perspective work done by the generation pool hangs under the
generation span that waits for it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from pathlib import Path

import numpy as np


def _n(points) -> int:
    return int(np.shape(getattr(points, "positions", points))[0])


def _files_read(path) -> int:
    path = Path(path)
    if path.is_dir() and (path / "Annotations").is_dir():
        return len(list((path / "Annotations").glob("*.txt")))
    return 1


# (module, attribute, span name, counter).  A counter maps
# (args, kwargs, result) to the counts recorded on the span.
def _boundaries():
    return [
        ("mvrep.cli", "main", "cli.main", None),
        ("mvrep.cli", "parse_s3dis_room", "io.parse", lambda a, k, r: {"files": _files_read(a[0]), "points": len(r)}),
        ("mvrep.cli", "parse_ply", "io.parse", lambda a, k, r: {"files": 1, "points": len(r)}),
        ("mvrep.cli", "generate_multiview", "pipeline.generate",
         lambda a, k, r: {"kept_sets": len(r[0]), "kept_points": sum(len(c) for c in r[0]),
                          "min_points": a[1].min_points, "jobs": a[1].jobs}),
        ("mvrep.cli", "write_outputs", "pipeline.write_outputs", None),
        ("mvrep.cli", "fuse_training_set", "pipeline.fuse", lambda a, k, r: {"files": len(r)}),
        ("mvrep.cli", "read_manifest", "io.read_manifest", None),
        ("mvrep.cli", "visible_points", "hpr.visible_points", lambda a, k, r: {"points": _n(a[0]), "visible": len(r)}),
        ("mvrep.cli", "write_partial_set", "io.write_partial", lambda a, k, r: {"points": len(a[0]), "bytes": os.path.getsize(a[1])}),
        ("mvrep.cli", "critical_set", "critical.critical_set", None),
        ("mvrep.cli", "verify_subset_invariance", "critical.invariance", None),
        ("mvrep.pipeline", "grid_viewpoints", "viewpoints.grid", lambda a, k, r: {"viewpoints": len(r)}),
        ("mvrep.pipeline", "enumerate_perspectives", "viewpoints.enumerate", lambda a, k, r: {"perspectives": len(r)}),
        ("mvrep.pipeline", "frustum_mask", "geometry.frustum_mask",
         lambda a, k, r: {"points": _n(a[0]), "culled": int(np.count_nonzero(r))}),
        ("mvrep.pipeline", "visible_points", "hpr.visible_points", lambda a, k, r: {"points": _n(a[0]), "visible": len(r)}),
        ("mvrep.pipeline", "write_partial_set", "io.write_partial", lambda a, k, r: {"points": len(a[0]), "bytes": os.path.getsize(a[1])}),
        ("mvrep.pipeline", "write_manifest", "io.write_manifest", None),
        ("mvrep.hpr", "spherical_flip", "geometry.spherical_flip", None),
        ("mvrep.hpr", "convex_hull_3d", "geometry.convex_hull_3d",
         lambda a, k, r: {"points": _n(a[0]), "vertices": len(r.vertex_indices)}),
        ("mvrep.critical", "critical_set", "critical.critical_set", None),
        ("mvrep.critical:FeatureBank", "evaluate", "critical.evaluate",
         lambda a, k, r: {"features": int(r.size)}),
        ("mvrep.io:PointCloud", "subset", "io.subset", lambda a, k, r: {"points": len(r)}),
    ]


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every attribute."""

    def __init__(self) -> None:
        self.spans: dict[int, dict] = {}
        self.missing_spans: set[str] = set()
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for target, attr, name, counter in _boundaries():
            module_name, _, cls = target.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing_spans.add(name)
                continue
            setattr(owner, attr, self._wrap(original, name, counter))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def _wrap(self, original, name, counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main) or [None]
                parent = main[-1]
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = {}
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # The boundary's signature changed: its counts are missing.
                    tracer.missing_spans.add(name)
            tracer.spans[span_id] = {
                "id": span_id, "name": name, "start": start, "end": end,
                "thread": threading.get_ident(), "parent": parent, "counts": counts,
                # Time this wrapper spent outside the wrapped call.
                "tracer_s": (start - enter) + (time.perf_counter() - end),
            }
            return result

        return traced

    def export(self) -> list[dict]:
        return [self.spans[i] for i in sorted(self.spans)]


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _self_time(spans, children, names) -> float:
    total = 0.0
    for s in spans:
        if s["name"] in names:
            kids = [(c["start"], c["end"]) for c in children.get(s["id"], ())]
            total += (s["end"] - s["start"]) - _union_length(kids)
    return total


# Metric -> (spans it is computed from, unit).  A metric whose spans could
# not be recorded is reported as missing, never as zero.
METRICS = {
    "cli.invocations": (("cli.main",), "count"),
    "io.parse_s": (("io.parse",), "s"),
    "io.parse_files": (("io.parse",), "count"),
    "io.subset_s": (("io.subset",), "s"),
    "io.write_partial_s": (("io.write_partial",), "s"),
    "io.write_points": (("io.write_partial",), "points"),
    "io.write_bytes": (("io.write_partial",), "bytes"),
    "io.write_manifest_s": (("io.write_manifest",), "s"),
    "io.read_manifest_s": (("io.read_manifest",), "s"),
    "viewpoints.viewpoints": (("viewpoints.grid",), "count"),
    "viewpoints.perspectives": (("viewpoints.enumerate",), "count"),
    "viewpoints.enumerate_s": (("viewpoints.grid", "viewpoints.enumerate"), "s"),
    "geometry.frustum_mask_s": (("geometry.frustum_mask",), "s"),
    "geometry.frustum_mask_calls": (("geometry.frustum_mask",), "count"),
    "geometry.points_tested": (("geometry.frustum_mask",), "points"),
    "geometry.culled_points": (("geometry.frustum_mask",), "points"),
    "geometry.empty_frusta": (("geometry.frustum_mask",), "count"),
    "geometry.spherical_flip_s": (("geometry.spherical_flip",), "s"),
    "geometry.convex_hull_3d_s": (("geometry.convex_hull_3d",), "s"),
    "geometry.hull_calls": (("geometry.convex_hull_3d",), "count"),
    "geometry.hull_input_points": (("geometry.convex_hull_3d",), "points"),
    "geometry.hull_vertices": (("geometry.convex_hull_3d",), "points"),
    "hpr.visible_points_s": (("hpr.visible_points",), "s"),
    "hpr.self_s": (("hpr.visible_points", "geometry.spherical_flip", "geometry.convex_hull_3d"), "s"),
    "hpr.calls": (("hpr.visible_points",), "count"),
    "hpr.jitter_retries": (("hpr.visible_points", "geometry.convex_hull_3d"), "count"),
    "hpr.calls_below_threshold": (("hpr.visible_points", "pipeline.generate"), "count"),
    "hpr.kept_ratio": (("hpr.visible_points", "pipeline.generate"), "ratio"),
    "pipeline.generate_s": (("pipeline.generate",), "s"),
    "pipeline.self_s": (("pipeline.generate", "geometry.frustum_mask", "hpr.visible_points",
                         "viewpoints.grid", "viewpoints.enumerate", "io.subset"), "s"),
    "pipeline.worker_busy": (("pipeline.generate", "geometry.frustum_mask", "hpr.visible_points"), "ratio"),
    "pipeline.kept_sets": (("pipeline.generate",), "count"),
    "pipeline.kept_points": (("pipeline.generate",), "points"),
    "pipeline.write_outputs_s": (("pipeline.write_outputs",), "s"),
    "pipeline.fuse_s": (("pipeline.fuse",), "s"),
    "critical.critical_set_s": (("critical.critical_set",), "s"),
    "critical.invariance_s": (("critical.invariance",), "s"),
    "critical.evaluate_calls": (("critical.evaluate",), "count"),
    "critical.features_evaluated": (("critical.evaluate",), "count"),
}


def layer_metrics(spans: list[dict], missing_spans: set[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def total(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_name.get(n, ()))

    def count(name, key=None):
        group = by_name.get(name, ())
        return len(group) if key is None else sum(s["counts"].get(key, 0) for s in group)

    def generate_of(span):
        while span is not None and span["name"] != "pipeline.generate":
            span = by_id.get(span["parent"])
        return span

    generate = by_name.get("pipeline.generate", [])
    visible = by_name.get("hpr.visible_points", [])
    gen_hpr = [(s, generate_of(s)) for s in visible]
    gen_hpr = [(s, g) for s, g in gen_hpr if g is not None]
    hulls_per_call = [sum(1 for c in children.get(s["id"], ()) if c["name"] == "geometry.convex_hull_3d")
                      for s in visible]
    task_time = sum(c["end"] - c["start"] for g in generate for c in children.get(g["id"], ())
                    if c["name"] in ("geometry.frustum_mask", "hpr.visible_points"))
    capacity = sum((g["end"] - g["start"]) * g["counts"].get("jobs", 0) for g in generate)
    kept_sets = count("pipeline.generate", "kept_sets")

    values = {
        "cli.invocations": count("cli.main"),
        "io.parse_s": total("io.parse"),
        "io.parse_files": count("io.parse", "files"),
        "io.subset_s": total("io.subset"),
        "io.write_partial_s": total("io.write_partial"),
        "io.write_points": count("io.write_partial", "points"),
        "io.write_bytes": count("io.write_partial", "bytes"),
        "io.write_manifest_s": total("io.write_manifest"),
        "io.read_manifest_s": total("io.read_manifest"),
        "viewpoints.viewpoints": count("viewpoints.grid", "viewpoints"),
        "viewpoints.perspectives": count("viewpoints.enumerate", "perspectives"),
        "viewpoints.enumerate_s": total("viewpoints.grid", "viewpoints.enumerate"),
        "geometry.frustum_mask_s": total("geometry.frustum_mask"),
        "geometry.frustum_mask_calls": count("geometry.frustum_mask"),
        "geometry.points_tested": count("geometry.frustum_mask", "points"),
        "geometry.culled_points": count("geometry.frustum_mask", "culled"),
        "geometry.empty_frusta": sum(1 for s in by_name.get("geometry.frustum_mask", ())
                                     if s["counts"].get("culled") == 0),
        "geometry.spherical_flip_s": total("geometry.spherical_flip"),
        "geometry.convex_hull_3d_s": total("geometry.convex_hull_3d"),
        "geometry.hull_calls": count("geometry.convex_hull_3d"),
        "geometry.hull_input_points": count("geometry.convex_hull_3d", "points"),
        "geometry.hull_vertices": count("geometry.convex_hull_3d", "vertices"),
        "hpr.visible_points_s": total("hpr.visible_points"),
        "hpr.self_s": _self_time(spans, children, {"hpr.visible_points"}),
        "hpr.calls": len(visible),
        "hpr.jitter_retries": sum(max(h - 1, 0) for h in hulls_per_call),
        "hpr.calls_below_threshold": sum(
            1 for s, g in gen_hpr
            if s["counts"].get("points", 0) < max(g["counts"].get("min_points", 0), 1)),
        "pipeline.generate_s": total("pipeline.generate"),
        "pipeline.self_s": _self_time(spans, children, {"pipeline.generate"}),
        "pipeline.kept_sets": kept_sets,
        "pipeline.kept_points": count("pipeline.generate", "kept_points"),
        "pipeline.write_outputs_s": total("pipeline.write_outputs"),
        "pipeline.fuse_s": total("pipeline.fuse"),
        "critical.critical_set_s": total("critical.critical_set"),
        "critical.invariance_s": total("critical.invariance"),
        "critical.evaluate_calls": count("critical.evaluate"),
        "critical.features_evaluated": count("critical.evaluate", "features"),
    }
    # Ratios with an empty base are undefined, not zero.
    if capacity > 0:
        values["pipeline.worker_busy"] = task_time / capacity
    if gen_hpr:
        values["hpr.kept_ratio"] = kept_sets / len(gen_hpr)
    return {
        name: (value, METRICS[name][1])
        for name, value in values.items()
        if not set(METRICS[name][0]) & missing_spans
    }
