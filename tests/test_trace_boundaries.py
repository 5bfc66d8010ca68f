"""The calls the benchmark's tracer wraps must stay where it looks for them.

``perfbench/tracing.py`` times a run by replacing module attributes, such as
``mvrep.pipeline.frustum_mask``, with wrappers.  A rename, or a call that
no longer goes through the attribute, silently drops that span from a
traced run; these tests fail first instead.
"""

import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

from helpers import write_room
from mvrep import cli, pipeline
from mvrep.pipeline import PipelineConfig, generate_multiview, write_outputs
from mvrep.synthetic import synthetic_room
from mvrep.viewpoints import GridConfig, enumerate_perspectives, grid_viewpoints

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # Compiled from the source text, so nothing is written next to it.
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


BOUNDARIES = [(target, attr) for target, attr, _, _ in _load_tracing()._boundaries()]
COUNTERS = {(target, attr): counter for target, attr, _, counter in _load_tracing()._boundaries()}


@pytest.mark.parametrize("target, attr", BOUNDARIES, ids=[f"{t}.{a}" for t, a in BOUNDARIES])
def test_wrapped_attribute_resolves(target, attr):
    module_name, _, cls = target.partition(":")
    owner = importlib.import_module(module_name)
    if cls:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr, None))


def test_generate_culls_through_pipeline_frustum_mask(monkeypatch):
    # Each viewpoint's headings are culled on the rows within its reach: in
    # a room wider than twice the reach, every call sees only part of it.
    room = synthetic_room(4_000, size=(12.0, 9.0, 2.5), seed=1)
    original = pipeline.frustum_mask
    for jobs in (1, 2):
        config = PipelineConfig(min_points=50, jobs=jobs)
        assert 2 * config.fov.reach < 12.0
        seen = Counter()
        rows = []

        def counting(points, perspective):
            seen[perspective.perspective_id] += 1
            rows.append(len(points))
            return original(points, perspective)

        monkeypatch.setattr(pipeline, "frustum_mask", counting)
        generate_multiview(room, config)
        perspectives = enumerate_perspectives(
            grid_viewpoints(room.bounds, config.grid), config.grid, config.fov
        )
        assert seen == Counter(p.perspective_id for p in perspectives)
        assert max(rows) < len(room)


def test_kept_sets_and_partial_writes_count_as_the_manifest_says(monkeypatch, tmp_path):
    # The tracer reads the kept sets from generate_multiview's result and the
    # rows written from write_partial_set's first argument.
    room = synthetic_room(6_000, size=(4.0, 3.0, 2.5), seed=6)
    args = (room, PipelineConfig(grid=GridConfig(spacing=2.0), min_points=50))
    r = generate_multiview(*args)
    kept, manifest = r
    point_counts = [e.point_count for e in manifest.entries]
    assert len(r[0]) == len(manifest.entries) > 0
    assert sum(len(c) for c in r[0]) == sum(point_counts)
    assert COUNTERS["mvrep.cli", "generate_multiview"](args, {}, r)["kept_points"] == sum(point_counts)

    real = pipeline.write_partial_set
    calls = []

    def recording(*a, **k):
        real(*a, **k)
        calls.append((len(a[0]), COUNTERS["mvrep.pipeline", "write_partial_set"](a, k, None)))

    monkeypatch.setattr(pipeline, "write_partial_set", recording)
    write_outputs(room, kept, manifest, tmp_path)
    assert [rows for rows, _ in calls] == point_counts
    assert [counts["points"] for _, counts in calls] == point_counts
    assert [counts["bytes"] for _, counts in calls] == [
        (tmp_path / e.file_path).stat().st_size for e in manifest.entries
    ]


def test_traced_commands_miss_no_span(tmp_path):
    # A traced benchmark run reports every boundary the tracer could not
    # wrap, or whose counter failed, as missing.  Run each command that the
    # benchmark times through main() with the tracer installed.
    room = synthetic_room(6_000, size=(4.0, 3.0, 2.5), seed=6)
    src = tmp_path / "room.txt"
    write_room(room, src)
    centre = ",".join(repr(float(v)) for v in (room.bounds.lo + room.bounds.hi) / 2.0)
    gen = tmp_path / "gen"
    commands = [
        ["generate", "--input", str(src), "--out", str(gen), "--spacing", "2.0",
         "--min-points", "50", "--with-labels", "--jobs", "2"],
        ["hpr", "--input", str(src), "--viewpoint", centre, "--out", str(tmp_path / "hpr.txt")],
        ["critical", "--input", str(src), "--k", "8", "--trials", "3",
         "--out", str(tmp_path / "critical.json")],
        ["fuse", "--manifests", str(gen), "--partial-per-area", "2",
         "--out", str(tmp_path / "train.txt")],
        ["stats", "--manifests", str(gen)],
    ]
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in commands]  # looked up per call
    finally:
        tracer.uninstall()
    assert codes == [0] * len(commands)
    assert tracer.missing_spans == set()
    recorded = Counter(span["name"] for span in tracer.export())
    assert recorded["cli.main"] == len(commands)
    for name in ("io.parse", "pipeline.generate", "geometry.frustum_mask",
                 "geometry.convex_hull_3d", "io.write_partial", "io.write_manifest",
                 "critical.invariance", "critical.evaluate",
                 "pipeline.fuse", "io.read_manifest"):
        assert recorded[name] > 0, name
    # Every command writes formatted lines; none copies a PointCloud subset.
    assert recorded["io.subset"] == 0
