"""Frozen output digests: a refactor must reproduce these bytes exactly.

The digests were taken with numpy 2.4.6 and scipy 1.17.1.  The visible sets
come from qhull through ``scipy.spatial.ConvexHull`` with option ``Q7``, so a
different scipy may legitimately change them; re-derive the digests only
after checking that such a change comes from the library and not from this
package.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import DISPATCH_SETTINGS, child_env, degenerate_visible_sets, write_room
from mvrep.cli import main
from mvrep.pipeline import PipelineConfig, generate_multiview, write_outputs
from mvrep.synthetic import synthetic_room
from mvrep.viewpoints import GridConfig

# Manifest plus every partial file of the 12k-point room, any worker count.
GENERATE_SHA256 = "f2d1a173d9b5a37fe05f25b6cb78facc894e6dbee2bbb1b02d72c98be5ff5073"
# ``mvrep critical`` JSON with default --k, --trials and --seed.
CRITICAL_SHA256 = "a414af45820c0e930a6d9e2df6d712c0e42f49188ca4d8ca28eb3683d7e45475"
# ``mvrep hpr`` partial set seen from the centre of the room's bounds.
HPR_SHA256 = "c15163339da6ab6b6b95b806ae983756030210f9765c8add3ab0032f1c0c400c"


def golden_room():
    return synthetic_room(12_000, size=(4.0, 3.0, 2.5), seed=1)


@pytest.fixture(scope="module")
def room():
    return golden_room()


def golden_config(jobs: int) -> PipelineConfig:
    """The settings of the golden generate run."""
    return PipelineConfig(
        grid=GridConfig(spacing=2.0), min_points=50, radius_factor=1000.0, seed=0, jobs=jobs
    )


def write_generate(room, out: Path, jobs: int) -> None:
    """The golden generate run: every output of ``room`` written to ``out``."""
    kept, manifest = generate_multiview(room, golden_config(jobs))
    assert manifest.source_path == ""
    write_outputs(room, kept, manifest, out)


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative name and content digest of every file."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
def test_generate_outputs_match_golden(room, tmp_path, jobs):
    write_generate(room, tmp_path, jobs)
    assert tree_digest(tmp_path) == GENERATE_SHA256


def test_critical_report_matches_golden(room, tmp_path):
    src = tmp_path / "golden_room.txt"
    write_room(room, src)
    out = tmp_path / "critical.json"
    assert main(["critical", "--input", str(src), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CRITICAL_SHA256


def hpr_argv(room, src: Path, out: Path) -> list[str]:
    """The golden ``mvrep hpr`` command line: ``room`` seen from its centre."""
    centre = (room.bounds.lo + room.bounds.hi) / 2.0
    viewpoint = ",".join(repr(float(v)) for v in centre)
    return ["hpr", "--input", str(src), "--viewpoint", viewpoint, "--out", str(out)]


def test_hpr_partial_matches_golden(room, tmp_path):
    src = tmp_path / "golden_room.txt"
    write_room(room, src)
    out = tmp_path / "hpr.txt"
    assert main(hpr_argv(room, src, out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == HPR_SHA256


def golden_child_digest(tmp_path: Path, argv: list[str], **settings: str) -> str:
    """Run the golden generate with 2 workers, then ``mvrep`` on ``argv``, in a
    child process with ``settings``; return the digest of the generate outputs.
    The child also writes the degenerate scenes' visible sets to
    ``tmp_path / "degenerate.json"``."""
    generate_out, degenerate_out = tmp_path / "generate", tmp_path / "degenerate.json"
    code = (
        "import json, sys; from pathlib import Path; from mvrep.cli import main; "
        "from helpers import degenerate_visible_sets; "
        "from test_golden import golden_room, write_generate; "
        f"write_generate(golden_room(), Path({str(generate_out)!r}), jobs=2); "
        f"Path({str(degenerate_out)!r}).write_text(json.dumps(degenerate_visible_sets())); "
        f"sys.exit(main({argv!r}))"
    )
    subprocess.run([sys.executable, "-c", code], env=child_env(**settings), timeout=300, check=True)
    return tree_digest(generate_out)


def test_bytes_do_not_depend_on_blas_thread_count(room, tmp_path):
    # Importing mvrep sets OPENBLAS_NUM_THREADS=1 unless it is already set,
    # so a child given 2 runs the golden commands on two BLAS threads.
    src = tmp_path / "golden_room.txt"
    write_room(room, src)
    out = tmp_path / "critical.json"
    argv = ["critical", "--input", str(src), "--out", str(out)]
    assert golden_child_digest(tmp_path, argv, OPENBLAS_NUM_THREADS="2") == GENERATE_SHA256
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CRITICAL_SHA256


def test_bytes_do_not_depend_on_cpu_dispatch(room, tmp_path):
    # ``mvrep critical`` is left out: FeatureBank.evaluate's BLAS product and
    # np.exp still round differently on these paths (ROADMAP item 6).  The
    # degenerate scenes take the lift's LAPACK eigensolver.
    src = tmp_path / "golden_room.txt"
    write_room(room, src)
    out = tmp_path / "hpr.txt"
    digest = golden_child_digest(tmp_path, hpr_argv(room, src, out), **DISPATCH_SETTINGS)
    assert digest == GENERATE_SHA256
    assert hashlib.sha256(out.read_bytes()).hexdigest() == HPR_SHA256
    degenerate = json.loads((tmp_path / "degenerate.json").read_text())
    assert degenerate == degenerate_visible_sets()
