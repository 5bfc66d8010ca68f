"""Smoke tests of the scripts in ``scripts/`` and of the public export lists."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mvrep
from helpers import VISIBLE_CORES, child_env
from mvrep.cli import main
from mvrep.io import read_manifest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SOURCES = Path(mvrep.__file__).resolve().parent
MODULES = [f"mvrep.{m.name}" for m in pkgutil.iter_modules(mvrep.__path__)]


def run_script(*argv, env=None):
    """Run python on ``argv`` in a fresh interpreter with ``env``, by default
    ``child_env()``, as its environment."""
    return subprocess.run(
        [sys.executable, *argv],
        env=child_env() if env is None else env,
        capture_output=True, text=True, timeout=120, check=True,
    )


def test_synthetic_room_then_generate(tmp_path):
    room = tmp_path / "Area_1_office_1.txt"
    run_script(SCRIPTS / "make_synthetic_room.py", str(room), "--points", "2000", "--with-labels")
    rows = room.read_text().splitlines()
    assert len(rows) == 2000
    assert all(len(row.split()) == 7 for row in rows)

    out = tmp_path / "mv"
    argv = ["generate", "--input", str(room), "--out", str(out), "--with-labels",
            "--spacing", "2", "--min-points", "50"]
    assert main(argv) == 0
    manifest = read_manifest(out / "Area_1_office_1_manifest.json")
    assert manifest.original_count == 2000
    assert manifest.entries
    assert all((out / entry.file_path).is_file() for entry in manifest.entries)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_only_io_opens_files():
    # io's writers replace a file only once it is complete; a write anywhere
    # else could leave an output half written under its name.
    calls = ("write_text(", "write_bytes(", "open(")
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(SOURCES.glob("*.py"))
        if path.name != "io.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if any(call in line for call in calls)
    ]
    assert found == []


def test_package_import_sets_blas_default_and_loads_nothing():
    # Each public name is imported from its module, so ``import mvrep``
    # itself only sets the BLAS thread default.
    code = (
        "import os, sys, mvrep; print(os.environ.get('OPENBLAS_NUM_THREADS'), "
        "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('mvrep.')))"
    )
    assert run_script("-c", code).stdout.strip() == "1 []"


def test_cli_import_leaves_scipy_unloaded():
    # Only a hull needs scipy; fuse, stats and critical never load it.
    code = "import sys, mvrep.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    assert run_script("-c", code).stdout.strip() == "[]"


@pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or (VISIBLE_CORES or 1) < 2,
    reason="needs /proc/self/task and at least 2 visible cores",
)
@pytest.mark.parametrize("setting", [None, "2"], ids=["unset", "explicit-2"])
def test_mvrep_process_runs_one_blas_thread(setting):
    # This process's own ``import mvrep`` has set OPENBLAS_NUM_THREADS, so
    # the child gets an environment without any BLAS thread variable.
    env = child_env() if setting is None else child_env(OPENBLAS_NUM_THREADS=setting)
    # The hull loads scipy, and with it scipy's own OpenBLAS.
    code = (
        "import os, sys, mvrep.cli; from mvrep.geometry import convex_hull_3d; "
        "convex_hull_3d([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]); "
        "assert 'scipy.spatial' in sys.modules; "
        "print(len(os.listdir('/proc/self/task')))"
    )
    threads = int(run_script("-c", code, env=env).stdout)
    if setting is None:
        assert threads == 1
    else:
        assert threads > 1
