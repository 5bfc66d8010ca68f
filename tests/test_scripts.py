"""Smoke tests of the scripts in ``scripts/`` and of the public export lists."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mvrep
from mvrep.cli import main
from mvrep.io import read_manifest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
MODULES = ["mvrep"] + [f"mvrep.{m.name}" for m in pkgutil.iter_modules(mvrep.__path__)]


def run_script(name, *args):
    """Run one script in a fresh interpreter that imports this ``mvrep``."""
    src = str(Path(mvrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )


def test_synthetic_room_then_generate(tmp_path):
    room = tmp_path / "Area_1_office_1.txt"
    run_script("make_synthetic_room.py", str(room), "--points", "2000", "--with-labels")
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


def test_critical_demo():
    result = run_script("critical_demo.py", "--points", "256", "--trials", "3")
    assert "cloud: 256 points" in result.stdout
    assert "invariance over 3 sampled supersets: ok" in result.stdout


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
