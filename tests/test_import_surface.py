"""NumPy is the only runtime import; scipy / networkx are test oracles only."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_only_stdlib_numpy_and_repro_are_imported():
    # tools/check_import_surface.py imports the six entry packages in a
    # fresh process and names every other top-level module they load; it
    # also pins the module count and pyproject.toml's dependencies.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_import_surface.py")],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_source_names_neither_library():
    hits = [str(p.relative_to(ROOT)) for p in (ROOT / "src" / "repro").rglob("*.py")
            if "networkx" in (text := p.read_text()) or "scipy" in text]
    assert hits == []
