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


def test_public_names_are_unique():
    # One public name is one object: a name exported by ``repro`` and by
    # any of its subpackages must be the same class or function
    # everywhere, never two different things under one name.
    import importlib
    import pkgutil

    import repro
    packages = [repro] + [
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__) if info.ispkg]
    owners: dict[str, dict[int, list[str]]] = {}
    for pkg in packages:
        for name in pkg.__all__:
            obj = getattr(pkg, name)
            owners.setdefault(name, {}).setdefault(id(obj), []).append(
                pkg.__name__)
    clashes = {name: sorted(p for ps in by_obj.values() for p in ps)
               for name, by_obj in owners.items() if len(by_obj) > 1}
    assert clashes == {}
