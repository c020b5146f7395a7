#!/usr/bin/env python
"""Import-surface check (stdlib only): NumPy is the package's only import.

Imports every entry package of ``repro`` in this fresh process and
fails, naming the module, if that pulled in a top-level module outside
the standard library, ``numpy`` and ``repro``; also pins the module
count (a transitive import of a large library shows there first) and
``pyproject.toml``'s ``dependencies``.  Run by
``tests/test_import_surface.py`` in tier-1 and, with nothing but the
package installed, by the workflow's ``minimal-install`` job.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import re
import sys

PACKAGES = ("repro", "repro.serve", "repro.analysis", "repro.obs",
            "repro.backend.mp", "repro.cli")
ALLOWED = {"numpy", "repro"}
DEPENDENCIES = ["numpy>=1.24"]
MAX_MODULES = 400


def main() -> int:
    before = set(sys.modules)  # whatever site / .pth hooks loaded
    for name in PACKAGES:
        importlib.import_module(name)
    top = {m.partition(".")[0] for m in set(sys.modules) - before}
    problems = [f"importing repro loads third-party module {m!r}"
                for m in sorted(top - ALLOWED - sys.stdlib_module_names)]
    if len(sys.modules) >= MAX_MODULES:
        problems.append(f"{len(sys.modules)} modules loaded, "
                        f"expected fewer than {MAX_MODULES}")
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    found = re.search(r"^dependencies = (\[.*\])$", pyproject.read_text(), re.M)
    if found is None or json.loads(found.group(1)) != DEPENDENCIES:
        problems.append(f"pyproject.toml dependencies are not {DEPENDENCIES}")
    for p in problems:
        print("import-surface:", p)
    print(f"import-surface: {len(sys.modules)} modules, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
