"""Per-worker cache of built grids: a served job pays for its state and steps.

Jobs of one geometry carry equal :class:`~repro.grid.multigrid.RefinementSpec`
content — a parameter sweep varies the viscosity, which enters no grid.
So each worker process keeps the :class:`~repro.grid.multigrid.MultiGrid`
it built, keyed by :func:`~repro.grid.multigrid.spec_digest` of ``(spec,
lattice)``, and with the grid everything it determines: the engine's
flat index maps (``CompiledLevel.maps``) and the plan-admission verdicts
(``MultiGrid.verdicts``).  What stays per job is what a job mutates or
binds to its own parameters: the populations ``f``, the ghost
accumulators, the stream's scratch, the bodies bound with the job's
relaxation rates and force, and the plan that holds them.

An entry is checked on every hit: the cache records a SHA-256 over every
array of the grid when it builds it and re-hashes them on each lookup; a
mismatch — a poisoned entry — is dropped and rebuilt.  The entries live
in least-recently-used order under a byte budget that prices each
grid's arrays and its maps, read whenever a miss adds an entry (maps are
built by the job that first binds them).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from ..core.lattice import Lattice, get_lattice
from ..grid.multigrid import MultiGrid, RefinementSpec, build_multigrid, spec_digest

__all__ = ["GridCache", "grid_arrays_digest", "grid_nbytes"]


def _grid_arrays(grid: MultiGrid):
    """``(level, name, array)`` of every array the grid compile produced."""
    for cl in grid.levels:
        for obj in (cl, cl.grid):
            for name, a in vars(obj).items():
                if isinstance(a, np.ndarray):
                    yield cl.level, name, a


def grid_arrays_digest(grid: MultiGrid) -> str:
    """SHA-256 over every array of ``grid``: name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for lv, name, a in _grid_arrays(grid):
        h.update(f"{lv}:{name}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.data if a.flags.c_contiguous else a.tobytes())
    return h.hexdigest()


def grid_nbytes(grid: MultiGrid) -> int:
    """Bytes of the grid's arrays and of the index maps built on it."""
    seen: dict[int, int] = {id(a): a.nbytes for _, _, a in _grid_arrays(grid)}
    held = [m for cl in grid.levels for m in cl.maps.values()]
    while held:
        item = held.pop()
        if isinstance(item, tuple):
            held.extend(item)
        elif isinstance(item, np.ndarray):
            seen[id(item)] = item.nbytes
    return sum(seen.values())


class GridCache:
    """Least-recently-used grids of one process, under ``budget_bytes``.

    :meth:`get` returns the grid for a spec and whether it was cached.
    The newest entry is kept even when it alone exceeds the budget: the
    job that asked for it is about to run on it.
    """

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = int(budget_bytes)
        self._entries: OrderedDict[str, tuple[MultiGrid, str]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def nbytes(self) -> int:
        return sum(grid_nbytes(grid) for grid, _ in self._entries.values())

    def get(self, spec: RefinementSpec,
            lattice: Lattice | str) -> tuple[MultiGrid, bool]:
        lat = get_lattice(lattice) if isinstance(lattice, str) else lattice
        key = spec_digest(spec, lat)
        entry = self._entries.pop(key, None)
        if entry is not None:
            grid, witness = entry
            if grid_arrays_digest(grid) == witness:
                self._entries[key] = entry
                return grid, True
            # poisoned: dropped above, rebuilt below
        grid = build_multigrid(spec, lat)
        self._entries[key] = (grid, grid_arrays_digest(grid))
        while len(self._entries) > 1 and self.nbytes() > self.budget_bytes:
            self._entries.popitem(last=False)
        return grid, False
