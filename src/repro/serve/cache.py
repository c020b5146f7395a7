"""Per-worker cache of built grids: a served job pays for its state and steps.

Jobs of one geometry carry equal :class:`~repro.grid.multigrid.RefinementSpec`
content — a parameter sweep varies the viscosity, which enters no grid.
So each worker process keeps the :class:`~repro.grid.multigrid.MultiGrid`
it built, keyed by :func:`~repro.grid.multigrid.spec_digest` of ``(spec,
lattice)``, and with the grid everything it determines: the flat index
maps the kernel bodies read (the compile's) and the plan-admission
verdicts (``MultiGrid.verdicts``).  What stays per job is what a job
mutates or binds to its own parameters: the populations ``f``, the ghost
accumulators, the stream's scratch, the bodies bound with the job's
relaxation rates and force, and the plan that holds them.

An entry is checked on every hit: the cache records the grid's
:func:`~repro.grid.multigrid.grid_arrays_digest` when it builds it and
re-hashes on each lookup; a mismatch — a poisoned entry — is dropped and
rebuilt.  The entries live in least-recently-used order under a byte
budget, priced by :func:`~repro.gpu.memory.memory_ledger` (the grid's
arrays) whenever a miss adds an entry.
"""

from __future__ import annotations

from collections import OrderedDict

from ..core.lattice import get_lattice
from ..gpu.memory import memory_ledger
from ..grid.multigrid import (MultiGrid, RefinementSpec, build_multigrid,
                              grid_arrays_digest, spec_digest)

__all__ = ["GridCache"]


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
        return sum(sum(memory_ledger(grid).values())
                   for grid, _ in self._entries.values())

    def get(self, spec: RefinementSpec, lattice: str) -> tuple[MultiGrid, bool]:
        key = spec_digest(spec, lattice)
        entry = self._entries.pop(key, None)
        if entry is not None:
            grid, witness = entry
            if grid_arrays_digest(grid) == witness:
                self._entries[key] = entry
                return grid, True
            # poisoned: dropped above, rebuilt below
        grid = build_multigrid(spec, get_lattice(lattice))
        self._entries[key] = (grid, grid_arrays_digest(grid))
        while len(self._entries) > 1 and self.nbytes() > self.budget_bytes:
            self._entries.popitem(last=False)
        return grid, False
