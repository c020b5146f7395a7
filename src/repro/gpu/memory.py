"""Memory footprint model (paper Section IV-A, Fig. 1 and Section VI-B).

Two accounting paths:

* **exact** — byte counts taken from a compiled :class:`MultiGrid`
  (used for the ghost-layer comparison of Section IV-A and all
  scaled-down experiments);
* **analytic / Monte-Carlo** — per-level voxel counts estimated by
  sampling the refinement shells' signed distance, for paper-scale
  domains (e.g. the 1596x840x840 airplane tunnel) that are too large to
  voxelise here.  Sampling error is ~0.1% at the default sample count,
  far below the 8x level-to-level volume ratios that drive the result.

The uniform-grid comparison implements the AA-method accounting [7]:
a single population buffer, which is the most memory-frugal uniform
layout — the paper's ~794^3 capacity bound for a 40 GB device.

What a grid or an engine holds is walked by :func:`memory_arrays` and
summed by level and family in :func:`memory_ledger`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid.geometry import Shape
from ..grid.multigrid import MultiGrid, compile_arrays
from .device import DeviceSpec

__all__ = [
    "DeviceOOMError", "MemoryReport", "grid_memory_report",
    "memory_arrays", "memory_ledger",
    "uniform_memory_bytes", "uniform_aa_max_cube",
    "mc_level_counts", "refined_memory_bytes",
]


class DeviceOOMError(MemoryError):
    """A (modelled) device allocation does not fit the card.

    Raised by the resilience fault injector to simulate a mid-run
    allocation failure (the way fragmentation or a co-tenant process
    kills long GPU runs in production).  Carries the byte counts so
    recovery policies and reports can show headroom.
    """

    def __init__(self, message: str, *, requested: int = 0,
                 capacity: int = 0) -> None:
        super().__init__(message)
        self.requested = int(requested)
        self.capacity = int(capacity)


@dataclass(frozen=True)
class MemoryReport:
    """Bytes by category for one configuration."""

    populations: int
    ghost_accumulators: int
    ghost_populations: int
    metadata: int

    @property
    def total(self) -> int:
        return (self.populations + self.ghost_accumulators
                + self.ghost_populations + self.metadata)

    def fits(self, device: DeviceSpec) -> bool:
        return self.total <= device.capacity_bytes


def _pop_bytes(n_cells: int, q: int, itemsize: int, buffers: int = 2) -> int:
    return int(n_cells) * q * itemsize * buffers


def grid_memory_report(mgrid: MultiGrid, itemsize: int = 8,
                       scheme: str = "optimized") -> MemoryReport:
    """Exact device memory of a compiled stack under either ghost scheme.

    ``scheme="optimized"`` is the paper's layout (Fig. 4b+): one ghost
    layer on the coarse side holding a Q-component accumulator.
    ``scheme="original"`` is the distributed-era layout (Fig. 4a): four
    fine ghost layers per interface storing full population copies in
    both buffers.
    """
    if scheme not in ("optimized", "original"):
        raise ValueError(f"unknown scheme {scheme!r}")
    q = mgrid.lattice.q
    pops = sum(_pop_bytes(lv.n_owned, q, itemsize) for lv in mgrid.levels)
    meta = sum(sum(lv.grid.metadata_bytes().values()) for lv in mgrid.levels)
    if scheme == "optimized":
        gacc = sum(lv.n_ghost * q * itemsize for lv in mgrid.levels)
        gpop = 0
    else:
        gacc = 0
        gpop = sum(_pop_bytes(lv.fine_ghost_slots.size, q, itemsize)
                   for lv in mgrid.levels)
    return MemoryReport(populations=pops, ghost_accumulators=gacc,
                        ghost_populations=gpop, metadata=meta)


#: The index family of each array the grid compile keeps, by attribute-name
#: prefix (``CompiledLevel`` and its ``BlockSparseGrid``).
_INDEX_PREFIXES = {
    "pull": ("pull_flat",), "cells": ("owned_slots", "ghost_slots", "fine_ghost_slots"),
    "boundary": ("sb_", "mov_", "out_"),
    "explosion": ("exp_", "fg_coarse_rows"), "coalescence": ("coal_",),
    "accumulate": ("acc_",), "blocks": ("block_", "bitmask_words", "_local")}

#: The engine's per-level state, by :class:`~repro.core.engine.LevelBuffers`
#: attribute; its other arrays are the grid's own.
_STATE_FAMILIES = {"f": "populations", "ghost_acc": "ghost_accumulators",
                   "fghost": "fine_ghosts"}


def _family(name: str) -> str:
    return _STATE_FAMILIES.get(name) or next(
        f for f, prefixes in _INDEX_PREFIXES.items() if name.startswith(prefixes))


def _allocation(arr: np.ndarray) -> np.ndarray:
    """The array that owns the memory behind ``arr`` (``arr`` if not a view)."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _arrays(value):
    """Every array in ``value``, nested in tuples (the flat maps' shape)."""
    if isinstance(value, np.ndarray):
        yield value
    for item in value if isinstance(value, tuple) else ():
        yield from _arrays(item)


def memory_arrays(obj):
    """``(level, family, name, array)`` once per allocation that a
    :class:`MultiGrid` or an :class:`~repro.core.engine.Engine` holds.

    Owners in order: the grid compile (the index families of
    ``_INDEX_PREFIXES``),
    the engine's ``LevelBuffers`` (``populations``, ``ghost_accumulators``,
    ``fine_ghosts``), the bodies' scratch (``scratch``: the
    stream's, Accumulate's gather row and sums).  An allocation held
    twice is yielded under its first owner (shared ``pull_flat`` counts
    once, as ``pull``); an empty one, which shares no memory, wherever it
    is held.
    """
    engine = None if isinstance(obj, MultiGrid) else obj
    mgrid = obj if engine is None else engine.mgrid
    held = [(lv, _family(name), name, a) for lv, name, a in compile_arrays(mgrid)]
    held += [(lv, _family(name), name, a) for lv, buf in
             enumerate(engine.levels if engine else ())
             for name, a in vars(buf).items() if isinstance(a, np.ndarray)]
    held += [(lv, "scratch", str(key), a) for lv, scratch in
             enumerate(engine.scratch if engine else ())
             for key, value in scratch.items() for a in _arrays(value)]
    seen: set[int] = set()
    for lv, family, name, a in held:
        memory = _allocation(a)
        if memory.nbytes and id(memory) in seen:
            continue
        seen.add(id(memory))
        yield lv, family, name, a


def memory_ledger(obj) -> dict[tuple[int, str], int]:
    """Bytes per ``(level, family)`` of every allocation
    :func:`memory_arrays` walks on a grid or an engine."""
    out: dict[tuple[int, str], int] = {}
    for lv, family, _, a in memory_arrays(obj):
        out[lv, family] = out.get((lv, family), 0) + _allocation(a).nbytes
    return out


def uniform_memory_bytes(shape: tuple[int, ...], q: int, itemsize: int = 8,
                         buffers: int = 2) -> int:
    """Population bytes of a dense uniform grid (AB: buffers=2, AA: 1)."""
    return _pop_bytes(int(np.prod(shape)), q, itemsize, buffers)


def uniform_aa_max_cube(device: DeviceSpec, q: int = 19, itemsize: int = 4) -> int:
    """Largest cubic uniform domain the AA-method fits on ``device``.

    The paper quotes ~794^3 for a 40 GB card with D3Q19 (Section VI-B);
    that bound corresponds to single-precision populations
    (794^3 * 19 * 4 B = 38 GB), hence the fp32 default here.
    """
    cells = device.capacity_bytes / (q * itemsize)
    return int(np.floor(cells ** (1.0 / 3.0)))


# -- Monte-Carlo estimates for paper-scale domains ---------------------------

def mc_level_counts(obstacle: Shape, base_shape: tuple[int, ...],
                    widths: list[float], samples: int = 2_000_000,
                    seed: int = 7) -> dict[str, list[int]]:
    """Per-level voxel counts of a shell-refined domain, by sampling.

    Levels follow :func:`repro.grid.geometry.shell_refinement`: resolution
    is at least ``k+1`` within distance ``widths[k]`` of the obstacle.
    Returns, per level: ``owned`` voxel counts (solid excluded on the
    finest level), ``ghost`` (the optimized scheme's one-coarse-layer
    count) and ``fine_ghost`` (the original scheme's four-fine-layer
    count).
    """
    d = len(base_shape)
    num_levels = len(widths) + 1
    rng = np.random.default_rng(seed)
    pts = rng.random((samples, d)) * np.asarray(base_shape, dtype=np.float64)
    dist = obstacle.sdf(pts)
    domain_cells = float(np.prod(base_shape))

    def frac(mask: np.ndarray) -> float:
        return float(np.count_nonzero(mask)) / samples

    owned, ghost, fine_ghost = [], [], []
    bounds = [np.inf] + list(widths) + [-np.inf]  # level k: bounds[k+1] <= d < bounds[k]
    for lv in range(num_levels):
        cells_at_level = domain_cells * (2 ** (lv * d))
        lo, hi = bounds[lv + 1], bounds[lv]
        own = (dist >= lo) & (dist < hi)
        if lv == num_levels - 1:
            own &= dist >= 0.0  # solid obstacle excluded from the fluid
        owned.append(int(frac(own) * cells_at_level))
        # optimized ghost: one level-lv layer just inside the finer region
        if lv < num_levels - 1:
            h = 2.0 ** (-lv)
            band = (dist < lo) & (dist >= lo - h)
            ghost.append(int(frac(band) * cells_at_level))
        else:
            ghost.append(0)
        # original ghost: four level-lv layers just outside the owned region
        if lv > 0:
            h = 2.0 ** (-lv)
            band = (dist >= hi) & (dist < hi + 4.0 * h)
            fine_ghost.append(int(frac(band) * cells_at_level))
        else:
            fine_ghost.append(0)
    return {"owned": owned, "ghost": ghost, "fine_ghost": fine_ghost}


def refined_memory_bytes(counts: dict[str, list[int]], q: int,
                         itemsize: int = 8, scheme: str = "optimized",
                         metadata_fraction: float = 0.01) -> MemoryReport:
    """Analytic memory of a refined domain from per-level voxel counts.

    ``metadata_fraction`` approximates bitmasks/neighbour tables, which
    the exact accounting shows to be ~1% of the population storage.
    """
    pops = sum(_pop_bytes(n, q, itemsize) for n in counts["owned"])
    if scheme == "optimized":
        gacc = sum(n * q * itemsize for n in counts["ghost"])
        gpop = 0
    elif scheme == "original":
        gacc = 0
        gpop = sum(_pop_bytes(n, q, itemsize) for n in counts["fine_ghost"])
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return MemoryReport(populations=pops, ghost_accumulators=gacc,
                        ghost_populations=gpop,
                        metadata=int(metadata_fraction * pops))
