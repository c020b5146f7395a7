"""Execution engine: state buffers and the one body of every kernel.

The engine owns, per level, the two population buffers (``f`` holds the
post-streaming state at the start of a substep, ``fstar`` the
post-collision state), both ``(Q, n_owned)``, and the ghost-layer
accumulator, plus every streaming map in compact *row* space: rows
``0..n_owned-1`` are the owned cells.  The original baseline's (Fig. 4a)
fine-ghost populations live in a third buffer, ``fghost``, allocated only
for that layout (:meth:`Engine.allocate_fghost`); its rows keep the
numbers ``n_owned..n_used-1`` in the maps and access reports.  The pull
table is the grid's own array, shared: one flat ``fstar`` entry
``q_src * n_owned + row`` per ``(q, owned cell)`` with the bounce-back,
moving-wall and slip links already in it, so Streaming is one gather per
direction.  Accumulate adds into the parent's ghost bins only what
Coalescence reads there; the other bins stay zero.  Between coarse steps
``f`` is the whole state: ``fstar`` and ``fghost`` are rewritten before
they are read, ``ghost_acc`` is zero.
Each ``op_*`` method is one GPU kernel: it emits one launch record with
the DRAM traffic the equivalent CUDA kernel would generate — this is what
the cost model consumes — and hands the runtime a handle of the kernel's
body.

This module is the only place a kernel body is written.  The ``_collide``
/ ``_accumulate`` / ``_stream`` / ``_explode`` / ``_coalesce`` /
``_explosion_copy`` builders each return the vectorised NumPy closure of
one primitive with its access report beside it; the launch path, every
step plan (serial, thread waves) and every mp worker bind and run those
closures (:mod:`repro.backend`), and access capture checks them.
Collide and the streaming gathers run a large level as column ranges on
every usable CPU (:meth:`Engine.split_cuts`), bit-identically.

Fused kernels execute the same arithmetic as their unfused sequence (the
intermediate lives in the ``fstar`` buffer, playing the role of the GPU's
registers), so every fusion variant is bitwise-identical in results and
differs only in its launch/traffic trace — mirroring how kernel fusion
works on the device, where it eliminates intermediate DRAM round-trips
but not arithmetic.  What a body saves over the textbook form it saves
fused or not: values it would move and nobody would read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid.multigrid import CompiledLevel, MultiGrid
from ..neon.executor import run_split, usable_cpus
from ..neon.runtime import FieldRef, KernelBody, LazyBody, Runtime
from .collision import (TILE_BUDGET_BYTES, CollisionModel, equilibrium,
                        macroscopics, make_collision)
from .units import omega_at_level

__all__ = ["Engine", "LevelBuffers", "SPLIT_MIN_BYTES"]

#: Population bytes each part of a split collide / stream body must hold
#: (the sweep behind the value: EXPERIMENTS.md, "Cell-range split").
SPLIT_MIN_BYTES = 1 << 20


@dataclass
class LevelBuffers:
    """Per-level state and row-space maps."""

    f: np.ndarray                 # (Q, n_owned) post-streaming populations
    fstar: np.ndarray             # (Q, n_owned) post-collision populations
    ghost_acc: np.ndarray         # (Q, n_ghost) Accumulate sums
    n_owned: int
    n_used: int                   # n_owned + fine ghosts: rows the reports number
    pull_flat: np.ndarray         # (Q, n_owned) flat fstar entries: the grid's table
    mov_q: np.ndarray; mov_cell: np.ndarray; mov_term: np.ndarray
    out_q: np.ndarray; out_cell: np.ndarray; out_val: np.ndarray
    sb_q: np.ndarray; sb_cell: np.ndarray; sb_opp: np.ndarray; sb_e: np.ndarray
    exp_q: np.ndarray; exp_cell: np.ndarray; exp_rows: np.ndarray
    exp_ghost_rows: np.ndarray
    coal_q: np.ndarray; coal_cell: np.ndarray; coal_src: np.ndarray
    acc_fine_rows: np.ndarray     # rows in the FINER level's buffers
    acc_ghost_rows: np.ndarray
    acc_live: np.ndarray          # (Q, n_ghost) bool: the bins Coalescence reads
    n_acc: int                    # (q, child) entries Accumulate adds into them
    fg_rows: np.ndarray           # this level's fine-ghost rows (4a)
    fg_coarse_rows: np.ndarray    # rows in the coarser level's buffers
    meta_bytes: int               # per-pass structural metadata traffic
    n_exp_cells: int              # distinct owned cells the E kernel writes
    n_coal_cells: int             # distinct owned cells the O kernel writes
    #: (Q, n_used - n_owned) fine-ghost populations, row ``r`` at column
    #: ``r - n_owned``; ``None`` unless the 4a layout runs on this engine.
    fghost: np.ndarray | None = None


class Engine:
    """Functional executor for one compiled multigrid."""

    def __init__(self, mgrid: MultiGrid, collision: CollisionModel | str = "bgk",
                 omega0: float = 1.0, runtime: Runtime | None = None,
                 force=None) -> None:
        self.mgrid = mgrid
        #: bytes per stored population value: populations are float64
        self.itemsize = 8
        self.lat = mgrid.lattice
        self.collision = (make_collision(collision, self.lat)
                          if isinstance(collision, str) else collision)
        if self.collision.lattice is not self.lat:
            raise ValueError("collision model built for a different lattice")
        self.rt = runtime if runtime is not None else Runtime()
        self.omega = [omega_at_level(omega0, lv) for lv in range(mgrid.num_levels)]
        # Body-force density in coarse lattice units; on level L the
        # acceleration scales with dt_L^2/dx_L = 2^-L under acoustic scaling.
        if force is None:
            self.force = [None] * mgrid.num_levels
        else:
            f0 = np.asarray(force, dtype=np.float64)
            if f0.shape != (mgrid.d,):
                raise ValueError(f"force must have shape ({mgrid.d},)")
            self.force = [f0 * 0.5 ** lv for lv in range(mgrid.num_levels)]
        #: 1 / (2 * 2^d): the Coalescence average over 2^d children x 2 substeps.
        self.inv_navg = 1.0 / (2.0 * 2 ** mgrid.d)
        #: Bumped whenever engine state is mutated outside the step path
        #: (checkpoint restore); compiled step plans key their cache on it
        #: so a stale plan is never replayed against replaced buffers.
        self.state_epoch = 0
        #: Most parts of a split body (mp workers, sharded already, set 1).
        self.split_width = usable_cpus()
        self.levels = [self._build_level(cl) for cl in mgrid.levels]
        self._link_levels()
        #: Per level, the flat index maps the kernel bodies share, built
        #: by the first body that needs them (see :meth:`_map`).
        self._maps: list[dict] = [{} for _ in self.levels]

    # -- setup ----------------------------------------------------------------
    def _build_level(self, cl: CompiledLevel) -> LevelBuffers:
        lat = self.lat
        Q = lat.q
        row_of_slot = cl.row_of_slot()
        acc_live = np.zeros((Q, cl.n_ghost), dtype=bool)
        acc_live[cl.coal_q, cl.coal_src] = True
        grid_meta = sum(cl.grid.metadata_bytes().values())
        return LevelBuffers(
            f=np.zeros((Q, cl.n_owned)),
            fstar=np.zeros((Q, cl.n_owned)),
            ghost_acc=np.zeros((Q, cl.n_ghost)),
            n_owned=cl.n_owned, n_used=cl.n_owned + cl.fine_ghost_slots.size,
            pull_flat=cl.pull_flat,
            mov_q=cl.mov_q, mov_cell=cl.mov_cell, mov_term=cl.mov_term,
            out_q=cl.out_q, out_cell=cl.out_cell, out_val=cl.out_val,
            sb_q=cl.sb_q, sb_cell=cl.sb_cell, sb_opp=lat.opp[cl.sb_q],
            sb_e=lat.ef[lat.opp[cl.sb_q]],
            exp_q=cl.exp_q, exp_cell=cl.exp_cell, exp_rows=np.empty(0, dtype=np.int64),
            exp_ghost_rows=row_of_slot[cl.exp_ghost_src] if cl.exp_ghost_src.size
            else cl.exp_ghost_src,
            coal_q=cl.coal_q, coal_cell=cl.coal_cell, coal_src=cl.coal_src,
            acc_fine_rows=np.empty(0, dtype=np.int64),
            acc_ghost_rows=cl.acc_ghost_rows, acc_live=acc_live,
            n_acc=int(acc_live.sum(axis=0)[cl.acc_ghost_rows].sum()),
            fg_rows=row_of_slot[cl.fg_slots] if cl.fg_slots.size else cl.fg_slots,
            fg_coarse_rows=np.empty(0, dtype=np.int64),
            meta_bytes=grid_meta,
            n_exp_cells=cl.n_interface_fine, n_coal_cells=cl.n_interface_coarse,
        )

    def _link_levels(self) -> None:
        """Resolve cross-level row references (needs all levels built)."""
        for lv, (cl, buf) in enumerate(zip(self.mgrid.levels, self.levels)):
            if lv > 0:
                coarse_cl = self.mgrid.levels[lv - 1]
                coarse_rows = np.full(coarse_cl.n_alloc, -1, dtype=np.int64)
                coarse_rows[coarse_cl.owned_slots] = np.arange(coarse_cl.n_owned)
                buf.exp_rows = coarse_rows[cl.exp_src] if cl.exp_src.size else cl.exp_src
                if cl.fg_coarse_src.size:
                    buf.fg_coarse_rows = coarse_rows[cl.fg_coarse_src]
                if buf.exp_rows.size and (buf.exp_rows < 0).any():
                    raise AssertionError("explosion source is not an owned coarse cell")
            if lv < self.mgrid.num_levels - 1 and cl.acc_fine_slots.size:
                fine_cl = self.mgrid.levels[lv + 1]
                fine_rows = np.full(fine_cl.n_alloc, -1, dtype=np.int64)
                fine_rows[fine_cl.owned_slots] = np.arange(fine_cl.n_owned)
                buf.acc_fine_rows = fine_rows[cl.acc_fine_slots]
                if (buf.acc_fine_rows < 0).any():
                    raise AssertionError("accumulate source is not an owned fine cell")

    def allocate_fghost(self) -> None:
        """Give every level with fine ghosts its ``fghost`` buffer.

        Only the original baseline (Fig. 4a) addresses fine ghosts — its
        Explosion copy writes them, its Explode reads them — so only a
        stepper running that layout calls this, at construction: before
        anything lays out state (the mp backend's shared segment holds
        the buffers it finds).  Idempotent.
        """
        for buf in self.levels:
            if buf.fghost is None and buf.n_used > buf.n_owned:
                buf.fghost = np.zeros((self.lat.q, buf.n_used - buf.n_owned))

    def _fghost(self, lv: int) -> np.ndarray:
        fghost = self.levels[lv].fghost
        if fghost is None:
            raise RuntimeError(f"level {lv} has no fghost: only the 4a layout "
                               f"addresses fine ghosts (Engine.allocate_fghost)")
        return fghost

    def positions(self, lv: int) -> np.ndarray:
        """Owned-cell coordinates of level ``lv``, in that level's units.

        Computed from the grid on each call: the readers (callable
        initial conditions, sampling, regridding, the watchdog's report)
        are off the step path, and a stored copy would be ``8 * d`` bytes
        per owned cell for the whole run.
        """
        cl = self.mgrid.levels[lv]
        return cl.grid.cell_positions()[cl.owned_slots]

    def initialize(self, rho: float | np.ndarray = 1.0, u=None) -> None:
        """Set every level to the local equilibrium of (rho, u).

        ``u`` may be ``None`` (fluid at rest), a length-``d`` vector, or a
        callable mapping cell-centre positions (in coarse units, ``(N, d)``)
        to velocities ``(d, N)``.
        """
        d = self.mgrid.d
        for lv, buf in enumerate(self.levels):
            n = buf.n_owned
            rr = np.full(n, rho, dtype=np.float64) if np.isscalar(rho) else rho
            if u is None:
                uu = np.zeros((d, n))
            elif callable(u):
                centers = (self.positions(lv) + 0.5) * 2.0 ** (-lv)
                uu = np.asarray(u(centers), dtype=np.float64)
            else:
                uu = np.broadcast_to(np.asarray(u, dtype=np.float64)[:, None], (d, n)).copy()
            equilibrium(self.lat, rr, uu, out=buf.f)
            buf.fstar[:] = buf.f
            buf.ghost_acc[:] = 0.0

    # -- access reports --------------------------------------------------------
    @staticmethod
    def _span(rows: np.ndarray) -> tuple[int, int]:
        """Half-open interval bounding the rows an index array touches."""
        if rows.size == 0:
            return (0, 0)
        return (int(rows.min()), int(rows.max()) + 1)

    # -- index maps ------------------------------------------------------------
    def _map(self, lv: int, key, make):
        """Level ``lv``'s flat index map ``key``, built on first use.

        The maps flatten 2-D ``(q, row)`` addressing into 1-D indices
        over the contiguous buffers — stride ``n_owned`` in ``f`` and
        ``fstar``, ``n_ghost`` in ``ghost_acc``, the fine-ghost count in
        ``fghost`` — so a body is one gather/scatter instead of a per-``q``
        loop.  They
        depend on the level geometry alone and are shared by every body
        bound on this engine.
        """
        maps = self._maps[lv]
        got = maps.get(key)
        if got is None:
            got = maps[key] = make()
        return got

    def _pull_flat(self, lv: int) -> np.ndarray:
        """The pull table, bounds-proven and frozen.

        The stream body gathers with ``mode="clip"`` (NumPy buffers an
        ``out=`` gather it may have to abandon with an ``IndexError``),
        so the check it skips is made here, once per array (a replaced
        ``pull_flat`` is proven again); freezing the array keeps it true.
        """
        table = self.levels[lv].pull_flat
        if self._maps[lv].get("pull") is not table:
            size = self.lat.q * self.levels[lv].n_owned
            if table.size and (table.min() < 0 or table.max() >= size):
                raise IndexError(
                    f"level {lv}: pull table entries leave [0, {size}): "
                    f"min {table.min()}, max {table.max()}")
            table.setflags(write=False)
            self._maps[lv]["pull"] = table
        return table

    def split_cuts(self, lv: int) -> list[int]:
        """Column cuts ``[0, ..., n_owned]`` of level ``lv``'s split bodies:
        at most :attr:`split_width` parts of :data:`SPLIT_MIN_BYTES` or
        more, inner cuts on multiples of 64 columns (the GEMM unit)."""
        n = self.levels[lv].n_owned
        parts = self.split_width
        while parts > 1 and self.lat.q * self.itemsize * n < parts * SPLIT_MIN_BYTES:
            parts -= 1
        blocks = -(-n // 64)
        inner = {64 * (blocks * k // parts) for k in range(1, parts)}
        return [0, *sorted(c for c in inner if 0 < c < n), n]

    # -- kernel bodies ---------------------------------------------------------
    # The one implementation of each kernel.  A builder resolves buffer
    # views and index maps and returns ``(run, report)``: ``run()`` is the
    # arithmetic, ``report(tracer)`` states the accesses it performs.
    # Builders return ``None`` where the geometry leaves nothing to do.
    # Views are taken at bind time and never kept on the engine: the mp
    # backend rebinds ``buf.f`` / ``fstar`` / ``fghost`` / ``ghost_acc`` to
    # shared memory and back, and a body bound afterwards must see those arrays.
    def _fuse(self, *parts, registers: tuple[FieldRef, ...] = ()) -> KernelBody:
        """One kernel body running ``parts`` in order (``None`` parts dropped).

        Fusion regroups bodies without touching their arithmetic.  Under
        access capture the body first reports its parts' accesses;
        ``registers`` are fields the fused kernel keeps on chip, whose
        accesses are invisible to DRAM and to the declarations.
        """
        parts = tuple(p for p in parts if p)
        runs = tuple(run for run, _ in parts)
        if len(runs) == 1:
            run = runs[0]
        else:
            def run() -> None:
                for part in runs:
                    part()
        t = self.rt.tracer
        if t is None:
            return run

        def traced() -> None:
            with t.suppress(*registers):
                for _, report in parts:
                    report(t)
            run()
        return traced

    def collide_columns(self, lv: int, lo: int, hi: int, omega: float, force,
                        budget: int = TILE_BUDGET_BYTES) -> KernelBody:
        """Collide columns ``[lo, hi)`` of level ``lv`` (a split part, an mp shard)."""
        buf = self.levels[lv]
        collide = self.collision.collide
        f, out = buf.f[:, lo:hi], buf.fstar[:, lo:hi]

        def run() -> None:
            collide(f, omega, out=out, force=force, budget=budget)
        return run

    def _collide(self, lv: int, omega: float, force):
        n = self.levels[lv].n_owned
        cuts = self.split_cuts(lv)
        # the parts share one tile budget: a split adds no scratch
        budget = TILE_BUDGET_BYTES // (len(cuts) - 1)
        parts = [self.collide_columns(lv, lo, hi, omega, force, budget)
                 for lo, hi in zip(cuts, cuts[1:])]
        run = parts[0] if len(parts) == 1 else lambda: run_split(parts)

        def report(t) -> None:
            nb = self.lat.q * self.itemsize * n
            t.read(FieldRef("f", lv), 0, n, nb)
            t.write(FieldRef("fstar", lv), 0, n, nb)
        return run, report

    def _accumulate(self, lv: int, mode: str):
        """Add level ``lv``'s fresh post-collision values into its parent's ghosts.

        One flat ``bincount`` over ``q``-offset bins, fed the entries
        whose bin the parent's Coalescence reads (``acc_live``) and no
        others: contributions to such a bin keep the order of the
        per-``q`` sums, so the float accumulation order is the textbook
        one, and a bin nobody reads stays 0.  ``mode`` selects the
        traffic attribution of the equivalent GPU kernel: ``"fused"``
        (Collision+Accumulate — the source values sit in registers, the
        scatter is atomic), ``"scatter"`` (standalone fine-initiated
        atomic scatter) or ``"gather"`` (the original baseline's
        coarse-initiated gather, launched over ghost cells).  The
        arithmetic is identical in all three.
        """
        parent, fine = self.levels[lv - 1], self.levels[lv]
        if parent.acc_ghost_rows.size == 0:
            return None
        Q, ng = self.lat.q, parent.ghost_acc.shape[1]

        def live_entries():
            # per q, the children whose bin is read: a sub-sequence of
            # the textbook's q-major (Q * m) entry list, never built
            keep = [np.flatnonzero(live.take(parent.acc_ghost_rows))
                    for live in parent.acc_live]

            def flat(stride, rows):
                return np.concatenate([q * stride + rows.take(k)
                                       for q, k in enumerate(keep)])
            return (flat(ng, parent.acc_ghost_rows),
                    flat(fine.n_owned, parent.acc_fine_rows))
        rows_flat, src_flat = self._map(lv, "acc", live_entries)
        gacc_flat, fstar_flat = parent.ghost_acc.reshape(-1), fine.fstar.reshape(-1)
        minlength = Q * ng
        bincount = np.bincount

        def run() -> None:
            gacc_flat[:] += bincount(rows_flat, weights=fstar_flat[src_flat],
                                     minlength=minlength)

        def report(t) -> None:
            i, nb = self.itemsize, self.itemsize * src_flat.size
            flo, fhi = self._span(parent.acc_fine_rows)
            glo, ghi = self._span(parent.acc_ghost_rows)
            t.read(FieldRef("fstar", lv), flo, fhi, 0 if mode == "fused" else nb)
            if mode == "gather":
                t.read(FieldRef("gacc", lv - 1), 0, ng, Q * i * ng)
                t.write(FieldRef("gacc", lv - 1), 0, ng, Q * i * ng)
            else:
                if mode == "scatter":
                    t.read(FieldRef("gacc", lv - 1), 0, ng, Q * i * ng)
                t.atomic(FieldRef("gacc", lv - 1), glo, ghi, nb)
        return run, report

    def _stream(self, lv: int):
        """One gather per direction through the pull table — interior,
        bounce-back and slip links alike — then the moving-wall momentum
        and the outflow values (one kernel on the GPU)."""
        b = self.levels[lv]
        Q, n = self.lat.q, b.n_owned
        f_flat, fstar_flat = b.f.reshape(-1), b.fstar.reshape(-1)
        table = self._pull_flat(lv)
        mov, out = self._map(lv, "walls", lambda: (
            (b.mov_q * n + b.mov_cell, b.mov_term) if b.mov_q.size else None,
            (b.out_q * n + b.out_cell, b.out_val) if b.out_q.size else None))
        take = np.take

        def gather(lo: int, hi: int) -> KernelBody:
            pulls = [(idx[lo:hi], dst[lo:hi]) for idx, dst in zip(table, b.f)]

            def part() -> None:
                for idx, dst in pulls:
                    take(fstar_flat, idx, out=dst, mode="clip")
            return part
        cuts = self.split_cuts(lv)
        parts = [gather(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        pull = parts[0] if len(parts) == 1 else lambda: run_split(parts)

        def run() -> None:
            pull()
            # the wall and outflow fix-ups index cells of every part
            if mov is not None:
                f_flat[mov[0]] += mov[1]
            if out is not None:
                f_flat[out[0]] = out[1]

        def report(t) -> None:
            nb = Q * self.itemsize * n
            t.read(FieldRef("fstar", lv), *self._span(b.pull_flat % n), nb)
            t.write(FieldRef("f", lv), 0, n, nb)
            t.meta(b.meta_bytes)
        return run, report

    def _explode(self, lv: int, from_ghost: bool, subsumed: bool = False):
        """Write the cross-level pulls of ``f`` from the coarse ``fstar``
        (or, ``from_ghost``, from this level's fine-ghost copies of it)."""
        b = self.levels[lv]
        if b.exp_q.size == 0:
            return None
        if from_ghost:
            source, src_rows = self._fghost(lv), b.exp_ghost_rows - b.n_owned
        else:
            source, src_rows = self.levels[lv - 1].fstar, b.exp_rows
        dst, src = self._map(lv, ("exp", from_ghost), lambda: (
            b.exp_q * b.n_owned + b.exp_cell,
            b.exp_q * source.shape[1] + src_rows))
        f_flat, src_flat = b.f.reshape(-1), source.reshape(-1)

        def run() -> None:
            f_flat[dst] = src_flat[src]

        def report(t) -> None:
            nb = self.itemsize * b.exp_q.size
            lo, hi = self._span(b.exp_ghost_rows if from_ghost else b.exp_rows)
            t.read(FieldRef("fghost", lv) if from_ghost
                   else FieldRef("fstar", lv - 1), lo, hi, nb)
            lo, hi = self._span(b.exp_cell)
            # fused into streaming, the write lands on entries the bulk
            # pull already paid for — no extra traffic
            t.write(FieldRef("f", lv), lo, hi, 0 if subsumed else nb)
        return run, report

    def _coalesce(self, lv: int, subsumed: bool = False):
        """Average the accumulated ghosts into ``f``, then reset them."""
        b = self.levels[lv]
        ng = b.ghost_acc.shape[1]
        dst, src = self._map(lv, "coal", lambda: (
            b.coal_q * b.n_owned + b.coal_cell, b.coal_q * ng + b.coal_src))
        inv_navg = self.inv_navg
        gacc, f_flat = b.ghost_acc, b.f.reshape(-1)
        gacc_flat = gacc.reshape(-1)

        def run() -> None:
            f_flat[dst] = gacc_flat[src] * inv_navg
            gacc.fill(0.0)

        def report(t) -> None:
            nb = self.itemsize * b.coal_q.size
            lo, hi = self._span(b.coal_src)
            t.read(FieldRef("gacc", lv), lo, hi, nb)
            lo, hi = self._span(b.coal_cell)
            t.write(FieldRef("f", lv), lo, hi, 0 if subsumed else nb)
            t.write(FieldRef("gacc", lv), 0, ng, self.itemsize * gacc.size)
        return run, report

    def _explosion_copy(self, lv: int):
        """Original baseline: mirror coarse post-collision state into fine ghosts."""
        b, fghost = self.levels[lv], self._fghost(lv)
        coarse = self.levels[lv - 1]
        q = np.arange(self.lat.q, dtype=np.int64)[:, None]
        dst, src = self._map(lv, "copy", lambda: (
            (q * fghost.shape[1] + (b.fg_rows - b.n_owned)).reshape(-1),
            (q * coarse.n_owned + b.fg_coarse_rows).reshape(-1)))
        fghost_flat, coarse_flat = fghost.reshape(-1), coarse.fstar.reshape(-1)

        def run() -> None:
            fghost_flat[dst] = coarse_flat[src]

        def report(t) -> None:
            nb = self.lat.q * self.itemsize * b.fg_rows.size
            lo, hi = self._span(b.fg_coarse_rows)
            t.read(FieldRef("fstar", lv - 1), lo, hi, nb)
            lo, hi = self._span(b.fg_rows)
            t.write(FieldRef("fghost", lv), lo, hi, nb)
        return run, report

    # -- public ops: one launch record each -------------------------------------
    # ``fn=`` is a :class:`~repro.neon.runtime.LazyBody`: declaring a launch
    # builds nothing, so plan-only capture stays free.  Its builder closes
    # over the launch-time inputs (relaxation rate, force, fusion flags): a
    # launch sees the configuration it was issued with, whenever it is bound.
    def op_collide(self, lv: int, fuse_accumulate: bool = False) -> None:
        buf = self.levels[lv]
        Q, n = self.lat.q, buf.n_owned
        writes: tuple[FieldRef, ...] = (FieldRef("fstar", lv),)
        atomic = 0
        name = "C"
        fused = fuse_accumulate and lv > 0
        if fused and self.levels[lv - 1].acc_fine_rows.size:
            name = "CA"
            writes = writes + (FieldRef("gacc", lv - 1),)
            atomic = self.itemsize * self.levels[lv - 1].n_acc
        omega, force = self.omega[lv], self.force[lv]
        self.rt.launch(name, lv, n_cells=n,
                       bytes_read=Q * self.itemsize * n,
                       bytes_written=Q * self.itemsize * n + atomic,
                       atomic_bytes=atomic, reads=(FieldRef("f", lv),),
                       writes=writes,
                       fn=LazyBody(lambda: self._fuse(
                           self._collide(lv, omega, force),
                           fused and self._accumulate(lv, "fused"))))

    def op_accumulate(self, lv: int, gather: bool = False) -> None:
        """Separate Accumulate kernel: fine level ``lv`` into parent ghosts.

        ``gather=True`` models the original baseline's coarse-initiated
        gather (launched over ghost cells, no atomics); ``False`` the
        modified baseline's fine-initiated atomic scatter.
        """
        if lv == 0:
            raise ValueError("level 0 has no parent to accumulate into")
        parent = self.levels[lv - 1]
        m = parent.acc_fine_rows.size
        if m == 0:
            return
        ng = parent.ghost_acc.shape[1]
        moved, gacc = self.itemsize * parent.n_acc, self.itemsize * parent.ghost_acc.size
        self.rt.launch(
            "A", lv,
            n_cells=(ng if gather else m),
            bytes_read=moved + gacc,
            bytes_written=gacc if gather else moved,
            atomic_bytes=0 if gather else moved,
            reads=(FieldRef("fstar", lv), FieldRef("gacc", lv - 1)),
            writes=(FieldRef("gacc", lv - 1),),
            fn=LazyBody(lambda: self._fuse(self._accumulate(
                lv, "gather" if gather else "scatter"))))

    def op_explosion_copy(self, lv: int) -> None:
        """Original baseline's Explosion: coarse f* copied into fine ghost layers."""
        buf = self.levels[lv]
        nfg = buf.fg_rows.size
        if nfg == 0:
            return
        Q = self.lat.q
        self.rt.launch(
            "E", lv, n_cells=nfg,
            bytes_read=Q * self.itemsize * nfg, bytes_written=Q * self.itemsize * nfg,
            reads=(FieldRef("fstar", lv - 1),), writes=(FieldRef("fghost", lv),),
            fn=LazyBody(lambda: self._fuse(self._explosion_copy(lv))))

    def op_stream(self, lv: int, *, fuse_explosion: bool = False,
                  fuse_coalescence: bool = False, exp_from_ghost: bool = False) -> None:
        """Streaming kernel, optionally fused with Explosion and/or Coalescence."""
        buf = self.levels[lv]
        Q, n = self.lat.q, buf.n_owned
        name = "S"
        reads = [FieldRef("fstar", lv)]
        writes = [FieldRef("f", lv)]
        br = Q * self.itemsize * n + buf.meta_bytes
        bw = Q * self.itemsize * n
        do_exp = fuse_explosion and buf.exp_q.size > 0
        do_coal = fuse_coalescence and buf.coal_q.size > 0
        if do_exp:
            name = name + "E"
            reads.append(FieldRef("fghost", lv) if exp_from_ghost
                         else FieldRef("fstar", lv - 1))
            br += self.itemsize * buf.exp_q.size
        if do_coal:
            name = ("SEO" if do_exp else "SO")
            reads.append(FieldRef("gacc", lv))
            writes.append(FieldRef("gacc", lv))
            br += self.itemsize * buf.coal_q.size
            bw += self.itemsize * buf.ghost_acc.size  # reset
        self.rt.launch(name, lv, n_cells=n, bytes_read=br, bytes_written=bw,
                       reads=tuple(reads), writes=tuple(writes),
                       fn=LazyBody(lambda: self._fuse(
                           self._stream(lv),
                           do_exp and self._explode(lv, exp_from_ghost, subsumed=True),
                           do_coal and self._coalesce(lv, subsumed=True))))

    def op_explode(self, lv: int, exp_from_ghost: bool = False) -> None:
        """Separate Explosion kernel writing the cross-level pulls of ``f``."""
        buf = self.levels[lv]
        m = buf.exp_q.size
        if m == 0:
            return
        self.rt.launch(
            "E", lv, n_cells=buf.n_exp_cells,
            bytes_read=self.itemsize * m, bytes_written=self.itemsize * m,
            reads=(FieldRef("fghost", lv) if exp_from_ghost else FieldRef("fstar", lv - 1),),
            writes=(FieldRef("f", lv),),
            fn=LazyBody(lambda: self._fuse(self._explode(lv, exp_from_ghost))))

    def op_coalesce(self, lv: int) -> None:
        """Separate Coalescence kernel: averaged ghost reads plus the reset."""
        buf = self.levels[lv]
        m = buf.coal_q.size
        if m == 0:
            return
        self.rt.launch(
            "O", lv, n_cells=buf.n_coal_cells,
            bytes_read=self.itemsize * m,
            bytes_written=self.itemsize * m + self.itemsize * buf.ghost_acc.size,
            reads=(FieldRef("gacc", lv),),
            writes=(FieldRef("f", lv), FieldRef("gacc", lv)),
            fn=LazyBody(lambda: self._fuse(self._coalesce(lv))))

    def op_fused_case(self, lv: int) -> None:
        """The fully fused finest-level kernel (Fig. 4f).

        Collision + Accumulate + Streaming + Explosion in one launch; the
        post-collision intermediate stays in registers (our ``fstar``
        buffer stands in for them and is excluded from the traffic).
        """
        buf = self.levels[lv]
        Q, n = self.lat.q, buf.n_owned
        reads = [FieldRef("f", lv)]
        writes = [FieldRef("f", lv)]
        atomic = 0
        if lv > 0:
            parent = self.levels[lv - 1]
            if parent.acc_fine_rows.size:
                atomic = self.itemsize * parent.n_acc
                writes.append(FieldRef("gacc", lv - 1))
            if buf.exp_q.size:
                reads.append(FieldRef("fstar", lv - 1))
        omega, force = self.omega[lv], self.force[lv]
        self.rt.launch("CASE", lv, n_cells=n,
                       bytes_read=Q * self.itemsize * n + self.itemsize * buf.exp_q.size + buf.meta_bytes,
                       bytes_written=Q * self.itemsize * n + atomic,
                       atomic_bytes=atomic,
                       reads=tuple(reads), writes=tuple(writes),
                       fn=LazyBody(lambda: self._fuse(
                           self._collide(lv, omega, force),
                           lv > 0 and self._accumulate(lv, "fused"),
                           self._stream(lv),
                           self._explode(lv, from_ghost=False, subsumed=True),
                           registers=(FieldRef("fstar", lv),))))

    # -- fault injection ---------------------------------------------------------
    def corrupt_cell(self, lv: int, cell: int, q: int = 0,
                     value: float = float("nan")) -> float:
        """Overwrite one owned population entry of ``f``; return the old value.

        The write hook of the resilience fault injector (and of tests):
        only the engine knows the buffer/row layout, so the corruption
        lands exactly where :meth:`health_scan` and the watchdog will
        report it.  Functionally this models a device-side soft error —
        a single flipped population value that floods the grid within a
        few steps unless a watchdog catches it.
        """
        buf = self.levels[lv]
        if not 0 <= cell < buf.n_owned:
            raise ValueError(f"cell {cell} outside the {buf.n_owned} owned "
                             f"rows of level {lv}")
        if not 0 <= q < self.lat.q:
            raise ValueError(f"population index {q} outside Q={self.lat.q}")
        old = float(buf.f[q, cell])
        buf.f[q, cell] = value
        return old

    # -- health ------------------------------------------------------------------
    def health_scan(self):
        """Yield a per-level numerical-health snapshot (owned cells only).

        Each item carries the rows whose ``f`` populations are non-finite
        (with one offending value per row, for diagnostics), plus density
        and velocity magnitude.  Only ``f`` crosses a coarse step, so
        ``fstar`` is not scanned; a non-finite population makes its
        column's rho non-finite, so one moment product finds the rows.
        Consumed by the observability watchdog (:mod:`repro.obs.watchdog`);
        kept on the engine because only it knows the buffer/row layout.
        """
        for lv, buf in enumerate(self.levels):
            f = buf.f
            m = self.lat.moments[:1 + self.lat.d] @ f
            bad = np.nonzero(~np.isfinite(m[0]))[0]
            first_q = np.argmax(~np.isfinite(f[:, bad]), axis=0)
            scan = {"nonfinite": bad, "values": f[first_q, bad]}
            if bad.size:  # moments of non-finite populations are meaningless
                scan["rho"] = scan["umag"] = np.empty(0)
            else:
                if self.force[lv] is not None:
                    m[1:] += 0.5 * self.force[lv][:, None]
                m[1:] /= m[0]
                scan["rho"] = m[0]
                scan["umag"] = np.sqrt((m[1:] * m[1:]).sum(axis=0))
            yield scan

    # -- observables -------------------------------------------------------------
    def macroscopics(self, lv: int) -> tuple[np.ndarray, np.ndarray]:
        """Density and velocity of the owned cells of one level.

        With a body force the velocity carries the Guo half-force shift,
        matching the collision operator's definition.
        """
        f = self.levels[lv].f
        if self.force[lv] is None:
            return macroscopics(self.lat, f)
        return self.collision._moments(f, self.force[lv])

    def total_mass(self) -> float:
        """Volume-weighted total mass in coarse-lattice units."""
        total = 0.0
        for lv, buf in enumerate(self.levels):
            vol = (0.5 ** lv) ** self.mgrid.d
            total += vol * float(buf.f.sum())
        return total

    def total_momentum(self) -> np.ndarray:
        """Volume-weighted total momentum vector in coarse-lattice units."""
        mom = np.zeros(self.mgrid.d)
        for lv, buf in enumerate(self.levels):
            vol = (0.5 ** lv) ** self.mgrid.d
            mom += vol * (self.lat.ef.T @ buf.f).sum(axis=1)
        return mom
