"""Execution engine: state buffers and the one body of every kernel.

The engine owns, per level, one population buffer ``f`` (``(Q,
n_owned)``) and the ghost-layer accumulator, in the engine's
:attr:`~Engine.dtype` (float32 by default, float64 for the reference
precision), as is every scratch a body binds.  ``f`` holds the
post-streaming state at the start of a substep and, after Collide wrote
over its input, the post-collision state: Accumulate reads it there, and
so do the next finer level's Explosion reads during both finer substeps
(Algorithm 1 runs a level's Streaming only after them).  Streaming runs
in place, one direction group at a time through a small scratch
(:meth:`Engine._stream`).  Every index map is the grid compile's own
array, in compact *row* space: rows ``0..n_owned-1`` are the owned
cells; the bodies gather and scatter with its flat ``intp`` entries as
they are.  The original baseline's (Fig. 4a) fine-ghost populations live in
a second buffer, ``fghost``, allocated only for that layout
(:meth:`Engine.allocate`); its rows keep the numbers
``n_owned..n_used-1`` in the maps and access reports.  The pull table
holds one flat ``f`` entry ``q_src * n_owned + row`` per ``(q, owned
cell)`` with the bounce-back, moving-wall and slip links already in it,
so Streaming is one gather per direction.  The ghost accumulator
holds one slot per ghost bin ``(q, ghost)`` that Coalescence reads, in
coalescence-entry order; Accumulate sums into those slots only.  Between
coarse steps ``f`` is the whole state: ``fghost`` and the in-place
stream's scratch are rewritten before they are read, ``ghost_acc`` is
zero.
Each ``op_*`` method is one GPU kernel: it builds the kernel's body
and access report and hands them to the runtime, with the kernel's name
and thread count; the launch record — fields, and the DRAM traffic the
equivalent CUDA kernel would generate — is read off the report.  The
report prices the paper's two-buffer kernels at 8 bytes a value
(:attr:`Engine.itemsize`, the model's width, whatever the host's dtype),
which is what the cost model consumes, and names the storage the body
touches.

This module is the only place a kernel body is written.  The ``_collide``
/ ``_accumulate`` / ``_stream`` / ``_explode`` / ``_coalesce`` /
``_explosion_copy`` builders each return the vectorised NumPy closure of
one primitive with its access report beside it; every step plan
(interpreted, compiled serial, thread waves) and every mp worker run
those closures (:mod:`repro.backend`).  The report is the one statement
of what a kernel touches: the capture evaluates it once, without running
the body, and the launch record, admission, the legality proof, lint and
certificates all read what it stated (:mod:`repro.analysis.capture`).
Collide runs a large level as column ranges, Streaming as direction
groups, on every usable CPU (:meth:`Engine.split_cuts`), bit-identically.

Fused kernels execute the same arithmetic as their unfused sequence, so
every fusion variant is bitwise-identical in results and differs only in
its launch/traffic trace — mirroring how kernel fusion works on the
device, where it eliminates intermediate DRAM round-trips but not
arithmetic.  What a body saves over the textbook form it saves fused or
not: values it would move and nobody would read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid.multigrid import CompiledLevel, MultiGrid, check_pull_table, row_span
from ..neon.executor import run_split, usable_cpus
from ..neon.runtime import AccessReport, FieldRef, KernelBody, Runtime
from .collision import equilibrium, macroscopics, make_collision, tile_cuts
from .fusion import FusionConfig
from .units import omega_at_level

__all__ = ["Engine", "LevelBuffers", "SPLIT_MIN_BYTES"]

#: Population bytes each part of a split collide / stream body must hold
#: (the sweep behind the value: EXPERIMENTS.md, "Cell-range split").
SPLIT_MIN_BYTES = 1 << 20


@dataclass
class LevelBuffers:
    """Per-level state beside the grid's pull table (the same array); the
    bodies read every other map off the grid's level."""

    f: np.ndarray                 # (Q, n_owned) populations, collided in place
    #: (n_coal,) Accumulate sums, slot ``e`` the ghost bin ``coal_bin[e]``
    #: that Coalescence entry ``e`` reads
    ghost_acc: np.ndarray
    n_owned: int
    n_ghost: int                  # ghost cells: the device's (Q, n_ghost) accumulator
    n_used: int                   # n_owned + fine ghosts: rows the reports number
    pull_flat: np.ndarray         # (Q, n_owned) flat f entries
    meta_bytes: int               # per-pass structural metadata traffic
    #: (Q, n_used - n_owned) fine-ghost populations, row ``r`` at column
    #: ``r - n_owned``; ``None`` unless the 4a layout runs on this engine.
    fghost: np.ndarray | None = None


class Engine:
    """Functional executor for one compiled multigrid."""

    def __init__(self, mgrid: MultiGrid, collision: str = "bgk",
                 omega0: float = 1.0, runtime: Runtime | None = None,
                 force=None, dtype="float32") -> None:
        self.mgrid = mgrid
        #: Host dtype of every population-sized array (``f``, ``fghost``,
        #: ``ghost_acc``, the bodies' scratch); host bytes are read off
        #: the arrays themselves.
        self.dtype = np.dtype(dtype)
        #: Bytes per population value of the paper's device kernels, which
        #: the launch records and access reports price: the model's width,
        #: not the host's dtype (so no ``gpu.*`` number follows the dtype).
        self.itemsize = 8
        self.lat = mgrid.lattice
        self.collision = make_collision(collision, self.lat)
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
        #: Most parts of a split body (mp workers, sharded already, set 1).
        self.split_width = usable_cpus()
        self.levels = [self._build_level(cl) for cl in mgrid.levels]
        #: Per level, the bodies' scratch: the in-place stream's,
        #: ``parts -> (parts, G, n_owned)``, and Accumulate's gather row and
        #: sums, ``"accumulate"``, each made when the first body is built there:
        #: state, so the engine's, while the index maps are the grid's.
        self.scratch: list[dict] = [{} for _ in self.levels]

    # -- setup ----------------------------------------------------------------
    def _build_level(self, cl: CompiledLevel) -> LevelBuffers:
        """The level's buffers beside the grid's own maps: the grid states
        every map in the engine's row space, so none is copied here."""
        Q, n_bins = self.lat.q, cl.coal_bin.size
        read = np.zeros(Q * cl.n_ghost, dtype=bool)
        read[cl.coal_bin] = True
        if np.count_nonzero(read) != n_bins:
            raise ValueError(f"level {cl.level}: two Coalescence entries read "
                             f"one ghost bin; the accumulator has a slot per entry")
        return LevelBuffers(
            f=np.zeros((Q, cl.n_owned), self.dtype),
            ghost_acc=np.zeros(n_bins, self.dtype),
            n_owned=cl.n_owned, n_ghost=cl.n_ghost,
            n_used=cl.n_owned + cl.fine_ghost_slots.size,
            pull_flat=cl.pull_flat,
            meta_bytes=sum(cl.grid.metadata_bytes().values()),
        )

    def allocate(self, config: FusionConfig) -> None:
        """Give the levels the buffers a stream of ``config`` addresses
        beyond ``f`` and ``ghost_acc``, which every stream does.

        Only the original baseline (Fig. 4a) addresses fine ghosts — its
        Explosion copy writes them, its Explode reads them — so only it
        gets ``fghost``.

        Called for a stepper that will run, before anything lays out state
        (:class:`~repro.core.simulation.Simulation`, each mp worker: the
        mp backend's shared segment holds the buffers it finds), never by
        the stepper itself: plan admission captures a baseline stepper on
        the same engine only for its reports.  Idempotent.
        """
        if config.original_layout:
            for buf in self.levels:
                if buf.fghost is None and buf.n_used > buf.n_owned:
                    buf.fghost = np.zeros((self.lat.q, buf.n_used - buf.n_owned),
                                          self.dtype)

    def _fghost(self, lv: int) -> np.ndarray:
        fghost = self.levels[lv].fghost
        if fghost is None:
            raise RuntimeError(f"level {lv} has no fghost: only the 4a layout "
                               f"addresses fine ghosts (Engine.allocate)")
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
        to velocities ``(d, N)``.  At rest with a scalar density the
        equilibrium is ``w * rho`` bit for bit (the basis' density column
        is ``w``, every other moment is zero), written without the GEMMs.
        """
        d = self.mgrid.d
        for lv, buf in enumerate(self.levels):
            buf.ghost_acc[:] = 0.0
            if u is None and np.isscalar(rho):
                buf.f[:] = (self.lat.w * float(rho))[:, None]
                continue
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

    # -- index maps ------------------------------------------------------------
    def _pull_flat(self, lv: int) -> np.ndarray:
        """The level's pull table, bounds-proven and frozen: the grid's,
        proven by its compile, or a table put in its place, proven here on
        every bind (:func:`~repro.grid.multigrid.check_pull_table`)."""
        table, cl = self.levels[lv].pull_flat, self.mgrid.levels[lv]
        if table is not cl.pull_flat:
            check_pull_table(table, cl.n_owned, lv)
        table.setflags(write=False)
        return table

    def split_parts(self, lv: int) -> int:
        """Parts level ``lv``'s split bodies may run in: at most
        :attr:`split_width`, each of :data:`SPLIT_MIN_BYTES` of ``f`` or
        more (host bytes, read off the array)."""
        nbytes, parts = self.levels[lv].f.nbytes, self.split_width
        while parts > 1 and nbytes < parts * SPLIT_MIN_BYTES:
            parts -= 1
        return parts

    def split_cuts(self, lv: int) -> list[int]:
        """Column cuts ``[0, ..., n_owned]`` of level ``lv``'s split collide:
        up to :meth:`split_parts` parts, inner cuts on the multiples of
        the collide tile (:meth:`CollisionModel.tile
        <repro.core.collision.CollisionModel.tile>`) nearest an even
        share, so every part issues the whole-level call's products."""
        return tile_cuts(self.levels[lv].n_owned, self.split_parts(lv),
                         self.collision.tile(self.dtype))

    # -- kernel bodies ---------------------------------------------------------
    # The one implementation of each kernel.  A builder resolves buffer
    # views and index maps and returns ``(run, report)``: ``run()`` is the
    # arithmetic, ``report(tracer)`` states the accesses it performs.
    # Builders return ``None`` where the geometry leaves nothing to do.
    # Views are taken when a body is built and never kept on the engine: the mp
    # backend rebinds ``buf.f`` / ``fghost`` / ``ghost_acc`` to
    # shared memory and back, and a body built afterwards must see those arrays.
    def _fuse(self, *parts) -> tuple[KernelBody, AccessReport]:
        """One kernel body running ``parts`` in order (``None`` parts
        dropped), with the access report of the whole kernel.

        Fusion regroups bodies without touching their arithmetic.
        """
        parts = tuple(p for p in parts if p)
        runs = tuple(run for run, _ in parts)
        if len(runs) == 1:
            run = runs[0]
        else:
            def run() -> None:
                for part in runs:
                    part()

        def report(t) -> None:
            for _, part_report in parts:
                part_report(t)
        return run, report

    def collide_columns(self, lv: int, lo: int, hi: int, omega: float,
                        force) -> KernelBody:
        """Collide columns ``[lo, hi)`` of level ``lv`` (a split part, an mp
        shard: ``lo`` on a multiple of the collide tile)."""
        collide = self.collision.collide
        f = self.levels[lv].f[:, lo:hi]

        def run() -> None:
            collide(f, omega, out=f, force=force)
        return run

    def _collide(self, lv: int, omega: float, force, in_registers: bool = False):
        """Collide level ``lv`` in place; ``in_registers`` (CASE) keeps the
        post-collision values on chip, so the write moves no DRAM bytes."""
        n = self.levels[lv].n_owned
        cuts = self.split_cuts(lv)
        parts = [self.collide_columns(lv, lo, hi, omega, force)
                 for lo, hi in zip(cuts, cuts[1:])]
        run = parts[0] if len(parts) == 1 else lambda: run_split(parts)

        def report(t) -> None:
            nb = self.lat.q * self.itemsize * n
            t.read(FieldRef("f", lv), 0, n, nb)
            t.write(FieldRef("f", lv), 0, n, 0 if in_registers else nb)
        return run, report

    def _accumulate(self, lv: int, mode: str):
        """Add level ``lv``'s fresh post-collision values into its parent's ghosts.

        Each accumulator slot sums the populations that stream out of this
        level into its coarse cell: row ``j`` of the grid's ragged
        ``acc_sources`` (the slots with more than ``j`` sources, first) is
        gathered and added, in order, into a prefix of float64 sums, which
        are rounded into ``ghost_acc``'s dtype once, when added.  A bin
        Coalescence does not read has no slot.  The gather row and the sums
        are buffers on :attr:`scratch` (``"accumulate"``), which
        the rows write prefix views of.  ``mode`` selects the traffic attribution of the
        equivalent GPU kernel, which sums into a ``(Q, n_ghost)``
        accumulator: ``"fused"`` (Collision+Accumulate — the source values
        sit in registers, the scatter is atomic), ``"scatter"``
        (standalone fine-initiated atomic scatter) or ``"gather"`` (the
        original baseline's coarse-initiated gather, launched over ghost
        cells).  The arithmetic is identical in all three.
        """
        up = self.mgrid.levels[lv - 1]
        if up.n_ghost == 0:
            return None
        Q, ng, sources = self.lat.q, up.n_ghost, up.acc_sources
        acc, post_flat = self.levels[lv - 1].ghost_acc, self.levels[lv].f.reshape(-1)
        row, sums = self._acc_buffers(lv, sources[0].size)
        first, rest = sources[0], tuple((s, row[:s.size], sums[:s.size]) for s in sources[1:])
        take, copyto, add = np.take, np.copyto, np.add

        def run() -> None:
            take(post_flat, first, out=row, mode="clip")
            copyto(sums, row)
            for src, part, part_sums in rest:
                take(post_flat, src, out=part, mode="clip")
                add(part_sums, part, out=part_sums)
            add(acc, sums, out=acc)

        def report(t) -> None:
            i, nb = self.itemsize, self.itemsize * up.n_acc_sources
            t.read(FieldRef("f", lv), *up.acc_span, 0 if mode == "fused" else nb)
            if mode == "gather":
                t.read(FieldRef("gacc", lv - 1), 0, ng, Q * i * ng)
                t.write(FieldRef("gacc", lv - 1), 0, ng, Q * i * ng)
            else:
                if mode == "scatter":
                    t.read(FieldRef("gacc", lv - 1), 0, ng, Q * i * ng)
                t.atomic(FieldRef("gacc", lv - 1), 0, ng, nb)
        return run, report

    def _acc_buffers(self, lv: int, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
        """Level ``lv``'s Accumulate buffers: one ``(n_bins,)`` gather row
        in the engine's dtype and the float64 sums.  Every Accumulate body
        bound on the level shares them: they write the same slots, so
        never run at once."""
        got = self.scratch[lv].get("accumulate")
        if got is None:
            got = self.scratch[lv]["accumulate"] = (
                np.empty(n_bins, self.dtype), np.empty(n_bins, np.float64))
        return got

    def _stream(self, lv: int, in_registers: bool = False):
        """One gather per direction through the pull table — interior,
        bounce-back and slip links alike — then the moving-wall momentum
        and the outflow values (one kernel on the GPU).

        In place: a direction group's rows read only that group's rows
        (:attr:`CompiledLevel.groups <repro.grid.multigrid.CompiledLevel.groups>`),
        so each group is gathered from ``f`` into a scratch and copied back
        before the next overwrites anything; the groups are dealt out to
        the split's parts, each with a ``(G, n_owned)`` scratch (``G`` the
        largest group) that every body bound on the level shares.  The
        report prices the paper's two-buffer gather (``in_registers``,
        CASE: the source values come from registers, so the read moves no
        bytes).
        """
        b, cl = self.levels[lv], self.mgrid.levels[lv]
        Q, n = self.lat.q, b.n_owned
        f_flat = b.f.reshape(-1)
        table = self._pull_flat(lv)
        mov = (cl.mov_dst, cl.mov_term) if cl.mov_dst.size else None
        out = (cl.out_dst, cl.out_val) if cl.out_dst.size else None
        take, copyto = np.take, np.copyto

        def in_place(groups, scratch: np.ndarray) -> KernelBody:
            pulls = [[(table[q], b.f[q], row) for q, row in zip(g, scratch)]
                     for g in groups]

            def part() -> None:
                for group in pulls:
                    for idx, _, row in group:
                        take(f_flat, idx, out=row, mode="clip")
                    for _, dst, row in group:
                        copyto(dst, row)
            return part

        groups = cl.groups
        width = min(self.split_parts(lv), len(groups))
        scratch = self.scratch[lv].get(width)
        if scratch is None:
            scratch = self.scratch[lv][width] = np.empty(
                (width, len(groups[0]), n), self.dtype)
        parts = [in_place(groups[k::width], scratch[k]) for k in range(width)]
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
            # every row: the rest direction pulls each row from itself
            t.read(FieldRef("f", lv), 0, n, 0 if in_registers else nb)
            t.write(FieldRef("f", lv), 0, n, nb)
            t.meta(b.meta_bytes)
        return run, report

    def _explode(self, lv: int, from_ghost: bool, subsumed: bool = False):
        """Write the cross-level pulls of ``f`` from the coarse level's
        post-collision ``f`` (or, ``from_ghost``, from this level's
        fine-ghost copies of it, whose flat entries the 4a layout's body
        derives from the grid's rows when it is built)."""
        b, cl = self.levels[lv], self.mgrid.levels[lv]
        dst = cl.exp_dst
        if dst.size == 0:
            return None
        if from_ghost:
            source = self._fghost(lv)
            src = dst // b.n_owned * source.shape[1] + (cl.exp_ghost_rows - b.n_owned)
            read = FieldRef("fghost", lv), *row_span(cl.exp_ghost_rows)
        else:
            source, src = self.levels[lv - 1].f, cl.exp_src
            read = FieldRef("f", lv - 1), *cl.exp_src_span
        f_flat, src_flat = b.f.reshape(-1), source.reshape(-1)

        def run() -> None:
            f_flat[dst] = src_flat[src]

        def report(t) -> None:
            nb = self.itemsize * dst.size
            t.read(*read, nb)
            # fused into streaming, the write lands on entries the bulk
            # pull already paid for — no extra traffic
            t.write(FieldRef("f", lv), *cl.exp_dst_span, 0 if subsumed else nb,
                    entries=dst)
        return run, report

    def _coalesce(self, lv: int, subsumed: bool = False):
        """Write each slot's mean, ``acc_e / (2 n_e)`` over the two substeps'
        sums, into ``f``, then reset the slots; the slots with ``n_e = k``
        are those row ``k - 1`` of ``acc_sources`` covers and row ``k`` not."""
        b, cl = self.levels[lv], self.mgrid.levels[lv]
        Q, ng, dst = self.lat.q, b.n_ghost, cl.coal_dst
        acc, f_flat = b.ghost_acc, b.f.reshape(-1)
        ends = [src.size for src in cl.acc_sources] + [0]
        means = tuple((acc[lo:hi], 2.0 * k) for k, (hi, lo) in enumerate(zip(ends, ends[1:]), 1))

        def run() -> None:
            for part, n in means:
                np.divide(part, n, out=part)
            f_flat[dst] = acc
            acc.fill(0.0)

        def report(t) -> None:
            # the slots' bins, as entries of the device kernel's (Q,
            # n_ghost) accumulator, which the report names
            nb = self.itemsize * dst.size
            t.read(FieldRef("gacc", lv), *cl.coal_src_span, nb, entries=cl.coal_bin)
            t.write(FieldRef("f", lv), *cl.coal_dst_span, 0 if subsumed else nb,
                    entries=dst)
            t.write(FieldRef("gacc", lv), 0, ng, self.itemsize * Q * ng)
        return run, report

    def _explosion_copy(self, lv: int):
        """Original baseline: mirror coarse post-collision state into fine
        ghosts, one gather of the parents' columns (fghost column ``k`` is
        fine ghost ``k``: the copy writes all of it)."""
        b, fghost = self.levels[lv], self._fghost(lv)
        rows, coarse = self.mgrid.levels[lv].fg_coarse_rows, self.levels[lv - 1].f
        take = np.take

        def run() -> None:
            take(coarse, rows, axis=1, out=fghost, mode="clip")

        def report(t) -> None:
            nb = self.itemsize * fghost.size
            t.read(FieldRef("f", lv - 1), *row_span(rows), nb)
            t.write(FieldRef("fghost", lv), b.n_owned, b.n_used, nb)
        return run, report

    # -- public ops: one launch each ---------------------------------------------
    # Each op builds its kernel's body and report and hands them to the
    # runtime, which reads the launch record off the report; an op states
    # only the kernel's name and thread count.  The body closes over the
    # launch-time inputs (relaxation rate, force, fusion flags).
    def op_collide(self, lv: int, fuse_accumulate: bool = False) -> None:
        fused = fuse_accumulate and lv > 0 and self.levels[lv - 1].n_ghost > 0
        self.rt.launch("CA" if fused else "C", lv, self.levels[lv].n_owned, self._fuse(
            self._collide(lv, self.omega[lv], self.force[lv]),
            fused and self._accumulate(lv, "fused")))

    def op_accumulate(self, lv: int, gather: bool = False) -> None:
        """Separate Accumulate kernel: fine level ``lv`` into parent ghosts.

        ``gather=True`` models the original baseline's coarse-initiated
        gather (launched over ghost cells, no atomics); ``False`` the
        modified baseline's fine-initiated atomic scatter.
        """
        if lv == 0:
            raise ValueError("level 0 has no parent to accumulate into")
        ng = self.levels[lv - 1].n_ghost
        if ng == 0:
            return
        self.rt.launch("A", lv, ng if gather else 2 ** self.mgrid.d * ng, self._fuse(
            self._accumulate(lv, "gather" if gather else "scatter")))

    def op_explosion_copy(self, lv: int) -> None:
        """Original baseline's Explosion: the coarse post-collision ``f``
        copied into fine ghost layers."""
        buf = self.levels[lv]
        if buf.n_used > buf.n_owned:
            self.rt.launch("E", lv, buf.n_used - buf.n_owned,
                           self._fuse(self._explosion_copy(lv)))

    def op_stream(self, lv: int, *, fuse_explosion: bool = False,
                  fuse_coalescence: bool = False, exp_from_ghost: bool = False) -> None:
        """Streaming kernel, optionally fused with Explosion and/or Coalescence."""
        cl = self.mgrid.levels[lv]
        do_exp = fuse_explosion and cl.exp_dst.size > 0
        do_coal = fuse_coalescence and cl.coal_dst.size > 0
        name = ("SEO" if do_exp else "SO") if do_coal else ("SE" if do_exp else "S")
        self.rt.launch(name, lv, self.levels[lv].n_owned, self._fuse(
            self._stream(lv),
            do_exp and self._explode(lv, exp_from_ghost, subsumed=True),
            do_coal and self._coalesce(lv, subsumed=True)))

    def op_explode(self, lv: int, exp_from_ghost: bool = False) -> None:
        """Separate Explosion kernel writing the cross-level pulls of ``f``."""
        cl = self.mgrid.levels[lv]
        if cl.exp_dst.size:
            self.rt.launch("E", lv, cl.n_interface_fine,
                           self._fuse(self._explode(lv, exp_from_ghost)))

    def op_coalesce(self, lv: int) -> None:
        """Separate Coalescence kernel: averaged ghost reads plus the reset."""
        cl = self.mgrid.levels[lv]
        if cl.coal_dst.size:
            self.rt.launch("O", lv, cl.n_interface_coarse,
                           self._fuse(self._coalesce(lv)))

    def op_fused_case(self, lv: int) -> None:
        """The fully fused finest-level kernel (Fig. 4f).

        Collision + Accumulate + Streaming + Explosion in one launch; the
        post-collision intermediate stays in registers (its write and
        re-reads move no DRAM bytes).  On the host it stays in ``f``, as
        under every config: the body collides in place, accumulates from
        ``f`` and streams in place (:meth:`_stream`).
        """
        self.rt.launch("CASE", lv, self.levels[lv].n_owned, self._fuse(
            self._collide(lv, self.omega[lv], self.force[lv], in_registers=True),
            lv > 0 and self._accumulate(lv, "fused"),
            self._stream(lv, in_registers=True),
            self._explode(lv, from_ghost=False, subsumed=True)))

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
        nothing else is scanned; a non-finite population makes its
        column's rho non-finite, so one moment product finds the rows.
        The product runs in the populations' dtype (the lattice matrix is
        cast to it), so a float32 level is not copied to float64.
        Consumed by the observability watchdog (:mod:`repro.obs.watchdog`);
        kept on the engine because only it knows the buffer/row layout.
        """
        for lv, buf in enumerate(self.levels):
            f = buf.f
            m = self.lat.moments[:1 + self.lat.d].astype(f.dtype) @ f
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
        """Volume-weighted total mass in coarse-lattice units, summed in
        float64 whatever the populations' dtype (so a drift reading is the
        state's, not the sum's own rounding)."""
        total = 0.0
        for lv, buf in enumerate(self.levels):
            vol = (0.5 ** lv) ** self.mgrid.d
            total += vol * float(buf.f.sum(dtype=np.float64))
        return total

    def total_momentum(self) -> np.ndarray:
        """Volume-weighted total momentum vector in coarse-lattice units
        (float64: the lattice matrix is)."""
        mom = np.zeros(self.mgrid.d)
        for lv, buf in enumerate(self.levels):
            vol = (0.5 ** lv) ** self.mgrid.d
            mom += vol * (self.lat.ef.T @ buf.f).sum(axis=1)
        return mom
