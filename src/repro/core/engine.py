"""Execution engine: state buffers and the kernel bodies of every variant.

The engine owns, per level, the two population buffers (``f`` holds the
post-streaming state at the start of a substep, ``fstar`` the
post-collision state) and the ghost-layer accumulator, plus every
streaming map translated from grid slots to compact *row* space: rows
``0..n_owned-1`` are the owned cells, followed by the fine-ghost rows the
original baseline needs.  Each ``op_*`` method is one GPU kernel: it
executes vectorised NumPy immediately and emits one launch record with
the DRAM traffic the equivalent CUDA kernel would generate — this is what
the cost model consumes.

Fused kernels execute the same arithmetic as their unfused sequence (the
intermediate lives in the ``fstar`` buffer, playing the role of the GPU's
registers), so every fusion variant is bitwise-identical in results and
differs only in its launch/traffic trace — mirroring how kernel fusion
works on the device, where it eliminates intermediate DRAM round-trips
but not arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..grid.multigrid import CompiledLevel, MultiGrid
from ..neon.runtime import FieldRef, Runtime
from .collision import CollisionModel, equilibrium, macroscopics, make_collision
from .units import omega_at_level

__all__ = ["Engine", "LevelBuffers"]

#: Default sentinel for kernel-body inputs that may legitimately be None
#: (``force``): distinguishes "snapshot at call time" from an explicit value.
_EAGER = object()



@dataclass
class LevelBuffers:
    """Per-level state and row-space maps."""

    f: np.ndarray                 # (Q, n_used) post-streaming populations
    fstar: np.ndarray             # (Q, n_used) post-collision populations
    ghost_acc: np.ndarray         # (Q, n_ghost) Accumulate sums
    n_owned: int
    n_used: int
    pull_rows: np.ndarray         # (Q, n_owned) same-level gather rows
    bb_q: np.ndarray; bb_cell: np.ndarray; bb_opp: np.ndarray
    mov_q: np.ndarray; mov_cell: np.ndarray; mov_opp: np.ndarray; mov_term: np.ndarray
    out_q: np.ndarray; out_cell: np.ndarray; out_val: np.ndarray
    sl_q: np.ndarray; sl_cell: np.ndarray; sl_src_q: np.ndarray; sl_src: np.ndarray
    sb_q: np.ndarray; sb_cell: np.ndarray; sb_opp: np.ndarray; sb_e: np.ndarray
    exp_q: np.ndarray; exp_cell: np.ndarray; exp_rows: np.ndarray
    exp_ghost_rows: np.ndarray
    coal_q: np.ndarray; coal_cell: np.ndarray; coal_src: np.ndarray
    acc_fine_rows: np.ndarray     # rows in the FINER level's buffers
    acc_ghost_rows: np.ndarray
    fg_rows: np.ndarray           # this level's fine-ghost rows (4a)
    fg_coarse_rows: np.ndarray    # rows in the coarser level's buffers
    meta_bytes: int               # per-pass structural metadata traffic
    positions: np.ndarray         # (n_owned, d) level-resolution coordinates
    n_exp_cells: int              # distinct owned cells the E kernel writes
    n_coal_cells: int             # distinct owned cells the O kernel writes
    #: True when streaming pulls from the fine-ghost region (rows >=
    #: n_owned; original baseline only) — the S kernel then reads the
    #: logical ``fghost`` field in addition to ``fstar``.
    pulls_fghost: bool = False


class Engine:
    """Functional executor for one compiled multigrid."""

    def __init__(self, mgrid: MultiGrid, collision: CollisionModel | str = "bgk",
                 omega0: float = 1.0, runtime: Runtime | None = None,
                 force=None, dtype=np.float64) -> None:
        self.mgrid = mgrid
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")
        #: bytes per stored population value (paper: fp32 halves traffic [9])
        self.itemsize = self.dtype.itemsize
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
        self.levels = [self._build_level(cl) for cl in mgrid.levels]

    # -- setup ----------------------------------------------------------------
    def _build_level(self, cl: CompiledLevel) -> LevelBuffers:
        lat = self.lat
        Q = lat.q
        row_of_slot = np.full(cl.n_alloc, -1, dtype=np.int64)
        row_of_slot[cl.owned_slots] = np.arange(cl.n_owned)
        n_fg = cl.fine_ghost_slots.size
        row_of_slot[cl.fine_ghost_slots] = cl.n_owned + np.arange(n_fg)
        n_used = cl.n_owned + n_fg

        pull_rows = row_of_slot[cl.pull_src]
        if (pull_rows < 0).any():
            raise AssertionError("interior pull references an unallocated row")
        sl_src_rows = row_of_slot[cl.sl_src] if cl.sl_src.size else cl.sl_src
        pulls_fghost = bool((pull_rows >= cl.n_owned).any()
                            or (sl_src_rows >= cl.n_owned).any())
        grid_meta = sum(cl.grid.metadata_bytes().values())
        return LevelBuffers(
            f=np.zeros((Q, n_used), dtype=self.dtype),
            fstar=np.zeros((Q, n_used), dtype=self.dtype),
            ghost_acc=np.zeros((Q, cl.n_ghost), dtype=self.dtype),
            n_owned=cl.n_owned, n_used=n_used, pull_rows=pull_rows,
            bb_q=cl.bb_q, bb_cell=cl.bb_cell, bb_opp=lat.opp[cl.bb_q],
            mov_q=cl.mov_q, mov_cell=cl.mov_cell, mov_opp=lat.opp[cl.mov_q],
            mov_term=cl.mov_term,
            out_q=cl.out_q, out_cell=cl.out_cell, out_val=cl.out_val,
            sl_q=cl.sl_q, sl_cell=cl.sl_cell, sl_src_q=cl.sl_src_q,
            sl_src=sl_src_rows,
            sb_q=cl.sb_q, sb_cell=cl.sb_cell, sb_opp=lat.opp[cl.sb_q],
            sb_e=lat.ef[lat.opp[cl.sb_q]],
            exp_q=cl.exp_q, exp_cell=cl.exp_cell, exp_rows=np.empty(0, dtype=np.int64),
            exp_ghost_rows=row_of_slot[cl.exp_ghost_src] if cl.exp_ghost_src.size
            else cl.exp_ghost_src,
            coal_q=cl.coal_q, coal_cell=cl.coal_cell, coal_src=cl.coal_src,
            acc_fine_rows=np.empty(0, dtype=np.int64),
            acc_ghost_rows=cl.acc_ghost_rows,
            fg_rows=row_of_slot[cl.fg_slots] if cl.fg_slots.size else cl.fg_slots,
            fg_coarse_rows=np.empty(0, dtype=np.int64),
            meta_bytes=grid_meta,
            positions=cl.grid.cell_positions()[cl.owned_slots],
            n_exp_cells=cl.n_interface_fine, n_coal_cells=cl.n_interface_coarse,
            pulls_fghost=pulls_fghost,
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

    def initialize(self, rho: float | np.ndarray = 1.0, u=None) -> None:
        """Set every level to the local equilibrium of (rho, u).

        ``u`` may be ``None`` (fluid at rest), a length-``d`` vector, or a
        callable mapping cell-centre positions (in coarse units, ``(N, d)``)
        to velocities ``(d, N)``.
        """
        self._link_levels()
        d = self.mgrid.d
        for lv, buf in enumerate(self.levels):
            n = buf.n_owned
            rr = np.full(n, rho, dtype=np.float64) if np.isscalar(rho) else rho
            if u is None:
                uu = np.zeros((d, n))
            elif callable(u):
                centers = (buf.positions + 0.5) * 2.0 ** (-lv)
                uu = np.asarray(u(centers), dtype=np.float64)
            else:
                uu = np.broadcast_to(np.asarray(u, dtype=np.float64)[:, None], (d, n)).copy()
            feq = equilibrium(self.lat, rr, uu)
            buf.f[:, :n] = feq
            buf.fstar[:, :n] = feq
            buf.ghost_acc[:] = 0.0

    # -- access capture helpers ------------------------------------------------
    def _tracer(self):
        """The runtime's access tracer, if a traced launch is in flight."""
        t = self.rt.tracer
        return t if (t is not None and t.active) else None

    @staticmethod
    def _span(rows: np.ndarray) -> tuple[int, int]:
        """Half-open interval bounding the rows an index array touches."""
        if rows.size == 0:
            return (0, 0)
        return (int(rows.min()), int(rows.max()) + 1)

    def _trace_fstar_read(self, t, lv: int, rows: np.ndarray,
                          extra_rows: list[np.ndarray], nbytes_total: int) -> None:
        """Record a gather from ``fstar``, splitting the fine-ghost region.

        Rows ``>= n_owned`` are the original baseline's fine-ghost layers:
        logically they are the ``fghost`` field, and the declarations name
        them as such.  ``nbytes_total`` is apportioned by value count;
        ``extra_rows`` (boundary-patch sources) extend the intervals but
        carry no extra bytes — on the GPU each destination entry is read
        exactly once, from either the bulk pull or its patch.
        """
        n_owned = self.levels[lv].n_owned
        flat = rows.ravel()
        nvals = flat.size
        all_rows = np.concatenate([flat] + [a for a in extra_rows if a.size]) \
            if extra_rows else flat
        ghost = all_rows >= n_owned
        n_ghost_vals = int((flat >= n_owned).sum())
        per_val = nbytes_total / nvals if nvals else 0.0
        owned_rows, ghost_rows = all_rows[~ghost], all_rows[ghost]
        if owned_rows.size:
            lo, hi = self._span(owned_rows)
            t.read(FieldRef("fstar", lv), lo, hi,
                   round(per_val * (nvals - n_ghost_vals)))
        if ghost_rows.size:
            lo, hi = self._span(ghost_rows)
            t.read(FieldRef("fghost", lv), lo, hi, round(per_val * n_ghost_vals))

    # -- kernel bodies ---------------------------------------------------------
    # Bodies are closures over their launch-time inputs (relaxation rate,
    # force, fusion flags): a launch sees the configuration it was issued
    # with, whenever a hook decides to run it.
    def _collide_into_fstar(self, lv: int, omega: float | None = None,
                            force=_EAGER) -> None:
        if omega is None:
            omega = self.omega[lv]
        if force is _EAGER:
            force = self.force[lv]
        buf = self.levels[lv]
        n = buf.n_owned
        t = self._tracer()
        if t is not None:
            nb = self.lat.q * self.itemsize * n
            t.read(FieldRef("f", lv), 0, n, nb)
            t.write(FieldRef("fstar", lv), 0, n, nb)
        self.collision.collide(buf.f[:, :n], omega,
                               out=buf.fstar[:, :n], force=force)

    def _accumulate_values(self, lv: int, mode: str = "fused") -> None:
        """Add the finer level's fresh post-collision values into our ghosts.

        ``mode`` selects the traffic attribution of the equivalent GPU
        kernel: ``"fused"`` (Collision+Accumulate — the source values sit
        in registers, the scatter is atomic), ``"scatter"`` (standalone
        fine-initiated atomic scatter) or ``"gather"`` (the original
        baseline's coarse-initiated gather, launched over ghost cells).
        The arithmetic is identical in all three.
        """
        buf = self.levels[lv]
        fine = self.levels[lv + 1]
        if buf.acc_ghost_rows.size == 0:
            return
        ng = buf.ghost_acc.shape[1]
        t = self._tracer()
        if t is not None:
            Q, i = self.lat.q, self.itemsize
            m = buf.acc_fine_rows.size
            flo, fhi = self._span(buf.acc_fine_rows)
            glo, ghi = self._span(buf.acc_ghost_rows)
            t.read(FieldRef("fstar", lv + 1), flo, fhi,
                   0 if mode == "fused" else Q * i * m)
            if mode == "gather":
                t.read(FieldRef("gacc", lv), 0, ng, Q * i * ng)
                t.write(FieldRef("gacc", lv), 0, ng, Q * i * ng)
            else:
                if mode == "scatter":
                    t.read(FieldRef("gacc", lv), 0, ng, Q * i * ng)
                t.atomic(FieldRef("gacc", lv), glo, ghi, Q * i * m)
        for q in range(self.lat.q):
            buf.ghost_acc[q] += np.bincount(
                buf.acc_ghost_rows,
                weights=fine.fstar[q, buf.acc_fine_rows],
                minlength=ng)

    def _stream_bulk(self, lv: int) -> None:
        buf = self.levels[lv]
        n = buf.n_owned
        t = self._tracer()
        if t is not None:
            self._trace_fstar_read(
                t, lv, buf.pull_rows,
                [buf.bb_cell, buf.mov_cell, buf.sl_src],
                self.lat.q * self.itemsize * n)
            t.write(FieldRef("f", lv), 0, n, self.lat.q * self.itemsize * n)
            t.meta(buf.meta_bytes)
        for q in range(self.lat.q):
            buf.f[q, :n] = buf.fstar[q, buf.pull_rows[q]]
        # boundary patches (part of the same kernel on the GPU)
        if buf.bb_q.size:
            buf.f[buf.bb_q, buf.bb_cell] = buf.fstar[buf.bb_opp, buf.bb_cell]
        if buf.mov_q.size:
            buf.f[buf.mov_q, buf.mov_cell] = (buf.fstar[buf.mov_opp, buf.mov_cell]
                                              + buf.mov_term)
        if buf.out_q.size:
            buf.f[buf.out_q, buf.out_cell] = buf.out_val
        if buf.sl_q.size:  # specular reflection off a free-slip plane
            buf.f[buf.sl_q, buf.sl_cell] = buf.fstar[buf.sl_src_q, buf.sl_src]

    def _explode_values(self, lv: int, from_ghost: bool,
                        subsumed: bool = False) -> None:
        buf = self.levels[lv]
        if buf.exp_q.size == 0:
            return
        t = self._tracer()
        if t is not None:
            m, i = buf.exp_q.size, self.itemsize
            if from_ghost:
                lo, hi = self._span(buf.exp_ghost_rows)
                t.read(FieldRef("fghost", lv), lo, hi, i * m)
            else:
                lo, hi = self._span(buf.exp_rows)
                t.read(FieldRef("fstar", lv - 1), lo, hi, i * m)
            lo, hi = self._span(buf.exp_cell)
            # fused into streaming, the write lands on entries the bulk
            # pull already paid for — no extra traffic
            t.write(FieldRef("f", lv), lo, hi, 0 if subsumed else i * m)
        if from_ghost:
            buf.f[buf.exp_q, buf.exp_cell] = buf.fstar[buf.exp_q, buf.exp_ghost_rows]
        else:
            coarse = self.levels[lv - 1]
            buf.f[buf.exp_q, buf.exp_cell] = coarse.fstar[buf.exp_q, buf.exp_rows]

    def _coalesce_values(self, lv: int, subsumed: bool = False) -> None:
        buf = self.levels[lv]
        t = self._tracer()
        if t is not None:
            i = self.itemsize
            ng = buf.ghost_acc.shape[1]
            if buf.coal_q.size:
                m = buf.coal_q.size
                lo, hi = self._span(buf.coal_src)
                t.read(FieldRef("gacc", lv), lo, hi, i * m)
                lo, hi = self._span(buf.coal_cell)
                t.write(FieldRef("f", lv), lo, hi, 0 if subsumed else i * m)
            if ng:
                t.write(FieldRef("gacc", lv), 0, ng, i * buf.ghost_acc.size)
        if buf.coal_q.size:
            buf.f[buf.coal_q, buf.coal_cell] = (buf.ghost_acc[buf.coal_q, buf.coal_src]
                                                * self.inv_navg)
        buf.ghost_acc[:] = 0.0

    def _explosion_copy_values(self, lv: int) -> None:
        """Original baseline: mirror coarse post-collision state into fine ghosts."""
        buf = self.levels[lv]
        if buf.fg_rows.size == 0:
            return
        coarse = self.levels[lv - 1]
        t = self._tracer()
        if t is not None:
            nb = self.lat.q * self.itemsize * buf.fg_rows.size
            lo, hi = self._span(buf.fg_coarse_rows)
            t.read(FieldRef("fstar", lv - 1), lo, hi, nb)
            lo, hi = self._span(buf.fg_rows)
            t.write(FieldRef("fghost", lv), lo, hi, nb)
        buf.fstar[:, buf.fg_rows] = coarse.fstar[:, buf.fg_coarse_rows]

    # -- public ops: one launch record each -------------------------------------
    def op_collide(self, lv: int, fuse_accumulate: bool = False) -> None:
        buf = self.levels[lv]
        Q, n = self.lat.q, buf.n_owned
        reads = (FieldRef("f", lv),)
        writes: tuple[FieldRef, ...] = (FieldRef("fstar", lv),)
        atomic = 0
        name = "C"
        m = 0
        if fuse_accumulate and lv > 0:
            parent = self.levels[lv - 1]
            m = parent.acc_fine_rows.size
        omega, force = self.omega[lv], self.force[lv]
        def body() -> None:
            self._collide_into_fstar(lv, omega, force)
            if fuse_accumulate and lv > 0:
                self._accumulate_values(lv - 1, mode="fused")
        if fuse_accumulate and lv > 0 and m:
            name = "CA"
            writes = writes + (FieldRef("gacc", lv - 1),)
            atomic = Q * self.itemsize * m
        self.rt.launch(name, lv, n_cells=n,
                       bytes_read=Q * self.itemsize * n,
                       bytes_written=Q * self.itemsize * n + atomic,
                       atomic_bytes=atomic, reads=reads, writes=writes, fn=body)

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
        Q = self.lat.q
        ng = parent.ghost_acc.shape[1]
        self.rt.launch(
            "A", lv,
            n_cells=(ng if gather else m),
            bytes_read=Q * self.itemsize * m + Q * self.itemsize * ng,
            bytes_written=Q * self.itemsize * (ng if gather else m),
            atomic_bytes=0 if gather else Q * self.itemsize * m,
            reads=(FieldRef("fstar", lv), FieldRef("gacc", lv - 1)),
            writes=(FieldRef("gacc", lv - 1),),
            fn=lambda: self._accumulate_values(
                lv - 1, mode="gather" if gather else "scatter"))

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
            fn=lambda: self._explosion_copy_values(lv))

    def op_stream(self, lv: int, *, fuse_explosion: bool = False,
                  fuse_coalescence: bool = False, exp_from_ghost: bool = False) -> None:
        """Streaming kernel, optionally fused with Explosion and/or Coalescence."""
        buf = self.levels[lv]
        Q, n = self.lat.q, buf.n_owned
        name = "S"
        reads = [FieldRef("fstar", lv)]
        if buf.pulls_fghost:
            # original baseline: the pull gathers from the fine-ghost
            # layers the Explosion copy just filled
            reads.append(FieldRef("fghost", lv))
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
        def body() -> None:
            self._stream_bulk(lv)
            if do_exp:
                self._explode_values(lv, exp_from_ghost, subsumed=True)
            if do_coal:
                self._coalesce_values(lv, subsumed=True)
        self.rt.launch(name, lv, n_cells=n, bytes_read=br, bytes_written=bw,
                       reads=tuple(reads), writes=tuple(writes), fn=body)

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
            fn=lambda: self._explode_values(lv, exp_from_ghost))

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
            fn=lambda: self._coalesce_values(lv))

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
            m = parent.acc_fine_rows.size
            if m:
                atomic = Q * self.itemsize * m
                writes.append(FieldRef("gacc", lv - 1))
            if buf.exp_q.size:
                reads.append(FieldRef("fstar", lv - 1))
        omega, force = self.omega[lv], self.force[lv]
        def run() -> None:
            self._collide_into_fstar(lv, omega, force)
            if lv > 0:
                self._accumulate_values(lv - 1, mode="fused")
            self._stream_bulk(lv)
            self._explode_values(lv, from_ghost=False, subsumed=True)

        def body() -> None:
            t = self._tracer()
            if t is None:
                run()
            else:
                # the post-collision intermediate lives in registers: its
                # accesses are invisible to DRAM and to the declarations
                with t.suppress(FieldRef("fstar", lv)):
                    run()
        self.rt.launch("CASE", lv, n_cells=n,
                       bytes_read=Q * self.itemsize * n + self.itemsize * buf.exp_q.size + buf.meta_bytes,
                       bytes_written=Q * self.itemsize * n + atomic,
                       atomic_bytes=atomic,
                       reads=tuple(reads), writes=tuple(writes), fn=body)

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

        Each item carries the rows whose ``f``/``fstar`` populations are
        non-finite (with one offending value per row, for diagnostics),
        plus density and velocity magnitude.  Consumed by the
        observability watchdog (:mod:`repro.obs.watchdog`); kept on the
        engine because only it knows the buffer/row layout.
        """
        for lv, buf in enumerate(self.levels):
            n = buf.n_owned
            scan: dict = {}
            healthy = True
            for fname in ("f", "fstar"):
                arr = getattr(buf, fname)[:, :n]
                finite = np.isfinite(arr)
                bad = np.nonzero(~finite.all(axis=0))[0]
                scan[f"nonfinite_{fname}"] = bad
                if bad.size:
                    healthy = False
                    first_q = np.argmax(~finite[:, bad], axis=0)
                    scan[f"{fname}_values"] = arr[first_q, bad]
                else:
                    scan[f"{fname}_values"] = arr[:0, 0]
            if healthy:
                rho, u = self.macroscopics(lv)
                scan["rho"] = rho
                scan["umag"] = np.sqrt((u * u).sum(axis=0))
            else:  # moments of non-finite populations are meaningless
                scan["rho"] = np.empty(0)
                scan["umag"] = np.empty(0)
            yield scan

    # -- observables -------------------------------------------------------------
    def macroscopics(self, lv: int) -> tuple[np.ndarray, np.ndarray]:
        """Density and velocity of the owned cells of one level.

        With a body force the velocity carries the Guo half-force shift,
        matching the collision operator's definition.
        """
        buf = self.levels[lv]
        f = buf.f[:, :buf.n_owned]
        if self.force[lv] is None:
            return macroscopics(self.lat, f)
        return self.collision._moments(f, self.force[lv])

    def total_mass(self) -> float:
        """Volume-weighted total mass in coarse-lattice units."""
        total = 0.0
        for lv, buf in enumerate(self.levels):
            vol = (0.5 ** lv) ** self.mgrid.d
            total += vol * float(buf.f[:, :buf.n_owned].sum())
        return total

    def total_momentum(self) -> np.ndarray:
        """Volume-weighted total momentum vector in coarse-lattice units."""
        mom = np.zeros(self.mgrid.d)
        for lv, buf in enumerate(self.levels):
            vol = (0.5 ** lv) ** self.mgrid.d
            mom += vol * (self.lat.ef.T @ buf.f[:, :buf.n_owned]).sum(axis=1)
        return mom
