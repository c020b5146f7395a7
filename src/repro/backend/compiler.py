"""Step-plan compiler: capture, admit, pre-resolve, pre-allocate.

Compilation of one coarse step runs in four stages:

1. **Capture** — the kernel stream is recorded in the runtime's
   plan-only mode (:meth:`~repro.neon.runtime.Runtime.capture_plan`):
   record-for-record identical to an executing step's trace, produced
   without touching a population value.
2. **Admission** — the captured stream must pass the PR-5 contract
   before any body is built: the lint pass reports zero errors, the
   fusion config is proven a legal contraction of the modified baseline
   (on the *live* engine's geometry, not a canned workload), and the
   assembled step-plan certificate validates against the stream (digest
   + hazard order).  Failure raises
   :class:`~repro.backend.base.PlanAdmissionError` — an inadmissible
   plan is never executed.
3. **Pre-resolution** — every field view and index map the kernel
   bodies need is resolved once: boundary patches, explosion/coalescence
   maps and the accumulate scatter are flattened to precomputed 1-D
   index arrays over contiguous buffer views, so a replayed body is a
   handful of ``take``/fancy-index calls instead of per-``q`` Python
   loops.  The bulk pull is one ``take`` per population row straight
   into ``f``, its bounds check hoisted here: the index rows are proven
   inside ``[0, n_used)`` once and frozen read-only, so a replay gathers
   unchecked and unbuffered.  Adjacent elementwise expressions of the
   fused CA/SE/SO/CASE kernels become a single pre-bound closure whose
   sub-expressions share those resolved operands.
4. **Scratch allocation** — AA-dropped double buffers are packed into
   slabs by the ``gpu/memory.py`` buffer arena (:func:`arena_assign`),
   and the assignment is re-checked with :func:`arena_check` before any
   slab is materialised.  No body touches memory its record does not
   declare.

Every closure reproduces the interpreted kernel body's NumPy operations
in the same order on the same operands, so compiled execution is
bit-identical to the interpreted path — the property the backend-parity
suite asserts across all fusion configs in 2D and 3D.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..analysis.certificate import build_certificate, validate_certificate
from ..analysis.lint import lint_stream
from ..analysis.static import AccessModel, LegalityProof, check_contraction
from ..gpu.memory import (BufferLifetime, arena_assign, arena_check,
                          arena_peak_bytes)
from ..neon.runtime import KernelRecord
from .base import PlanAdmissionError
from .plan import StepPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stepper import NonUniformStepper

__all__ = ["admit_stream", "compile_plan", "prove_plan_legality"]

KernelBody = Callable[[], None]


def prove_plan_legality(stepper: "NonUniformStepper",
                        records: list[KernelRecord],
                        model: AccessModel) -> LegalityProof:
    """Prove the captured stream is a legal contraction, on the live grid.

    Unlike :func:`repro.analysis.static.prove_fusion_legality` (which
    proves configs on a canonical workload), this runs the contraction
    check against a modified-baseline stream captured from the *same*
    engine — the plan is admitted for the geometry it will actually
    replay on.  The original Fig. 4a layout is a different algorithm,
    not a contraction, and keeps its ``"baseline"`` verdict.
    """
    from ..core.fusion import MODIFIED_BASELINE
    from ..core.stepper import NonUniformStepper

    cfg = stepper.config
    if cfg.original_layout:
        return LegalityProof(config=cfg.name, baseline=cfg.name,
                             verdict="baseline", pairs_checked=0,
                             primitives=0, counterexamples=())
    baseline = NonUniformStepper(stepper.engine, MODIFIED_BASELINE)
    base_records = stepper.engine.rt.capture_plan(
        lambda: baseline._advance(0))
    pairs, prims, cex = check_contraction(
        base_records, model.access_map(base_records), records,
        model.decompose)
    return LegalityProof(
        config=cfg.name, baseline=MODIFIED_BASELINE.name,
        verdict="legal" if not cex else "illegal", pairs_checked=pairs,
        primitives=prims, counterexamples=tuple(cex))


def admit_stream(stepper: "NonUniformStepper", *, workload: str = ""):
    """Capture one step's declaration stream and run plan admission.

    The shared front half of every plan-replaying backend: the stream is
    captured in plan-only mode, linted, proven a legal contraction on
    the live geometry and tied to a validated certificate.  Returns
    ``(records, certificate, lint_report)``; raises
    :class:`~repro.backend.base.PlanAdmissionError` when any part of the
    PR-5 contract fails — an inadmissible stream is never executed, in
    this process or any worker process replaying shards of it.
    """
    engine = stepper.engine
    rt = engine.rt
    records = rt.capture_plan(lambda: stepper._advance(0))
    if not records:
        raise PlanAdmissionError(["captured step stream is empty"])
    model = AccessModel(engine)
    static_map = model.access_map(records)
    lint = lint_stream(records, model, static_map=static_map)
    problems = [str(f) for f in lint.errors]
    proof = prove_plan_legality(stepper, records, model)
    if proof.verdict == "illegal":
        problems.extend(str(c) for c in proof.counterexamples[:3])
    label = workload or f"live-{engine.mgrid.d}d-{stepper.num_levels}lvl"
    cert = build_certificate(stepper.config.name, label, records, model,
                             proof, lint, steps=1, static_map=static_map)
    problems.extend(validate_certificate(cert, records))
    if problems:
        raise PlanAdmissionError(problems)
    return records, cert, lint


def compile_plan(stepper: "NonUniformStepper", *, drop_proven: bool = False,
                 workload: str = "") -> StepPlan:
    """Compile one coarse step of ``stepper`` into a :class:`StepPlan`.

    ``drop_proven`` enables AA-pattern in-place streaming: population
    double buffers the lint pass proves droppable (allocated but never
    accessed by any kernel of the stream — the CASE register file) are
    physically replaced by arena scratch instead of the engine buffer.
    """
    engine = stepper.engine
    records, cert, lint = admit_stream(stepper, workload=workload)
    label = workload or f"live-{engine.mgrid.d}d-{stepper.num_levels}lvl"

    dropped: tuple[str, ...] = ()
    if drop_proven:
        # ``fghost`` rows live in the tail of the fstar allocation; only
        # a whole-buffer fstar drop replaces physical storage.
        dropped = tuple(f.field for f in lint.opportunities
                        if f.check == "droppable-buffer"
                        and f.field.startswith("fstar@"))

    builder = _PlanBuilder(engine, stepper.config, records, dropped)
    bodies, lifetimes, arena_bytes = builder.build()
    return StepPlan(records, bodies, digest=cert["stream_digest"],
                    certificate=cert, arena=lifetimes,
                    arena_bytes=arena_bytes, dropped=dropped,
                    label=f"{stepper.config.name}/{label}")


class _Level:
    """Pre-resolved views and index maps of one level's buffers.

    Index maps flatten 2-D ``(q, row)`` addressing into precomputed 1-D
    indices over the contiguous ``(Q, n_used)`` buffers, so every kernel
    body is a single gather/scatter instead of a per-``q`` loop.  Built
    lazily: a plan only pays for the maps its stream uses.
    """

    def __init__(self, engine: Any, lv: int,
                 fstar_store: np.ndarray | None) -> None:
        buf = engine.levels[lv]
        self.lv = lv
        self.buf = buf
        self.Q = engine.lat.q
        self.n = buf.n_owned
        self.n_used = buf.n_used
        self.ng = buf.ghost_acc.shape[1]
        # row offset of population q in the flattened (Q, n_used) buffer
        self.qoff = (np.arange(self.Q, dtype=np.int64) * self.n_used)[:, None]
        self.f_flat = buf.f.reshape(-1)
        self.f_view = buf.f[:, :self.n]
        #: The array standing in for ``fstar``: the engine buffer, or an
        #: arena slab when the double buffer was proven droppable.
        self.fstar = fstar_store if fstar_store is not None else buf.fstar
        self.fstar_flat = self.fstar.reshape(-1)
        self.fstar_view = self.fstar[:, :self.n]
        self.gacc = buf.ghost_acc
        self.gacc_flat = buf.ghost_acc.reshape(-1)
        self._maps: dict[str, Any] = {}

    def map(self, key: str, make: Callable[[], Any]) -> Any:
        got = self._maps.get(key)
        if got is None:
            got = make()
            self._maps[key] = got
        return got

    def pull_rows(self) -> np.ndarray:
        """The bulk-pull index rows, bounds-proven and frozen.

        The stream body gathers with ``mode="clip"`` (NumPy buffers an
        ``out=`` gather it may have to abandon with an ``IndexError``),
        so the check a replay skips is made here, once; freezing the
        array keeps it true.
        """
        def make() -> np.ndarray:
            rows = self.buf.pull_rows
            if rows.size and (rows.min() < 0 or rows.max() >= self.n_used):
                raise PlanAdmissionError(
                    [f"level {self.lv}: bulk pull rows leave "
                     f"[0, {self.n_used}): min {rows.min()}, "
                     f"max {rows.max()}"])
            rows.setflags(write=False)
            return rows
        return self.map("pull", make)

    def patches(self) -> tuple:
        """Boundary-patch scatter maps, in interpreted apply order."""
        def make() -> tuple:
            b = self.buf
            nu = self.n_used
            bb = ((b.bb_q * nu + b.bb_cell, b.bb_opp * nu + b.bb_cell)
                  if b.bb_q.size else None)
            mov = ((b.mov_q * nu + b.mov_cell, b.mov_opp * nu + b.mov_cell,
                    b.mov_term) if b.mov_q.size else None)
            out = ((b.out_q * nu + b.out_cell, b.out_val)
                   if b.out_q.size else None)
            sl = ((b.sl_q * nu + b.sl_cell, b.sl_src_q * nu + b.sl_src)
                  if b.sl_q.size else None)
            return bb, mov, out, sl
        return self.map("patches", make)


class _PlanBuilder:
    """Builds the body closures and arena scratch of one step plan."""

    def __init__(self, engine: Any, config: Any,
                 records: list[KernelRecord],
                 dropped: tuple[str, ...]) -> None:
        self.engine = engine
        self.config = config
        self.records = records
        self.itemsize = engine.itemsize
        self.dropped_levels = {int(f.partition("@")[2]) for f in dropped}
        self._levels: dict[int, _Level] = {}
        self._scratch: dict[str, np.ndarray] = {}

    # -- arena ---------------------------------------------------------------
    def _scratch_requests(self) -> list[BufferLifetime]:
        """Scratch the plan needs, as arena lifetime requests.

        AA-dropped double buffers live for the whole step: they are the
        CASE register file between collide and stream.
        """
        last = len(self.records) - 1
        row_bytes = self.engine.lat.q * self.itemsize
        return [BufferLifetime(name=f"plan:fstar@{lv}", first=0, last=last,
                               nbytes=row_bytes * self.engine.levels[lv].n_used)
                for lv in sorted(self.dropped_levels)]

    def _allocate(self) -> tuple[list[BufferLifetime], int]:
        lifetimes = arena_assign(self._scratch_requests())
        problems = arena_check(lifetimes)
        if problems:
            raise PlanAdmissionError(
                [f"plan arena: {p}" for p in problems])
        slab_nbytes: dict[int, int] = {}
        for lt in lifetimes:
            slab_nbytes[lt.slab] = max(slab_nbytes.get(lt.slab, 0), lt.nbytes)
        dtype = self.engine.dtype
        slabs = {s: np.empty(-(-nb // self.itemsize), dtype=dtype)
                 for s, nb in slab_nbytes.items()}
        for lt in lifetimes:
            self._scratch[lt.name] = slabs[lt.slab][:lt.nbytes // self.itemsize]
        return lifetimes, arena_peak_bytes(lifetimes)

    def _level(self, lv: int) -> _Level:
        L = self._levels.get(lv)
        if L is None:
            store = None
            if lv in self.dropped_levels:
                buf = self.engine.levels[lv]
                store = self._scratch[f"plan:fstar@{lv}"].reshape(
                    self.engine.lat.q, buf.n_used)
            L = _Level(self.engine, lv, store)
            self._levels[lv] = L
        return L

    # -- kernel-body builders ------------------------------------------------
    # Each builder returns a closure reproducing the interpreted body's
    # NumPy operations in the same order on the same operands — the
    # bit-identity contract.  Empty sub-maps compile to no code, exactly
    # like the interpreted bodies' early returns.
    def _make_collide(self, lv: int, with_accumulate: bool) -> KernelBody:
        L = self._level(lv)
        collide = self.engine.collision.collide
        omega = self.engine.omega[lv]
        force = self.engine.force[lv]
        f_view, fstar_view = L.f_view, L.fstar_view
        acc = self._make_accumulate(lv) if with_accumulate else None
        if acc is None:
            def body() -> None:
                collide(f_view, omega, out=fstar_view, force=force)
            return body

        def body_ca() -> None:
            collide(f_view, omega, out=fstar_view, force=force)
            acc()
        return body_ca

    def _make_accumulate(self, fine_lv: int) -> KernelBody | None:
        """Accumulate fine level ``fine_lv`` into its parent's ghosts.

        The per-``q`` ``bincount`` loop folds into one flat ``bincount``
        over ``q``-offset bins: contributions to each bin keep their
        original order, so the float accumulation order — and therefore
        the result — is bitwise identical.
        """
        parent = self.engine.levels[fine_lv - 1]
        if parent.acc_ghost_rows.size == 0:
            return None
        P, F = self._level(fine_lv - 1), self._level(fine_lv)
        rows_flat = np.ascontiguousarray(
            ((np.arange(P.Q, dtype=np.int64) * P.ng)[:, None]
             + parent.acc_ghost_rows).reshape(-1))
        src_flat = np.ascontiguousarray(
            (F.qoff + parent.acc_fine_rows).reshape(-1))
        minlength = P.Q * P.ng
        gacc_flat, fstar_flat = P.gacc_flat, F.fstar_flat
        bincount = np.bincount

        def body() -> None:
            gacc_flat[:] += bincount(rows_flat, weights=fstar_flat[src_flat],
                                     minlength=minlength)
        return body

    def _make_stream(self, lv: int, *, do_exp: bool, do_coal: bool,
                     from_ghost: bool) -> KernelBody:
        L = self._level(lv)
        take = np.take
        rows = L.pull_rows()
        pulls = [(L.fstar[q], rows[q], L.f_view[q]) for q in range(L.Q)]
        bb, mov, out, sl = L.patches()
        f_flat, fstar_flat = L.f_flat, L.fstar_flat
        exp = self._make_explode(lv, from_ghost) if do_exp else None
        coal = self._make_coalesce(lv) if do_coal else None

        def body() -> None:
            for src, idx, dst in pulls:
                take(src, idx, out=dst, mode="clip")
            # boundary patches, in the interpreted order: the patch sets
            # may overlap at a (q, cell) and last-write-wins must hold
            if bb is not None:
                f_flat[bb[0]] = fstar_flat[bb[1]]
            if mov is not None:
                f_flat[mov[0]] = fstar_flat[mov[1]] + mov[2]
            if out is not None:
                f_flat[out[0]] = out[1]
            if sl is not None:
                f_flat[sl[0]] = fstar_flat[sl[1]]
            if exp is not None:
                exp()
            if coal is not None:
                coal()
        return body

    def _make_explode(self, lv: int, from_ghost: bool) -> KernelBody | None:
        L = self._level(lv)
        b = L.buf
        if b.exp_q.size == 0:
            return None
        dst = b.exp_q * L.n_used + b.exp_cell
        if from_ghost:
            src = b.exp_q * L.n_used + b.exp_ghost_rows
            src_flat = L.fstar_flat
        else:
            C = self._level(lv - 1)
            src = b.exp_q * C.n_used + b.exp_rows
            src_flat = C.fstar_flat
        f_flat = L.f_flat

        def body() -> None:
            f_flat[dst] = src_flat[src]
        return body

    def _make_coalesce(self, lv: int) -> KernelBody:
        L = self._level(lv)
        b = L.buf
        inv_navg = self.engine.inv_navg
        gacc, gacc_flat, f_flat = L.gacc, L.gacc_flat, L.f_flat
        if b.coal_q.size == 0:
            def reset_only() -> None:
                gacc.fill(0.0)
            return reset_only
        dst = b.coal_q * L.n_used + b.coal_cell
        src = b.coal_q * L.ng + b.coal_src

        def body() -> None:
            f_flat[dst] = gacc_flat[src] * inv_navg
            gacc.fill(0.0)
        return body

    def _make_explosion_copy(self, lv: int) -> KernelBody:
        """Original baseline's Explosion: coarse f* into fine-ghost rows."""
        L, C = self._level(lv), self._level(lv - 1)
        b = L.buf
        dst = np.ascontiguousarray((L.qoff + b.fg_rows).reshape(-1))
        src = np.ascontiguousarray((C.qoff + b.fg_coarse_rows).reshape(-1))
        fstar_flat, coarse_flat = L.fstar_flat, C.fstar_flat

        def body() -> None:
            fstar_flat[dst] = coarse_flat[src]
        return body

    def _make_case(self, lv: int) -> KernelBody:
        """The fully fused CASE substep as one pre-bound closure."""
        collide = self._make_collide(lv, with_accumulate=False)
        acc = self._make_accumulate(lv) if lv > 0 else None
        stream = self._make_stream(lv, do_exp=False, do_coal=False,
                                   from_ghost=False)
        exp = self._make_explode(lv, from_ghost=False) if lv > 0 else None

        def body() -> None:
            collide()
            if acc is not None:
                acc()
            stream()
            if exp is not None:
                exp()
        return body

    # -- dispatch ------------------------------------------------------------
    def build(self) -> tuple[list[KernelBody], list[BufferLifetime], int]:
        """Compile every record of the captured stream to a body closure."""
        lifetimes, arena_bytes = self._allocate()
        original = bool(self.config.original_layout)
        bodies: list[KernelBody] = []
        for i, rec in enumerate(self.records):
            lv, name = rec.level, rec.name
            body: KernelBody | None
            if name in ("C", "CA"):
                body = self._make_collide(lv, with_accumulate=(name == "CA"))
            elif name == "A":
                body = self._make_accumulate(lv)
            elif name == "E" and any(w.name == "fghost" for w in rec.writes):
                body = self._make_explosion_copy(lv)
            elif name == "E":
                body = self._make_explode(lv, from_ghost=original)
            elif name in ("S", "SE", "SO", "SEO"):
                body = self._make_stream(
                    lv, do_exp=name in ("SE", "SEO"),
                    do_coal=name in ("SO", "SEO"), from_ghost=original)
            elif name == "O":
                body = self._make_coalesce(lv)
            elif name == "CASE":
                body = self._make_case(lv)
            else:
                raise PlanAdmissionError(
                    [f"no compiled body for kernel {name!r} "
                     f"(record #{i}, level {lv})"])
            if body is None:
                raise PlanAdmissionError(
                    [f"kernel {name!r} (record #{i}, level {lv}) declares "
                     f"work but compiles to an empty body"])
            bodies.append(body)
        return bodies, lifetimes, arena_bytes
