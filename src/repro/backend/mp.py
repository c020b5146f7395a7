"""Process-parallel step-plan backend: escaping the GIL with shared memory.

Thread-wave replay (:meth:`StepPlan.execute
<repro.backend.plan.StepPlan.execute>` with a pool) runs dependency
waves concurrently, but every NumPy kernel body still contends for one
interpreter lock whenever it touches Python between array ops.  This
backend moves wave execution into *processes*: every level's population
buffers live in a :mod:`multiprocessing.shared_memory` segment, a
persistent pool of spawn-based workers rebuilds the same engine geometry
against those segments, and each admitted step plan is partitioned into
per-worker kernel shards replayed wave-by-wave with a process barrier
between waves.

Bit-identity is inherited, not re-derived:

* workers capture the same stream on their own engine (digest-checked
  against the parent's admission certificate) and bind the bodies its
  launches carried (:func:`~repro.backend.compiler.bind_bodies`), on
  the same shared buffers;
* the only mp-specific body is the column shard of a pure collide
  kernel — collision is a per-cell operator, so a column slice computes
  exactly the values the whole-buffer call would;
* kernels with order-sensitive float accumulation (the Accumulate
  ``bincount`` scatter, and every fused kernel containing it) are never
  split across workers.

Load balance comes from the GPU cost model: each wave's kernels are
priced with :func:`~repro.gpu.costmodel.kernel_time_us` and placed by
greedy LPT, with idle workers absorbing column shards of the most
expensive splittable kernels.

The error contract matches the other backends: a mid-step failure (or a
worker death, detected via process sentinels) surfaces as
:class:`MpWorkerError` carrying the runtime's ``kernel_span`` payload,
the partial step is closed with
:meth:`~repro.neon.runtime.Runtime.abort_step`, the pool is torn down
and respawned lazily — and the resilience ladder can step the run down
to serial in-process plan replay (see :mod:`repro.resilience.runner`).
"""

from __future__ import annotations

import os
import pickle
import traceback
import weakref
from threading import BrokenBarrierError
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from ..analysis.certificate import stream_digest
from ..gpu.costmodel import kernel_time_us
from ..gpu.device import A100_40GB
from ..neon.executor import usable_cpus
from ..neon.graph import schedule_records
from .compiler import admit_stream, bind_bodies
from .interpreted import InterpretedBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stepper import NonUniformStepper

__all__ = ["MultiprocessBackend", "MpWorkerError", "default_mp_workers"]

#: Environment variable fixing the worker count (``SimConfig.mp_workers``
#: wins when set).
WORKERS_ENV = "REPRO_MP_WORKERS"
#: Environment variable overriding the per-wave barrier timeout (seconds).
TIMEOUT_ENV = "REPRO_MP_TIMEOUT"
#: Default per-wave barrier / reply timeout in seconds.
DEFAULT_TIMEOUT = 60.0
#: Owned-cell count below which a collide kernel is not worth splitting
#: (the per-shard dispatch overhead would exceed the saved work).
MIN_SHARD_CELLS = 2048

#: Buffer fields of one :class:`~repro.core.engine.LevelBuffers` that
#: carry mutable simulation state and therefore live in shared memory
#: (``fghost`` where the 4a layout allocated it).
_SHARED_FIELDS = ("f", "fstar", "fghost", "ghost_acc")


def default_mp_workers() -> int:
    """Worker count: ``$REPRO_MP_WORKERS`` or a small core-count default."""
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        return max(1, int(env))
    return max(2, min(4, usable_cpus()))


class MpWorkerError(RuntimeError):
    """A worker process failed or died while replaying a step plan.

    Carries the runtime's shared ``kernel_span`` error contract, so the
    resilience runner treats it like any other kernel-body failure:
    roll back, retry, and eventually step down the degradation ladder
    (mp -> serial).
    """

    def __init__(self, message: str, *, worker: int | None = None,
                 span: dict | None = None) -> None:
        super().__init__(message)
        self.worker = worker
        self.kernel_span = span if span is not None else {
            "index": -1, "name": "?", "level": -1, "n_cells": 0,
            "start": 0.0, "dur_us": 0.0}


# -- plan partitioning ---------------------------------------------------------

def _partition(records, waves, n_workers,
               device=A100_40GB) -> list[list[list[tuple[int, int, int]]]]:
    """Assign every wave's kernels (or shards of them) to workers.

    Returns ``assignment[worker][wave] = [(record_index, lo, hi), ...]``
    with ``lo == hi == -1`` for a whole kernel and an owned-cell column
    range for a collide shard.  Per wave: each splittable pure-collide
    kernel may be cut into column shards to occupy otherwise-idle
    workers, then all items are placed by greedy LPT using the cost
    model as the pricing oracle.
    """
    assignment: list[list[list[tuple[int, int, int]]]] = [
        [[] for _ in waves] for _ in range(n_workers)]
    for w, wave in enumerate(waves):
        costs = {i: kernel_time_us(records[i], device).time_us for i in wave}
        shares = {i: 1 for i in wave}
        extra = n_workers - len(wave)
        if extra > 0:
            splittable = sorted(
                (i for i in wave if records[i].name == "C"
                 and records[i].n_cells >= MIN_SHARD_CELLS),
                key=lambda i: -costs[i])
            k = 0
            while extra > 0 and splittable:
                shares[splittable[k % len(splittable)]] += 1
                extra -= 1
                k += 1
        items: list[tuple[float, int, int, int]] = []
        for i in wave:
            rec = records[i]
            if shares[i] == 1:
                items.append((costs[i], i, -1, -1))
                continue
            bounds = np.linspace(0, rec.n_cells, shares[i] + 1).astype(int)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if hi > lo:
                    items.append((costs[i] * (hi - lo) / rec.n_cells,
                                  i, int(lo), int(hi)))
        items.sort(key=lambda it: -it[0])
        loads = [0.0] * n_workers
        for cost, i, lo, hi in items:
            tgt = min(range(n_workers), key=loads.__getitem__)
            loads[tgt] += cost
            assignment[tgt][w].append((i, lo, hi))
    return assignment


class _MpPlan:
    """Parent-side handle of one admitted, partitioned step plan."""

    __slots__ = ("plan_id", "records", "digest", "n_waves", "assignment",
                 "certificate", "pool_gen", "replays")

    def __init__(self, plan_id: int, records, digest: str, n_waves: int,
                 assignment, certificate: dict) -> None:
        self.plan_id = plan_id
        self.records = tuple(records)
        self.digest = digest
        self.n_waves = n_waves
        self.assignment = assignment
        self.certificate = certificate
        self.pool_gen = -1   # pool generation the plan was distributed to
        self.replays = 0


# -- worker process ------------------------------------------------------------

def _attach_shared(levels, shm, manifest) -> None:
    """Swap each level's state buffers to views over the shared segment."""
    for lv, fname, shape, off in manifest:
        buf = levels[lv]
        cur = getattr(buf, fname)
        if getattr(cur, "shape", None) != tuple(shape):
            raise ValueError(
                f"shared-memory manifest mismatch: {fname}@{lv} is "
                f"{getattr(cur, 'shape', 'unallocated')}, manifest says "
                f"{tuple(shape)}")
        setattr(buf, fname, np.ndarray(shape, dtype=cur.dtype,
                                       buffer=shm.buf, offset=off))


def _shard_collide(engine, rec, lo: int, hi: int):
    """Body computing columns ``[lo, hi)`` of one pure collide kernel.

    The slice is bitwise identical to the same columns of the whole-buffer
    call the interpreted path makes — not because collision is per-cell
    (BLAS rounds a product's edge columns differently) but because
    ``collide`` runs every matrix product on a 64-column-aligned, padded
    block, so a cell's result does not depend on where its column sits in
    a call (DESIGN.md section 17, decision 2).  ``_partition`` may
    therefore cut anywhere.
    """
    lv = rec.level
    return engine.collide_columns(lv, lo, hi, engine.omega[lv], engine.force[lv])


def _build_shards(engine, records, bodies, waves_assignment):
    """Resolve one worker's wave assignment to executable (idx, body, rec)."""
    out = []
    for wave_items in waves_assignment:
        row = []
        for idx, lo, hi in wave_items:
            rec = records[idx]
            body = bodies[idx] if lo < 0 else _shard_collide(engine, rec,
                                                             lo, hi)
            row.append((idx, body, rec))
        out.append(row)
    return out


def _worker_main(worker_id: int, blob: bytes, conn, barrier,
                 timeout: float) -> None:
    """Entry point of one spawned worker (module-level: spawn pickles by
    reference, so this must stay importable as ``repro.backend.mp``)."""
    try:
        from multiprocessing import shared_memory

        from ..core.engine import Engine
        from ..core.stepper import NonUniformStepper

        setup = pickle.loads(blob)
        # Attaching re-registers the segment with the resource tracker
        # (bpo-39959).  Spawned children share the parent's tracker and
        # its cache is a set, so the duplicate registration is a no-op
        # and the parent's unlink clears the single entry; unregistering
        # here would instead strip the parent's own registration.
        shm = shared_memory.SharedMemory(name=setup["shm"])
        engine = Engine(setup["mgrid"], setup["collision"], omega0=1.0)
        # the pool shards across processes: no threads inside a worker
        engine.split_width = 1
        # the stepper allocates what its layout addresses (4a: fghost)
        # before the parent's layout of the segment is checked against it
        stepper = NonUniformStepper(engine, setup["fusion"])
        _attach_shared(engine.levels, shm, setup["manifest"])
        plans: dict[int, tuple[int, list]] = {}
        conn.send(("ready", worker_id, None))
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "exit":
                break
            if kind == "plan":
                _, plan_id, payload = msg
                try:
                    engine.omega = list(payload["omega"])
                    engine.force = [None if fv is None else np.asarray(fv)
                                    for fv in payload["force"]]
                    handles: list = []
                    records = engine.rt.capture_plan(
                        lambda: stepper._advance(0), handles)
                    mine = stream_digest(records)
                    if mine != payload["digest"]:
                        conn.send(("plan-err", plan_id,
                                   ("digest", f"worker stream digest {mine} "
                                    f"!= parent {payload['digest']}")))
                        continue
                    plans[plan_id] = (payload["n_waves"], _build_shards(
                        engine, records, bind_bodies(records, handles),
                        payload["waves"]))
                    conn.send(("plan-ok", plan_id, None))
                except Exception:
                    conn.send(("plan-err", plan_id,
                               ("build", traceback.format_exc())))
            elif kind == "step":
                _, plan_id, _payload = msg
                n_waves, shards = plans[plan_id]
                err = None
                busy = 0.0
                times: list[tuple[int, float, float]] = []
                for w in range(n_waves):
                    try:
                        for idx, body, rec in shards[w]:
                            t0 = perf_counter()
                            body()
                            dt = perf_counter() - t0
                            busy += dt
                            times.append((idx, t0, dt * 1e6))
                    except BaseException as exc:
                        barrier.abort()
                        err = {"index": idx, "name": rec.name,
                               "level": rec.level, "n_cells": rec.n_cells,
                               "error": f"{type(exc).__name__}: {exc}"}
                        break
                    try:
                        barrier.wait(timeout)
                    except BrokenBarrierError:
                        err = {"index": None,
                               "error": "wave barrier broken by a peer"}
                        break
                if err is None:
                    conn.send(("done", plan_id,
                               {"busy_ms": busy * 1e3,
                                "kernels": len(times), "times": times}))
                else:
                    conn.send(("err", plan_id, err))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass
    except BaseException:
        try:
            conn.send(("fatal", -1, traceback.format_exc()))
        except Exception:
            pass


# -- parent-side cleanup helpers (module-level: weakref finalizers must
# not retain the backend instance) --------------------------------------------

def _shutdown_procs(procs, conns) -> None:
    for c in conns:
        try:
            c.send(("exit", None, None))
        except (OSError, ValueError, BrokenPipeError):
            pass
    for p in procs:
        p.join(timeout=2.0)
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(timeout=2.0)
    for c in conns:
        try:
            c.close()
        except OSError:
            pass


def _release_shm(shm) -> None:
    try:
        shm.close()
    except BufferError:  # a stray view is still alive; unlink regardless
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


class MultiprocessBackend:
    """Process-parallel replay of admitted step plans over shared memory.

    Lifecycle: the first executed step builds the shared-memory arena
    (swapping the engine's level buffers to views over it — restores and
    interpreted fallback steps keep working in place), spawns the worker
    pool and distributes the admitted plan; later steps of the same
    shape replay with one round of pipe messages and one process barrier
    per wave.  ``close()`` (called by ``Simulation.close``) stops the
    pool, copies the state back into private arrays and unlinks the
    segment.

    The capture modes of the reference launch path (access tracer,
    plan-only) run a step on the interpreted backend — counted, never
    silent — and so does an installed fault injector (see
    :meth:`_must_fall_back`).  Span recorders keep working: workers
    report per-kernel wall times (``perf_counter`` is CLOCK_MONOTONIC,
    comparable across processes on one host) and the parent republishes
    them through ``on_launch``.
    """

    name = "mp"

    def __init__(self, workers: int | None = None) -> None:
        from multiprocessing import get_context
        self.workers = int(workers) if workers else default_mp_workers()
        self._ctx = get_context("spawn")
        self._fallback = InterpretedBackend()
        self._procs: list = []
        self._conns: list = []
        self._barrier = None
        self._shm = None
        self._manifest: list | None = None
        self._engine = None
        self._plans: dict[tuple, _MpPlan] = {}
        self._next_plan_id = 0
        self._pool_gen = 0
        self._ever_ready = False
        self._disabled: str | None = None
        self._timeout = DEFAULT_TIMEOUT
        self._proc_finalizer = None
        self._shm_finalizer = None
        #: Counters surfaced through ``repro.obs.metrics.run_metrics``.
        self.stats: dict[str, float] = {
            "plan_cache_hits": 0,
            "plan_cache_misses": 0,
            "plan_fallback_steps": 0,
            "plan_compile_seconds": 0.0,
            "mp_workers": 0,
            "mp_steps": 0,
            "mp_step_wall_ms": 0.0,
            "mp_worker_busy_ms": 0.0,
            "mp_shard_imbalance": 0.0,
            "mp_ipc_overhead_ms": 0.0,
            "mp_setup_seconds": 0.0,
            "mp_worker_restarts": 0,
        }

    # -- configuration seam ----------------------------------------------------
    def configure(self, config) -> None:
        """Apply ``SimConfig`` knobs (called by ``Simulation.__init__``)."""
        mp_workers = getattr(config, "mp_workers", None)
        if mp_workers:
            self.workers = int(mp_workers)

    # -- step ------------------------------------------------------------------
    def _must_fall_back(self, stepper: "NonUniformStepper") -> bool:
        """True while a capture mode or a fault injector is installed.

        Kernel bodies live in the worker processes, out of reach of an
        in-process injector; this backend's own fault domain — worker
        death — is injected on the pool path itself.
        """
        rt = stepper.engine.rt
        return (rt.plan_only or rt.tracer is not None
                or rt.faults is not None)

    def step(self, stepper: "NonUniformStepper") -> None:
        """Advance one coarse step on the worker pool (or counted fallback)."""
        rt = stepper.engine.rt
        if self._disabled is not None or self._must_fall_back(stepper):
            self.stats["plan_fallback_steps"] += 1
            self._fallback.step(stepper)
            return
        try:
            self._ensure_pool(stepper)
        except Exception as exc:
            if self._ever_ready:
                raise  # a previously-working pool failed to respawn
            # The environment cannot host the pool at all (no /dev/shm,
            # unpicklable setup, spawn refused): permanent counted
            # fallback rather than paying the failure every step.
            self._disable(f"{type(exc).__name__}: {exc}")
            self.stats["plan_fallback_steps"] += 1
            self._fallback.step(stepper)
            return
        plan = self._obtain_plan(stepper)
        try:
            self._replay(stepper, plan)
            rt.step_marker()
        except BaseException:
            rt.abort_step()
            raise
        stepper.steps_done += 1

    def _disable(self, reason: str) -> None:
        self._disabled = reason
        self._teardown_pool()
        self.stats["mp_workers"] = 0

    # -- shared-memory arena ---------------------------------------------------
    def _build_arena(self, engine) -> None:
        from multiprocessing import shared_memory
        fields = [(lv, fname, getattr(buf, fname))
                  for lv, buf in enumerate(engine.levels)
                  for fname in _SHARED_FIELDS if getattr(buf, fname) is not None]
        total = sum(arr.nbytes for _, _, arr in fields)
        shm = shared_memory.SharedMemory(create=True, size=max(1, total))
        manifest: list[tuple[int, str, tuple, int]] = []
        off = 0
        for lv, fname, arr in fields:
            view = np.ndarray(arr.shape, dtype=arr.dtype,
                              buffer=shm.buf, offset=off)
            view[:] = arr
            setattr(engine.levels[lv], fname, view)
            manifest.append((lv, fname, arr.shape, off))
            off += arr.nbytes
        self._shm = shm
        self._manifest = manifest
        self._engine = engine
        self._shm_finalizer = weakref.finalize(self, _release_shm, shm)

    def _close_arena(self) -> None:
        if self._shm is None:
            return
        if self._engine is not None:
            # Swap private copies back in so the simulation stays usable
            # after close() and no view pins the segment open.
            for lv, fname, _shape, _off in self._manifest:
                buf = self._engine.levels[lv]
                setattr(buf, fname, np.array(getattr(buf, fname)))
        if self._shm_finalizer is not None:
            self._shm_finalizer.detach()
            self._shm_finalizer = None
        _release_shm(self._shm)
        self._shm = None
        self._manifest = None
        self._engine = None

    # -- pool lifecycle --------------------------------------------------------
    def _ensure_pool(self, stepper: "NonUniformStepper") -> None:
        engine = stepper.engine
        if self._engine is not None and self._engine is not engine:
            # The backend was handed a different simulation: rebind.
            self._teardown_pool()
            self._close_arena()
            self._plans.clear()
        if self._shm is None:
            self._build_arena(engine)
        if not self._procs:
            self._spawn(stepper)

    def _spawn(self, stepper: "NonUniformStepper") -> None:
        t0 = perf_counter()
        engine = stepper.engine
        blob = pickle.dumps({
            "mgrid": engine.mgrid,
            "collision": engine.collision,
            "fusion": stepper.config,
            "shm": self._shm.name,
            "manifest": self._manifest,
        })
        self._timeout = float(os.environ.get(TIMEOUT_ENV, "").strip()
                              or DEFAULT_TIMEOUT)
        self._barrier = self._ctx.Barrier(self.workers)
        procs, conns = [], []
        try:
            for i in range(self.workers):
                parent_conn, child_conn = self._ctx.Pipe()
                p = self._ctx.Process(
                    target=_worker_main, name=f"repro-mp-{i}",
                    args=(i, blob, child_conn, self._barrier, self._timeout),
                    daemon=True)
                p.start()
                child_conn.close()
                procs.append(p)
                conns.append(parent_conn)
        except BaseException:
            _shutdown_procs(procs, conns)
            raise
        self._procs, self._conns = procs, conns
        self._pool_gen += 1
        self._proc_finalizer = weakref.finalize(
            self, _shutdown_procs, list(procs), list(conns))
        self._collect()  # ready handshakes (raises on a dead worker)
        self._ever_ready = True
        self.stats["mp_setup_seconds"] += perf_counter() - t0
        self.stats["mp_workers"] = self.workers

    def _teardown_pool(self) -> None:
        if self._proc_finalizer is not None:
            self._proc_finalizer.detach()
            self._proc_finalizer = None
        if self._procs or self._conns:
            _shutdown_procs(self._procs, self._conns)
        self._procs, self._conns, self._barrier = [], [], None

    def _restart(self, rt) -> None:
        """Tear the pool down after a step failure; respawn lazily."""
        self._teardown_pool()
        self.stats["mp_worker_restarts"] += 1
        self._emit(rt, "mp_restart", restarts=self.stats["mp_worker_restarts"])

    def close(self) -> None:
        """Stop the pool, copy state out of shared memory, unlink it."""
        self._teardown_pool()
        self._close_arena()
        self._plans.clear()

    # -- plan admission / distribution ----------------------------------------
    def _plan_key(self, stepper: "NonUniformStepper") -> tuple:
        # No state_epoch: checkpoint restores write the shared buffers in
        # place, so a distributed plan's worker bindings stay valid.
        engine = stepper.engine
        force_key = tuple(None if fv is None else tuple(float(c) for c in fv)
                          for fv in engine.force)
        return (stepper.config, tuple(engine.omega), force_key)

    def _obtain_plan(self, stepper: "NonUniformStepper") -> _MpPlan:
        key = self._plan_key(stepper)
        plan = self._plans.get(key)
        if plan is None:
            t0 = perf_counter()
            records, cert, _lint = admit_stream(stepper)
            waves = schedule_records(records)
            assignment = _partition(records, waves, self.workers)
            plan = _MpPlan(self._next_plan_id, records,
                           cert["stream_digest"], len(waves), assignment,
                           cert)
            self._next_plan_id += 1
            dt = perf_counter() - t0
            self.stats["plan_cache_misses"] += 1
            self.stats["plan_compile_seconds"] += dt
            self._plans[key] = plan
            self._emit(stepper.engine.rt, "mp_plan",
                       label=f"{stepper.config.name}", digest=plan.digest,
                       kernels=len(records), waves=plan.n_waves,
                       workers=self.workers, seconds=dt)
        else:
            self.stats["plan_cache_hits"] += 1
        if plan.pool_gen != self._pool_gen:
            self._distribute(stepper, plan)
        return plan

    def _distribute(self, stepper: "NonUniformStepper", plan: _MpPlan) -> None:
        engine = stepper.engine
        omega = [float(o) for o in engine.omega]
        force = [None if fv is None else np.asarray(fv)
                 for fv in engine.force]
        for i in range(len(self._conns)):
            self._send(i, ("plan", plan.plan_id, {
                "omega": omega, "force": force, "digest": plan.digest,
                "n_waves": plan.n_waves, "waves": plan.assignment[i]}))
        replies = self._collect()
        for i, (kind, _pid, payload) in enumerate(replies):
            if kind != "plan-err":
                continue
            why, detail = payload
            self._restart(engine.rt)
            if why == "digest":
                from .base import PlanAdmissionError
                raise PlanAdmissionError(
                    [f"worker {i} rejected plan {plan.plan_id}: {detail}"])
            raise MpWorkerError(
                f"worker {i} failed to build plan {plan.plan_id}: {detail}",
                worker=i)
        plan.pool_gen = self._pool_gen

    # -- replay ----------------------------------------------------------------
    def _replay(self, stepper: "NonUniformStepper", plan: _MpPlan) -> None:
        rt = stepper.engine.rt
        t_step = perf_counter()
        for i in range(len(self._conns)):
            self._send(i, ("step", plan.plan_id, None))
        replies = self._collect()
        wall_ms = (perf_counter() - t_step) * 1e3
        errs = [(i, payload) for i, (kind, _pid, payload)
                in enumerate(replies) if kind == "err"]
        if errs:
            self._fail(rt, plan, errs)
        plan.replays += 1
        self._account(wall_ms, [payload for _k, _p, payload in replies])
        self._publish(rt, plan, [payload for _k, _p, payload in replies],
                      t_step)

    def _fail(self, rt, plan: _MpPlan, errs) -> None:
        real = [(i, e) for i, e in errs if e.get("index") is not None]
        if real:
            worker, e = min(real, key=lambda it: it[1]["index"])
            idx = e["index"]
            # Waves before the failing one completed on every worker;
            # keep their records, like in-process plan replay.
            rt.records.extend(plan.records[:idx])
            span = {"index": len(rt.records), "name": e["name"],
                    "level": e["level"], "n_cells": e["n_cells"],
                    "start": 0.0, "dur_us": 0.0}
            message = (f"worker {worker} failed in kernel {e['name']} "
                       f"(level {e['level']}): {e['error']}")
        else:
            worker, e = errs[0]
            span = {"index": len(rt.records), "name": "?", "level": -1,
                    "n_cells": 0, "start": 0.0, "dur_us": 0.0}
            message = f"worker {worker}: {e['error']}"
        self._restart(rt)
        raise MpWorkerError(message, worker=worker, span=span)

    def _account(self, wall_ms: float, stats_list) -> None:
        busy = [st["busy_ms"] for st in stats_list]
        total_busy = sum(busy)
        self.stats["mp_steps"] += 1
        self.stats["mp_step_wall_ms"] += wall_ms
        self.stats["mp_worker_busy_ms"] += total_busy
        mean = total_busy / len(busy) if busy else 0.0
        if mean > 0:
            self.stats["mp_shard_imbalance"] = max(
                self.stats["mp_shard_imbalance"], max(busy) / mean)
        if busy:
            self.stats["mp_ipc_overhead_ms"] += max(0.0, wall_ms - max(busy))

    def _publish(self, rt, plan: _MpPlan, stats_list, t_step: float) -> None:
        """Append the plan's records (span-aware, like plan replay)."""
        spans = rt.spans
        if spans is None:
            rt.records.extend(plan.records)
            return
        merged: dict[int, tuple[float, float]] = {}
        for st in stats_list:
            for idx, t0, dur_us in st["times"]:
                end = t0 + dur_us / 1e6
                got = merged.get(idx)
                merged[idx] = (t0, end) if got is None else (
                    min(got[0], t0), max(got[1], end))
        base = len(rt.records)
        for i, rec in enumerate(plan.records):
            t0, end = merged.get(i, (t_step, t_step))
            rt.records.append(rec)
            spans.on_launch(base + i, rec, t0, max(0.0, end - t0))

    # -- pool I/O --------------------------------------------------------------
    def _send(self, i: int, message: tuple) -> None:
        """Send to worker ``i``; a broken pipe is a worker death."""
        try:
            self._conns[i].send(message)
        except (BrokenPipeError, OSError):
            self._death(i, f"worker {i} died before receiving "
                        f"{message[0]!r} (exit code "
                        f"{self._procs[i].exitcode})")

    def _collect(self) -> list[tuple]:
        """One reply per worker; death/timeout becomes :class:`MpWorkerError`.

        Waits on the pipe connections *and* the process sentinels, so a
        killed worker is detected immediately instead of at the peers'
        barrier timeout.
        """
        from multiprocessing import connection
        conn_of = {c: i for i, c in enumerate(self._conns)}
        sent_of = {p.sentinel: i for i, p in enumerate(self._procs)}
        replies: list = [None] * len(self._conns)
        deadline = perf_counter() + self._timeout + 30.0
        while any(r is None for r in replies):
            pend_conns = [c for c, i in conn_of.items() if replies[i] is None]
            pend_sents = [s for s, i in sent_of.items() if replies[i] is None]
            remain = deadline - perf_counter()
            if remain <= 0:
                self._death(None, "timed out waiting for worker replies")
            ready = connection.wait(pend_conns + pend_sents, timeout=remain)
            if not ready:
                self._death(None, "timed out waiting for worker replies")
            for obj in ready:
                if obj in conn_of:
                    i = conn_of[obj]
                    try:
                        reply = obj.recv()
                    except (EOFError, OSError):
                        self._death(i, f"worker {i} closed its pipe "
                                    f"mid-step")
                    if reply[0] == "fatal":
                        rt = self._engine.rt if self._engine else None
                        self._teardown_pool()
                        if rt is not None:
                            self.stats["mp_worker_restarts"] += 1
                        raise MpWorkerError(
                            f"worker {i} hit a fatal error:\n{reply[2]}",
                            worker=i)
                    replies[i] = reply
                elif obj in sent_of:
                    i = sent_of[obj]
                    if replies[i] is None:
                        code = self._procs[i].exitcode
                        self._death(i, f"worker {i} died (exit code {code})")
        return replies

    def _death(self, worker: int | None, message: str) -> None:
        rt = self._engine.rt if self._engine is not None else None
        if rt is not None:
            self._restart(rt)
        else:  # pragma: no cover - death before the arena ever bound
            self._teardown_pool()
        span = {"index": -1, "name": "?", "level": -1, "n_cells": 0,
                "start": 0.0, "dur_us": 0.0}
        raise MpWorkerError(message, worker=worker, span=span)

    # -- telemetry -------------------------------------------------------------
    @staticmethod
    def _emit(rt, event: str, **kw) -> None:
        on_event = getattr(rt.spans, "on_event", None) \
            if rt.spans is not None else None
        if on_event is not None:
            on_event(event, **kw)
