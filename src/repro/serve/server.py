"""Async multi-tenant simulation job server.

:class:`JobServer` multiplexes many concurrent simulation jobs over a
bounded pool of worker processes.  The event loop owns scheduling,
admission, persistence and telemetry; each admitted job runs in one of
``workers`` long-lived processes that :meth:`JobServer.start` forks, as
one :class:`~repro.resilience.runner.ResilientRunner` run, so every job
gets the full per-job resilience ladder (rollback-retry, mp/threaded ->
serial, safety-omega) and jobs step on separate cores, not under one
GIL.  A worker runs one job at a time.  The runner owns checkpoint
cadence and resume; at each checkpoint boundary the worker sends the
server the job's progress and new report events over its pipe and waits
for the reply — go on, stop (server shutdown) or cancel.  The server
records the progress (it is the only writer of ``job.json`` and
``events.jsonl``), runs the ``chaos`` hook and answers.

Scheduling policy — weighted fair queueing by predicted cost
-----------------------------------------------------------

Every submission is priced by the cost-model oracle
(:func:`repro.serve.oracle.predict_cost`) before it runs.  Each tenant
carries a *virtual time*: the cost-weighted service it has received,
divided by its weight.  The dispatcher always starts the next job of the
tenant with the **lowest virtual time** (ties break on tenant name, then
priority, then submit order within the tenant), and charges that
tenant's virtual time with the job's predicted cost at dispatch.  The
result: tenants receive device time in proportion to their weights
regardless of how many or how large their jobs are — a flood of small
jobs from one tenant cannot starve another's single big one.  A tenant
first seen mid-flight starts at the minimum live virtual time, so
late joiners neither monopolize nor wait out the backlog.

Durability
----------

A job's one record, ``job.json`` (its :class:`~repro.serve.spec.JobStatus`
and its :class:`~repro.serve.spec.JobSpec` as JSON), and its checkpoints
live under ``<root>/jobs/<job_id>/`` (:mod:`repro.serve.state`).  Worker
death — the worker process exits
(its pipe reaches EOF), or the server SIGKILLs it because the ``chaos``
hook raised or a boundary's record could not be written — requeues the
job (bounded by ``max_restarts``), and the dispatcher forks a
replacement before its next dispatch; the job's next
runner resumes from the newest checkpoint generation.  An exception
escaping the resilience machinery inside a worker is handled the same
way, but the process lives on.  ``stop()`` interrupts running jobs at
their next checkpoint boundary, records them as ``queued`` and ends
every worker process; a new server on the same root re-admits them on
``start()`` — that is the restart-resume path, and recovery is
bit-identical to an uninterrupted run because the engine is
deterministic and checkpoints are verbatim.

Telemetry
---------

Every job writes its lifecycle to the unified event log
(:mod:`repro.obs.log`) under its own run id with per-tenant labels; all
jobs share one ``events.jsonl`` sink in the server root, written on the
event-loop thread.  The ``running`` note names the worker's ``pid``.  A
job's ``resilience`` lines are its runner's ``RunResult.events``
(resume / retry / rollback / degrade), forwarded at each checkpoint
boundary and at the end of the run, plus the server's own
``worker-death``.  :meth:`JobServer.fleet_summary` renders the
per-tenant health snapshot from the job records
(:func:`~repro.serve.state.fleet_tables`; also written to
``fleet_summary.json`` on ``stop()``).
"""

from __future__ import annotations

import asyncio
import os
import pickle
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..core.results import RunResult
from ..gpu.device import A100_40GB, DeviceSpec
from ..io.checkpoint import CheckpointStore, atomic_write
from ..obs.log import EventLog, append_lines
from ..resilience.runner import ResilientRunner, RetryExhausted, RetryPolicy
from .cache import GridCache
from .oracle import JobCost, predict_cost
from .spec import (TERMINAL_STATES, AdmissionError, JobCancelled, JobResult,
                   JobSpec, JobStatus, UnknownJobError, WorkerKilled)
from .state import (CKPT_DIR, fleet_tables, job_dir, scan_jobs, state_digest,
                    write_job_state)

__all__ = ["JobServer"]


class _Interrupted(RuntimeError):
    """Server shutdown reached a worker at a checkpoint (not a failure)."""


class _JobFailed(RuntimeError):
    """The job itself is unrecoverable (retry budget + ladder exhausted)."""


#: The :class:`JobStatus` fields a worker reports; the server owns the rest.
_PROGRESS = ("steps_done", "checkpoints", "retries", "rollback_steps",
             "degradations", "seconds", "first_step_s")

#: Bytes of built grids (arrays and index maps) each worker process keeps
#: (:class:`~repro.serve.cache.GridCache`); the ledger's four served
#: geometries hold about 6 MB.
GRID_CACHE_BYTES = 32 << 20


@dataclass
class _Job:
    """Server-internal bookkeeping for one submitted job."""

    spec: JobSpec
    status: JobStatus
    submitted_seq: int
    log: EventLog
    encoded: dict  # spec.as_dict(), once: every job.json write holds it
    queued_at: float = field(default_factory=time.perf_counter)
    cancel_requested: bool = False
    done_event: asyncio.Event = field(default_factory=asyncio.Event)
    result: JobResult | None = None
    flushed_lines: int = 0


@dataclass
class _Worker:
    """One forked worker process and the server's end of its pipe."""

    process: Any
    conn: Any
    killed: bool = False

    @property
    def pid(self) -> int:
        return self.process.pid


def _worker_main(conn, root: str, faults, inherited: list) -> None:
    """A worker process: serve the jobs its pipe sends until the sentinel.

    Forked by :meth:`JobServer.start`, so it shares the server's imports
    and ``faults`` factory.  The server decides when it ends (sentinel,
    EOF, SIGKILL), so SIGINT is ignored.  The server's pipe ends it
    inherited — its own and those of the workers forked before it — are
    closed here, so that EOF reaches it when the server hangs up.  The
    worker keeps the grids its jobs built (:class:`GridCache`, under
    :data:`GRID_CACHE_BYTES`): it starts cold, and only it holds them.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    grids = GridCache(GRID_CACHE_BYTES)
    try:
        while (job := conn.recv()) is not None:
            conn.send(_serve_job(conn, root, faults, grids, *job))
    except (EOFError, OSError):
        pass  # the server is gone
    finally:
        conn.close()


def _hang_up(workers: list) -> None:
    """Close the server's pipe ends; each idle worker then reads EOF."""
    for worker in workers:
        worker.conn.close()


def _serve_job(conn, root: str, faults, grids: GridCache, spec: JobSpec,
               st: JobStatus) -> tuple:
    """Worker-process body: run one job to its target in one runner run.

    The job's grid comes from ``grids`` (a ``grid`` note says whether it
    was cached).  At each checkpoint boundary it sends ``("boundary", progress,
    notes)`` and obeys the reply (``"go"``, ``"stop"``, ``"cancel"``).
    Returns ``("end", progress, notes, error, digest, run)``: ``error``
    is ``None`` when the job is done, else the exception that ended it —
    :class:`JobCancelled`, :class:`_Interrupted` (server stopping),
    :class:`_JobFailed` (retry budget + ladder exhausted) or any other,
    which the server treats as worker death.  ``progress`` holds the
    :data:`_PROGRESS` fields of ``st``; ``notes`` are event-log lines
    for the server to write.
    """
    notes: list = []
    # This worker's run adds to what the record holds from earlier ones.
    before = replace(st, degradations=list(st.degradations))
    t0 = time.perf_counter()

    def progress() -> dict:
        st.seconds = before.seconds + time.perf_counter() - t0
        return {key: getattr(st, key) for key in _PROGRESS}

    def take_notes() -> list:
        out = notes[:]
        notes.clear()
        return out

    runner = None
    try:
        grid, cached = grids.get(spec.spec, spec.config.lattice)
        notes.append(("note", {"message": "grid", "cached": cached}))
        store = CheckpointStore(
            os.path.join(job_dir(root, spec.job_id), CKPT_DIR), keep=3)
        policy = RetryPolicy(checkpoint_every=spec.checkpoint_every,
                             max_retries=spec.max_retries)
        runner = ResilientRunner(spec.spec, spec.config, policy=policy,
                                 store=store, grid=grid,
                                 faults=faults(spec) if faults else None)
        forwarded = 0  # run events already in ``notes``
        st.steps_done = runner.sim.steps_done

        def record(run: RunResult) -> None:
            """Forward the run's new events as ``resilience`` lines and
            fold the run so far into the job's record."""
            nonlocal forwarded
            for event in run.events[forwarded:]:
                data = dict(event)
                notes.append(("resilience", {"event": data.pop("name"), **data}))
            forwarded = len(run.events)
            if run.first_step_s is not None:
                st.first_step_s = (before.first_step_s + run_start
                                   + run.first_step_s)
            if runner.sim.steps_done == st.steps_done:
                return  # no checkpoint since the last record
            st.steps_done = runner.sim.steps_done
            st.checkpoints = before.checkpoints + run.checkpoints
            st.retries = before.retries + run.retries
            st.rollback_steps = before.rollback_steps + run.rollback_steps
            st.degradations = before.degradations + run.degradations
            notes.append(("note", {"message": "checkpointed",
                                   "step": st.steps_done}))

        def boundary(run: RunResult) -> None:
            record(run)
            conn.send(("boundary", progress(), take_notes()))
            reply = conn.recv()
            if reply == "stop":
                raise _Interrupted()
            if reply == "cancel":
                raise JobCancelled(spec.job_id)

        run_start = time.perf_counter() - t0
        try:
            run = runner.run(spec.steps - runner.sim.steps_done,
                             on_checkpoint=boundary)
        except RetryExhausted as exc:
            raise _JobFailed(str(exc)) from exc
        record(run)
        return ("end", progress(), take_notes(), None,
                state_digest(runner.sim), run)
    except Exception as exc:
        return ("end", progress(), take_notes(), _portable(exc), None, None)
    finally:
        if runner is not None:
            runner.close()


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives the pipe's pickling, else a stand-in naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


class JobServer:
    """Simulation-as-a-service: submit jobs, await results.

    Parameters
    ----------
    root:
        Durable state directory (jobs, checkpoints, event sink, fleet
        summary).  ``None`` uses a self-cleaning temporary directory —
        fine for tests, pointless for restart-resume.
    workers:
        Concurrent jobs: the number of worker processes ``start()``
        forks, each running one job at a time.  Each job may additionally
        be threaded/mp internally per its own ``SimConfig``.
    max_queued_per_tenant:
        Admission bound on one tenant's live (non-terminal) jobs.
    max_outstanding_cost_us:
        Admission bound on the fleet's total predicted unfinished cost
        (cost-model microseconds); ``None`` disables the cap.
    tenant_weights:
        Fair-share weights (default 1.0 per tenant).
    device:
        :class:`~repro.gpu.device.DeviceSpec` the oracle prices against.
    faults:
        Optional ``factory(JobSpec) -> FaultInjector | None`` installed
        on each job's runner — the test matrix's per-job fault seam.  It
        is called in the worker process, which inherits it when
        ``start()`` forks: it must be set before ``start()``, and what it
        records stays in the worker.
    chaos:
        Optional ``hook(job_id, step)`` called in the server process at
        each checkpoint boundary a job goes on from, while the worker
        waits for the reply; if it raises, the server SIGKILLs that
        worker — a real worker death.  Test seam.
    max_restarts:
        Worker deaths tolerated per job before it is marked ``failed``.
    """

    def __init__(self, root: str | None = None, *, workers: int = 2,
                 max_queued_per_tenant: int = 64,
                 max_outstanding_cost_us: float | None = None,
                 tenant_weights: dict[str, float] | None = None,
                 device: DeviceSpec = A100_40GB,
                 faults: Callable[[JobSpec], Any] | None = None,
                 chaos: Callable[[str, int], None] | None = None,
                 max_restarts: int = 2) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._tmp = None
        if root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
            root = self._tmp.name
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.workers = int(workers)
        self.max_queued_per_tenant = int(max_queued_per_tenant)
        self.max_outstanding_cost_us = max_outstanding_cost_us
        self.tenant_weights = dict(tenant_weights or {})
        self.device = device
        self.faults = faults
        self.chaos = chaos
        self.max_restarts = int(max_restarts)

        self._jobs: dict[str, _Job] = {}
        self._queue: list[str] = []
        self._vtime: dict[str, float] = {}
        self._outstanding_cost_us = 0.0
        self._seq = 0
        self._running = False
        self._stopping = False
        self._ctx = None  # the fork context, set by start()
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._wake: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._tasks: set[asyncio.Task] = set()
        #: Dispatch order of job ids — what the fairness tests assert on.
        self.started_order: list[str] = []
        self._log_path = os.path.join(self.root, "events.jsonl")

    # -- lifecycle -------------------------------------------------------------
    async def start(self, resume: bool = True) -> "JobServer":
        """Fork the workers, start the dispatcher; optionally re-admit
        persisted jobs.

        With ``resume`` every job recorded on disk in a non-terminal
        state (a previous server stopped, or died, mid-flight) is
        re-enqueued with the status and spec its ``job.json`` holds; its
        runner restores the newest readable checkpoint generation first.
        """
        if self._running:
            raise RuntimeError("server already started")
        import multiprocessing
        from multiprocessing.util import Finalize
        self._ctx = multiprocessing.get_context("fork")
        # A server never stopped must not hang interpreter exit, which
        # joins every child: hang up on the workers first (EOF ends them).
        Finalize(self, _hang_up, args=(self._workers,), exitpriority=0)
        self._wake = asyncio.Event()
        self._stopping = False
        self._running = True
        self._fork_workers()
        if resume:
            for job_id, state in scan_jobs(self.root):
                if state.get("state") in TERMINAL_STATES or job_id in self._jobs:
                    continue
                try:
                    spec = JobSpec.from_dict(state["spec"])
                except (KeyError, TypeError, ValueError):
                    continue  # no decodable spec: not resumable, keep the dir
                job = self._admit(spec, status=JobStatus.from_dict(state))
                job.log.note("resubmitted", origin="server-restart",
                             steps_done=job.status.steps_done)
                self._flush_log(job)
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def stop(self) -> None:
        """Interrupt at checkpoint boundaries, persist, stop dispatching,
        end the workers.

        Running jobs are *not* lost: each is recorded as ``queued`` with
        its progress, and a new server on the same root resumes it from
        its last checkpoint.  Every worker gets the sentinel and is
        joined; a straggler is killed, so no worker outlives the server.
        Also writes ``fleet_summary.json``.
        """
        self._stopping = True
        self._running = False
        if self._wake is not None:
            self._wake.set()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already gone
        for worker in list(self._workers):
            self._retire(worker, timeout=5.0)
        self._idle.clear()
        self.write_fleet_summary()

    async def drain(self) -> None:
        """Wait until every submitted job reaches a terminal state."""
        while True:
            pending = [j.done_event.wait() for j in self._jobs.values()
                       if not j.status.terminal]
            if not pending:
                return
            await asyncio.gather(*pending)

    async def __aenter__(self) -> "JobServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- public API ------------------------------------------------------------
    def predict(self, spec: JobSpec) -> JobCost:
        """The oracle's price for ``spec`` on this server's device."""
        return predict_cost(spec.spec, spec.config, spec.steps, self.device)

    async def submit(self, spec: JobSpec) -> str:
        """Admit one job; return its id or raise :class:`AdmissionError`.

        Admission is synchronous: the job is priced, checked against the
        per-tenant queue bound and the fleet cost budget, persisted, and
        queued for the fair scheduler (not if its record cannot be written:
        then the job's directory is removed and the error re-raised).
        """
        if not self._running:
            raise RuntimeError("server is not started")
        if spec.job_id in self._jobs:
            raise ValueError(f"job id {spec.job_id!r} already submitted")
        tenant = str(spec.tenant)
        live = sum(1 for j in self._jobs.values()
                   if j.status.tenant == tenant and not j.status.terminal)
        if live >= self.max_queued_per_tenant:
            raise AdmissionError(
                f"tenant {tenant!r} already has {live} live jobs "
                f"(limit {self.max_queued_per_tenant})", tenant)
        cost = self.predict(spec)
        if (self.max_outstanding_cost_us is not None
                and self._outstanding_cost_us + cost.total_us
                > self.max_outstanding_cost_us):
            raise AdmissionError(
                f"fleet cost budget exceeded: outstanding "
                f"{self._outstanding_cost_us:.0f}us + job "
                f"{cost.total_us:.0f}us > "
                f"{self.max_outstanding_cost_us:.0f}us", tenant)
        job = self._admit(spec, cost=cost)
        return job.spec.job_id

    def status(self, job_id: str) -> JobStatus:
        """A snapshot of one job's lifecycle."""
        return self._get(job_id).status

    async def result(self, job_id: str) -> JobResult:
        """Wait for the job to finish; return its :class:`JobResult`."""
        job = self._get(job_id)
        await job.done_event.wait()
        assert job.result is not None
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; ``False`` if the job already finished.

        Queued jobs are cancelled immediately; running jobs stop at
        their next checkpoint boundary.
        """
        job = self._get(job_id)
        if job.status.terminal:
            return False
        if job.spec.job_id in self._queue:
            self._queue.remove(job.spec.job_id)
            self._finalize(job, "cancelled")
            return True
        job.cancel_requested = True
        return True

    def jobs(self) -> list[JobStatus]:
        """Every known job's status, in submission order."""
        ordered = sorted(self._jobs.values(), key=lambda j: j.submitted_seq)
        return [j.status for j in ordered]

    # -- admission / bookkeeping -----------------------------------------------
    def _get(self, job_id: str) -> _Job:
        try:
            return self._jobs[str(job_id)]
        except KeyError:
            raise UnknownJobError(str(job_id)) from None

    def _admit(self, spec: JobSpec, cost: JobCost | None = None,
               status: JobStatus | None = None) -> _Job:
        """Queue a new job, or with ``status`` one read back from disk."""
        if cost is None:
            cost = self.predict(spec)
        resumed = status is not None
        if status is None:
            status = JobStatus(job_id=spec.job_id, tenant=str(spec.tenant),
                               state="queued", steps=spec.steps,
                               priority=spec.priority)
        status.state = "queued"
        status.predicted_cost_us = cost.total_us
        self._seq += 1
        log = EventLog(run_id=spec.job_id, **spec.label_dict())
        job = _Job(spec=spec, status=status, submitted_seq=self._seq, log=log,
                   encoded=spec.as_dict())
        try:
            self._persist(job)
        except BaseException:
            # a directory fsync can fail after the record landed: a submit
            # that raises must leave nothing a restarted server admits
            if not resumed:
                shutil.rmtree(job_dir(self.root, spec.job_id),
                              ignore_errors=True)
            raise
        self._jobs[spec.job_id] = job
        self._queue.append(spec.job_id)
        self._outstanding_cost_us += cost.total_us
        if not resumed:
            log.emit("meta", steps=spec.steps, tenant=status.tenant,
                     priority=spec.priority,
                     predicted_cost_us=cost.total_us,
                     predicted=cost.as_dict(),
                     config=job.encoded["config"])
        self._flush_log(job)
        if self._wake is not None:
            self._wake.set()
        return job

    def _persist(self, job: _Job) -> None:
        write_job_state(job_dir(self.root, job.spec.job_id), {
            **job.status.as_dict(), "submitted_seq": job.submitted_seq,
            "updated_at": time.time(), "spec": job.encoded})

    def _flush_log(self, job: _Job) -> None:
        """Append the job's new event lines to the shared sink, in one
        ``write`` that first ends a line a killed server left torn."""
        if len(job.log.lines) == job.flushed_lines:
            return
        append_lines(self._log_path, job.log.dump(job.flushed_lines))
        job.flushed_lines = len(job.log.lines)

    # -- the fair scheduler ----------------------------------------------------
    def _weight(self, tenant: str) -> float:
        return float(self.tenant_weights.get(tenant, 1.0)) or 1.0

    def _pick_next(self) -> str:
        """Dequeue the next job under weighted fair queueing.

        Tenant choice: minimum virtual time (cost-weighted service so
        far), ties on tenant name for determinism.  Within the tenant:
        highest priority, then submit order.  The chosen tenant's
        virtual time is charged the job's predicted cost immediately, so
        consecutive picks interleave tenants even before any job ends.
        """
        by_tenant: dict[str, list[str]] = {}
        for jid in self._queue:
            by_tenant.setdefault(self._jobs[jid].status.tenant, []).append(jid)
        live_vt = [self._vtime[t] for t in by_tenant if t in self._vtime]
        floor = min(live_vt) if live_vt else 0.0
        for t in by_tenant:
            self._vtime.setdefault(t, floor)
        tenant = min(by_tenant, key=lambda t: (self._vtime[t], t))
        jid = min(by_tenant[tenant],
                  key=lambda j: (-self._jobs[j].status.priority,
                                 self._jobs[j].submitted_seq))
        self._queue.remove(jid)
        job = self._jobs[jid]
        self._vtime[tenant] += job.status.predicted_cost_us / self._weight(tenant)
        return jid

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while self._running:
            while self._running and self._queue and not self._stopping:
                self._fork_workers()
                if not self._idle:
                    break
                jid = self._pick_next()
                job = self._jobs[jid]
                self.started_order.append(jid)
                job.status.state = "admitted"
                job.status.queue_wait_s += time.perf_counter() - job.queued_at
                job.log.note("admitted", order=len(self.started_order),
                             predicted_cost_us=job.status.predicted_cost_us)
                task = asyncio.create_task(self._run_job(job, self._idle.pop()))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
            self._wake.clear()
            if not self._running:
                return
            await self._wake.wait()

    # -- worker processes ------------------------------------------------------
    def _fork_workers(self) -> None:
        """Retire idle workers that died, then fork workers until there are
        ``workers`` of them (event loop only; called before each dispatch,
        so no job is sent to a process that died while idle)."""
        for worker in [w for w in self._idle if w.process.exitcode is not None]:
            self._idle.remove(worker)
            self._retire(worker)
        while len(self._workers) < self.workers:
            conn, child = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main, name="repro-serve-worker",
                args=(child, self.root, self.faults,
                      [w.conn for w in self._workers] + [conn]))
            process.start()
            child.close()
            worker = _Worker(process, conn)
            self._workers.append(worker)
            self._idle.append(worker)

    def _retire(self, worker: _Worker, timeout: float | None = None) -> None:
        """Join a worker that is ending (SIGKILL it after ``timeout``)."""
        worker.process.join(timeout)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join()
        worker.process.close()
        worker.conn.close()
        self._workers.remove(worker)

    def _died(self, worker: _Worker) -> WorkerKilled:
        """Reap a worker whose process is gone (or going); the error to raise."""
        worker.killed = True
        worker.process.join()
        return WorkerKilled(f"worker {worker.pid} exited with code "
                            f"{worker.process.exitcode}")

    def _send(self, worker: _Worker, message: Any) -> None:
        try:
            worker.conn.send(message)
        except OSError:
            raise self._died(worker) from None

    async def _recv(self, worker: _Worker) -> Any:
        """The worker's next message, awaited without a thread;
        :class:`WorkerKilled` once its pipe reaches EOF."""
        loop = asyncio.get_running_loop()
        ready = loop.create_future()
        fd = worker.conn.fileno()
        loop.add_reader(fd, lambda: ready.done() or ready.set_result(None))
        try:
            await ready
        finally:
            loop.remove_reader(fd)
        try:
            return worker.conn.recv()
        except (EOFError, OSError):
            raise self._died(worker) from None

    # -- per-job execution -----------------------------------------------------
    async def _run_job(self, job: _Job, worker: _Worker) -> None:
        job.status.state = "running"
        job.log.note("running", restarts=job.status.restarts, pid=worker.pid)
        try:
            self._persist(job)
            self._flush_log(job)
            digest, run = await self._drive(job, worker)
        except JobCancelled:
            self._finalize(job, "cancelled")
        except _Interrupted:
            # Server shutdown: park the job as queued for the next
            # server incarnation; deliberately NOT terminal.
            job.status.state = "queued"
            job.log.note("interrupted", step=job.status.steps_done)
            self._persist(job)
            self._flush_log(job)
        except _JobFailed as exc:
            job.status.error = str(exc)
            job.log.note("exhausted", error=str(exc))
            self._finalize(job, "failed")
        except Exception as exc:  # worker death
            job.status.restarts += 1
            job.log.emit("resilience", event="worker-death",
                         step=job.status.steps_done,
                         restart=job.status.restarts,
                         error=f"{type(exc).__name__}: {exc}")
            if (job.status.restarts <= self.max_restarts
                    and not self._stopping):
                job.status.state = "queued"
                job.queued_at = time.perf_counter()
                self._queue.append(job.spec.job_id)
                self._persist(job)
                self._flush_log(job)
            else:
                job.status.error = f"{type(exc).__name__}: {exc}"
                self._finalize(job, "failed")
        else:
            try:
                job.log.ingest_metrics({
                    "steps_done": job.status.steps_done,
                    "seconds": job.status.seconds,
                    "checkpoints": job.status.checkpoints,
                    "retries": job.status.retries,
                    "rollback_steps": job.status.rollback_steps,
                    "restarts": job.status.restarts,
                    "degradations": len(job.status.degradations)})
                self._finalize(job, "done", digest=digest, run=run)
            except Exception as exc:  # the record of a finished run failed
                # Drop the lines that were not written, so that the log
                # does not call the job both done and failed.
                del job.log.lines[job.flushed_lines:]
                job.status.error = f"{type(exc).__name__}: {exc}"
                self._finalize(job, "failed")
        finally:
            if worker.killed:
                self._retire(worker)
            else:
                self._idle.append(worker)
            if self._wake is not None:
                self._wake.set()

    async def _drive(self, job: _Job, worker: _Worker) -> tuple[str, RunResult]:
        """Run the job on ``worker``, serving its checkpoint boundaries.

        Returns ``(state digest, run result)``.  Raises what ended the
        worker's run (:func:`_serve_job`; the worker lives on), or
        :class:`WorkerKilled` when the worker dies.  Any other exception
        here — ``chaos`` raising, a record that cannot be written — SIGKILLs
        the worker and propagates.
        """
        try:
            self._send(worker, (job.spec, job.status))
            while True:
                kind, progress, notes, *end = await self._recv(worker)
                advanced = progress["steps_done"] != job.status.steps_done
                for key, value in progress.items():
                    setattr(job.status, key, value)
                for line_kind, data in notes:
                    if line_kind == "note":
                        job.log.note(data.pop("message"), **data)
                    else:
                        job.log.emit(line_kind, **data)
                if kind == "end":
                    break
                if self._stopping:
                    reply = "stop"
                elif job.cancel_requested:
                    reply = "cancel"
                else:
                    reply = "go"
                    if self.chaos is not None:
                        self.chaos(job.spec.job_id, job.status.steps_done)
                # The worker goes on while the record is written: its
                # checkpoint, not job.json, is what a resume starts from.
                self._send(worker, reply)
                if advanced:
                    self._persist(job)
                self._flush_log(job)
        except BaseException:
            # Anything that breaks off the exchange — a dead pipe, a
            # raising chaos hook, a record the server cannot write, a
            # cancelled task — ends the worker too.  Left alive it would
            # step on, or wait for a reply, out of step with the server,
            # and read the next job it is sent as that reply.
            worker.process.kill()
            self._died(worker)
            raise
        error, digest, run = end
        if error is not None:
            raise error
        return digest, run

    def _finalize(self, job: _Job, state: str, digest: str | None = None,
                  run: RunResult | None = None) -> None:
        job.status.state = state
        job.log.note(state, step=job.status.steps_done)
        try:
            self._persist(job)
            self._flush_log(job)
        finally:
            # The job ends even when its record cannot be written; a
            # caller that then fails it finalizes it a second time.
            if job.result is None:
                self._outstanding_cost_us = max(
                    0.0, self._outstanding_cost_us - job.status.predicted_cost_us)
            job.result = JobResult(**job.status.as_dict(),
                                   state_digest=digest, run=run)
            job.done_event.set()

    # -- fleet health ----------------------------------------------------------
    def fleet_summary(self) -> dict:
        """Per-tenant and fleet-wide health snapshot (JSON-ready).

        The per-state and per-tenant tables are
        :func:`~repro.serve.state.fleet_tables` of the job records, the
        same function ``repro serve --summary`` applies to ``job.json``.
        """
        jobs = self.jobs()
        return {
            "version": 1,
            "root": self.root,
            "workers": self.workers,
            "device": self.device.name,
            **fleet_tables(jobs),
            "outstanding_cost_us": self._outstanding_cost_us,
            "started_order": list(self.started_order),
            "jobs": [s.as_dict() for s in jobs],
        }

    def write_fleet_summary(self, path: str | None = None) -> str:
        """Serialize :meth:`fleet_summary` (default ``fleet_summary.json``)."""
        import json
        if path is None:
            path = os.path.join(self.root, "fleet_summary.json")
        summary = self.fleet_summary()

        def write(fh) -> None:
            json.dump(summary, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        atomic_write(path, write, "w")
        return path
