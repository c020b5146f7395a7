"""The four workloads: set-up, timed operations, output checks.

A workload is a seed-generated list of *operations*; every timing the
ledger reports is a median over operations.  Each function here runs one
workload inside the child process ``run.py`` started for it and fills a
:class:`Run` with operation times, the lattice updates each operation
performed, set-up times and the failures its output checks found.

With ``run.trace`` off, only the operations are bracketed (two clock
reads each) and the end-to-end metrics come from them.  With it on, a
first, untraced stretch of operations is followed by a stretch with the
layer boundaries instrumented (:mod:`layers`), then by the stage probes
of :mod:`probes`; the traced stretch feeds the per-layer metrics and the
difference between the two stretches is the tracing overhead.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import layers
import probes
from inputs import (Sizes, SimInput, coldstart_inputs, serve_jobs,
                    steady_input)
from spans import Span, SpanLog, median
from repro.core.simulation import Simulation, mlups
from repro.serve import JobServer
from repro.serve.oracle import active_cells_estimate
from repro.serve.state import state_digest

__all__ = ["WORKLOADS", "Run", "run_workload"]

#: Set-ups timed per untraced run; ``setup_s`` is their median.  One more
#: goes ahead of them untimed: the first build of its kind in a process
#: pays the first-touch page faults (2-3x the time of the ones after it).
SETUP_REPS = 3
#: Share of ``--seconds`` each stretch of a traced run gets; the rest of
#: a traced run's time goes to the stage probes.
TRACED_SHARE = 0.35
#: Relative mass change per coarse step a closed cavity may show before it
#: counts as wrong.  Not 1e-9 overall: the moving lid next to a refinement
#: interface feeds about 1e-6 of the mass per step, bit-identically on the
#: interpreted and the compiled path; a dropped or doubled kernel moves
#: orders of magnitude more.
MASS_TOL_PER_STEP = 1e-5
#: Tenant clients of the closed-loop flood, and server worker threads:
#: one client more than workers keeps one job queued, so queue wait shows.
TENANTS, SERVE_WORKERS = 3, 2
#: Rounds generated per tenant — the flood's hard cap on jobs.
SERVE_ROUNDS = 12


@dataclass
class Run:
    """Everything one workload run produces."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    scratch: str
    log: SpanLog = field(default_factory=SpanLog)
    #: Untraced operation times, and each one's lattice updates per
    #: microsecond (the paper's MLUPS, per operation).
    ops: list[float] = field(default_factory=list)
    mlups: list[float] = field(default_factory=list)
    #: Operation times of the instrumented stretch (traced runs only).
    traced_ops: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: Operations started, and how many of them failed or were wrong.
    attempts: int = 0
    _failed: int = 0
    _all_wrong: bool = False
    #: Per-layer metrics measured so far (traced runs only).
    layer: dict[str, float] = field(default_factory=dict)
    inputs: Any = None

    def fail(self, what: str) -> None:
        """Count one operation as failed or wrong."""
        self._failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def fail_all(self, what: str) -> None:
        """A check on state every operation shares failed: all are wrong."""
        self._all_wrong = True
        self.failures.insert(0, what)

    @property
    def attempted(self) -> int:
        return max(1, self.attempts)

    @property
    def failed(self) -> int:
        return self.attempted if self._all_wrong else self._failed

    def stretch(self) -> float:
        return self.seconds * (TRACED_SHARE if self.trace else 1.0)


def _timed(run: Run, op: str, fn: Callable[[], None],
           sink: list[float]) -> Span | None:
    """Run one operation with the collector off; ``None`` if it raised."""
    run.attempts += 1
    gc.collect()
    gc.disable()
    try:
        with run.log.span("operation", op=op) as sp:
            fn()
    except Exception as exc:  # the failure-accounting boundary of the harness
        run.fail(f"{op}: {type(exc).__name__}: {exc}")
        return None
    finally:
        gc.enable()
    sink.append(sp.dur)
    return sp


def _initial_mass(sim: Simulation) -> float:
    """Mass of the rest state every run starts from: one per unit volume."""
    d = sim.mgrid.d
    return sum(n * 0.5 ** (lv * d)
               for lv, n in enumerate(sim.mgrid.active_per_level()))


def _check_state(sim: Simulation, closed: bool) -> tuple[str | None, float]:
    """Output checks on ``sim``: ``(what is wrong or None, mass drift)``."""
    m0 = _initial_mass(sim)
    drift = abs(sim.engine.total_mass() - m0) / m0
    fallback = sim.backend.stats.get("plan_fallback_steps", 0)
    if not sim.is_stable():
        return "populations are not finite", drift
    if fallback:
        return f"{fallback} step(s) fell back to the interpreter", drift
    if closed and not drift <= MASS_TOL_PER_STEP * max(1, sim.steps_done):
        return f"closed-cavity mass drifted by {drift:.3e}", drift
    return None, drift


def _reference_digest(inp: SimInput, steps: int) -> str:
    """``state_digest`` after ``steps`` on the interpreted reference backend."""
    with Simulation.from_config(inp.spec, inp.config,
                                backend="interpreted") as ref:
        ref.run(steps)
        return state_digest(ref)


# -- cavity3d-steady / sphere-kbc-unfused ---------------------------------------

def run_steady(run: Run) -> None:
    """One coarse step per operation on a warmed, compiled simulation."""
    inp = run.inputs = steady_input(run.workload, run.seed, run.sizes)
    # The interpreted reference goes first: it is also the discarded
    # process-warming build (first-touch page faults land here).
    reference = _reference_digest(inp, steps=3)
    if run.trace:
        # One instrumented cold start on the same input, for the stage
        # spans — ahead of set-up, while no other simulation holds memory.
        layers.install(run.log)
        _timed(run, "stage", lambda: _cold_start(inp), [])
        run.log.uninstrument()
    sim = None
    for rep in range(1 if run.trace else 1 + SETUP_REPS):
        if sim is not None:
            sim.close()
            sim = None  # freed before the next build, so it reuses the heap
        gc.collect()
        with run.log.span("setup", op=f"setup{rep}") as sp:
            sim = Simulation.from_config(inp.spec, inp.config)
            sim.run(2)  # the first compiles the plan, the second replays it
        if rep > 0:
            run.setup.append(sp.dur)
        if rep == 0:
            sim.run(1)
            if state_digest(sim) != reference:
                run.fail_all("compiled state differs from interpreted "
                             "after 3 steps")
    assert sim is not None
    active = sim.mgrid.active_per_level()
    gc.collect()
    gc.freeze()

    def stretch(sink: list[float]) -> None:
        deadline = perf_counter() + run.stretch()
        n = 0
        while n < 5 or perf_counter() < deadline:
            if _timed(run, f"step{len(run.ops) + len(run.traced_ops)}",
                      sim.step, sink) is None:
                break  # the state after a failed step is not worth timing
            n += 1

    stretch(run.ops)
    run.mlups = [mlups(active, 1, t) for t in run.ops]
    if run.trace:
        layers.install(run.log)
        for plan in sim.backend.plans.values():
            run.log.wrap_bodies(plan, restore=True)
        stretch(run.traced_ops)
        run.log.uninstrument()
    wrong, drift = _check_state(sim, inp.closed)
    if wrong:
        run.fail_all(f"after the last step: {wrong}")
    if run.trace:
        run.layer["core.mass_drift"] = drift
        probes.run_all(run, inp, sim, median(run.ops),
                       mp_leg=run.workload == "cavity3d-steady")
    sim.close()


# -- coldstart-mix --------------------------------------------------------------

def _cold_start(inp: SimInput) -> Simulation:
    """The cold-start operation: construct, finish the first step, close."""
    sim = Simulation.from_config(inp.spec, inp.config)
    try:
        sim.run(1)
    finally:
        sim.close()
    return sim


def run_coldstart(run: Run) -> None:
    """Time to first step over distinct specs, each visited twice per block."""
    # A traced run halves the block (its end-to-end numbers are not used).
    block = run.sizes.coldstart_block // (2 if run.trace else 1)
    n_warm = 1 if run.trace else 1 + SETUP_REPS
    blocks = 2 if run.trace else 4
    inputs = run.inputs = coldstart_inputs(run.seed, run.sizes,
                                           n_warm + block * blocks)
    warm, specs = inputs[:n_warm], inputs[n_warm:]
    reference = _reference_digest(specs[0], steps=1)  # also warms the process
    for k, inp in enumerate(warm):
        gc.collect()
        with run.log.span("setup", op=f"setup{k}") as sp:
            _cold_start(inp)
        if k > 0:
            run.setup.append(sp.dur)
    gc.collect()
    gc.freeze()
    digests: dict[int, str] = {0: reference}
    visits: dict[str, list[float]] = {"first": [], "repeat": []}
    drifts: list[float] = []

    def one_block(b: int, sink: list[float]) -> None:
        chunk = range(b * block, (b + 1) * block)
        for visit in ("first", "repeat"):  # a spec's two visits are `block` apart
            for i in chunk:
                built: list[Simulation] = []
                sp = _timed(run, f"b{b}s{i}{visit}",
                            lambda: built.append(_cold_start(specs[i])), sink)
                if sp is None:
                    continue
                sim = built[0]
                if sink is run.ops:
                    run.mlups.append(
                        mlups(sim.mgrid.active_per_level(), 1, sp.dur))
                    visits[visit].append(sp.dur)
                wrong, drift = _check_state(sim, specs[i].closed)
                digest = state_digest(sim)
                if not wrong and digests.setdefault(i, digest) != digest:
                    wrong = "state differs from the reference or first visit"
                if wrong:
                    run.fail(f"spec {i} ({visit}): {wrong}")
                drifts.append(drift)
                del sim, built  # freed before the next operation builds

    deadline = perf_counter() + run.stretch()
    done = 0
    while done < blocks - run.trace and (done == 0 or perf_counter() < deadline):
        one_block(done, run.ops)
        done += 1
    if run.trace:
        layers.install(run.log)
        one_block(blocks - 1, run.traced_ops)
        run.log.uninstrument()
        run.layer["bench.first_visit_p50_s"] = median(visits["first"])
        run.layer["bench.repeat_visit_p50_s"] = median(visits["repeat"])
        run.layer["core.mass_drift"] = max(drifts, default=0.0)
        probes.run_all(run, specs[0])


# -- serve-flood ----------------------------------------------------------------

def _direct_run(job: Any) -> tuple[str, float]:
    """Digest and wall seconds of running a job's spec without the server."""
    t0 = perf_counter()
    with Simulation.from_config(job.spec, job.config) as sim:
        sim.run(job.steps)
        return state_digest(sim), perf_counter() - t0


def run_serve(run: Run) -> None:
    """Closed loop: each tenant submits its next job when the last returns."""
    jobs, meta = serve_jobs(run.seed, run.sizes, TENANTS + 1, SERVE_ROUNDS)
    run.inputs = jobs
    warm_jobs = [j for batch in jobs.pop() for j in batch]  # the extra tenant
    # Expected digests of the sampled jobs (tenant 0's first round: every
    # geometry once), from direct serial runs — which also warm the process.
    expected = {j.job_id: _direct_run(j) for j in jobs[0][0]}
    results: dict[str, tuple[float, float, Any]] = {}
    root = os.path.join(run.scratch, f"serve-{run.workload}-{os.getpid()}")
    adopt: dict[int, Span] = {}

    async def one_job(srv: JobServer, job: Any, parent: Span | None,
                      keep: bool) -> str | None:
        """Submit one job and await its result; returns what went wrong."""
        sp = run.log.begin("serve.job", op=job.job_id, parent=parent)
        adopt[id(job.spec)] = sp
        sub = run.log.begin("serve.submit", parent=sp)
        try:
            await srv.submit(job)
            run.log.end(sub)
            res = await srv.result(job.job_id)
        except Exception as exc:  # failure accounting, as in _timed
            return f"{job.job_id}: {type(exc).__name__}: {exc}"
        finally:
            run.log.end(sp)
            adopt.pop(id(job.spec), None)
        if keep:
            results[job.job_id] = (sp.dur, sub.dur, res)
        if res.state != "done":
            return f"{job.job_id}: ended {res.state}: {res.error}"
        if job.job_id in expected and res.state_digest != expected[job.job_id][0]:
            return f"{job.job_id}: served state differs from a direct run"
        return None

    async def flood(srv: JobServer, rounds: range, sink: list[float]) -> float:
        """Every tenant client submits whole rounds until the stretch is up.

        The operation is a round — every geometry once, each job submitted
        when the last returned — because rounds are equal work: job
        latencies cluster by geometry and by whether the job had to queue,
        and a median over them jumps between clusters.
        """
        deadline = perf_counter() + run.stretch()

        async def client(t: int, batches: list) -> None:
            for r in rounds:
                if r > rounds.start and perf_counter() >= deadline:
                    return
                run.attempts += 1
                op = run.log.begin("operation", op=f"t{t}r{r}")
                wrong = [await one_job(srv, job, op, sink is run.ops)
                         for job in batches[r]]
                run.log.end(op)
                if any(wrong):  # a failed job fails its round, once
                    run.fail(next(w for w in wrong if w))
                    continue
                sink.append(op.dur)
                if sink is run.ops:
                    # cells counted from the masks, as the serve oracle does
                    run.mlups.append(sum(
                        mlups(active_cells_estimate(j.spec), j.steps, op.dur)
                        for j in batches[r]))

        t0 = perf_counter()
        await asyncio.gather(*(client(t, b) for t, b in enumerate(jobs)))
        return perf_counter() - t0

    async def main() -> None:
        srv = None
        for rep in range(1 if run.trace else 1 + SETUP_REPS):
            if srv is not None:
                await srv.stop()
            gc.collect()
            with run.log.span("setup", op=f"setup{rep}") as sp:
                srv = JobServer(os.path.join(root, str(rep)),
                                workers=SERVE_WORKERS)
                await srv.start()
                wrong = await one_job(srv, warm_jobs[rep], None, False)
                if wrong:
                    run.fail_all(f"set-up: {wrong}")
            if rep > 0:
                run.setup.append(sp.dur)
        assert srv is not None
        # Overlapping jobs leave no gap to collect in, so the collector
        # stays on during the flood, as it would in a running service.
        gc.collect()
        gc.freeze()
        half = SERVE_ROUNDS // 2
        try:
            makespan = await flood(srv, range(0, half if run.trace else SERVE_ROUNDS),
                                   run.ops)
            if run.trace:
                layers.install(run.log, lambda spec: run.log.adopt(adopt.get(id(spec))))
                await flood(srv, range(half, SERVE_ROUNDS), run.traced_ops)
                run.log.uninstrument()
        finally:
            await srv.stop()
        if run.trace:
            run.layer["serve.makespan_s"] = makespan

    try:
        asyncio.run(main())
        if run.trace:
            probes.serve_metrics(run, results, meta, expected)
            probes.run_all(run, SimInput(jobs[0][0][0].spec,
                                         jobs[0][0][0].config, closed=True),
                           io_leg=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)


WORKLOADS: dict[str, Callable[[Run], None]] = {
    "cavity3d-steady": run_steady,
    "sphere-kbc-unfused": run_steady,
    "coldstart-mix": run_coldstart,
    "serve-flood": run_serve,
}


def run_workload(run: Run) -> None:
    os.makedirs(run.scratch, exist_ok=True)
    WORKLOADS[run.workload](run)
    if run.trace:
        probes.span_metrics(run)
