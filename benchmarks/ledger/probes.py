"""Per-layer metrics: read off the traced spans, or probed after the operations.

Two sources, both only used by a traced run:

* :func:`span_metrics` turns the spans the instrumented stretch recorded
  (:mod:`layers`) into stage and kernel timings — a layer call's time is
  summed per operation, then the median over operations is reported;
* :func:`run_all` runs the stage probes that would disturb an operation
  if they ran inside one (an interpreted / threaded / mp leg, a
  standalone checkpoint, the collision micro-benchmark, ``tracemalloc``,
  the STREAM triad), after the timed operations, on the same input.

Counts (cells, kernels, model bytes) are exact and repeat exactly; every
timing is a median.  Bytes moved are *computed* from the declared
``KernelRecord`` traffic, never measured.
"""

from __future__ import annotations

import gc
import os
import shutil
import sys
import tracemalloc
from time import perf_counter
from typing import Any, Callable

import numpy as np

from spans import (iqr_frac, median, self_times, tail_percentile, totals_by_op)
from repro.core.collision import KBC, equilibrium, macroscopics
from repro.core.simulation import Simulation
from repro.gpu.costmodel import cost_trace, predicted_mlups
from repro.gpu.device import A100_40GB
from repro.gpu.memory import grid_memory_report
from repro.io.checkpoint import CheckpointStore
from repro.resilience.runner import ResilientRunner, RetryPolicy

__all__ = ["KERNEL_NAMES", "run_all", "span_metrics", "serve_metrics"]

#: Kernel names some workload's plan contains (ours-4f and baseline-4b).
KERNEL_NAMES = ("C", "CA", "CASE", "A", "S", "SO", "SEO", "E", "O")


def _median_time(fn: Callable[[], Any], reps: int) -> float:
    times = []
    for _ in range(reps):
        gc.collect()
        gc.disable()
        try:
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        finally:
            gc.enable()
    return median(times)


# -- metrics read off the spans ------------------------------------------------

def span_metrics(run: Any) -> None:
    """Stage, kernel and harness metrics from the run's recorded spans."""
    spans = run.log.spans
    self_t = self_times(spans)
    out = run.layer

    def stage(*names: str) -> float:
        """Median over operations of the summed time in spans ``names``."""
        return median(totals_by_op(spans, *names))

    out["grid.build_s"] = stage("grid.build_multigrid")
    out["grid.build_us_per_cell"] = median(
        [s.dur / s.args["cells"] * 1e6
         for s in run.log.named("grid.build_multigrid") if s.args.get("cells")])
    out["core.engine_init_s"] = stage("core.Engine", "core.Engine.initialize")
    out["core.construct_other_s"] = median(
        totals_by_op(spans, "core.from_config", self_time=self_t))
    out["neon.capture_plan_s"] = stage("neon.capture_plan")
    out["analysis.admit_s"] = stage("analysis.admit_stream")
    out["analysis.lint_s"] = stage("analysis.lint_stream")
    out["analysis.legality_s"] = stage("analysis.prove_plan_legality")
    out["analysis.certificate_s"] = stage("analysis.build_certificate",
                                          "analysis.validate_certificate")
    out["backend.compile_s"] = stage("backend.compile_plan")
    out["backend.compile_self_s"] = max(
        0.0, out["backend.compile_s"] - out["analysis.admit_s"])
    # first step = the run() call that contained a plan compilation, minus it
    compiles = {s.parent: s.dur for s in spans if s.name == "backend.compile_plan"}
    firsts = []
    by_id = {s.id: s for s in spans}
    for parent, compile_dur in compiles.items():
        node = by_id.get(parent)
        while node is not None and node.name != "core.run":
            node = by_id.get(node.parent)
        if node is not None:
            firsts.append(node.dur - compile_dur)
    out["backend.first_step_s"] = median(firsts)

    replays = [s for s in spans if s.name == "backend.StepPlan.execute"]
    out["backend.replay_step_p50_s"] = median([s.dur for s in replays])
    out["backend.replay_self_s"] = median([self_t[s.id] for s in replays])
    replay_ids = {s.id for s in replays}
    per_step: dict[str, dict[int, list[float]]] = {}
    for s in spans:
        if s.parent in replay_ids and s.name.startswith("backend.kernel."):
            acc = per_step.setdefault(s.name, {}).setdefault(s.parent, [0.0, 0.0])
            acc[0] += s.dur
            acc[1] += s.args.get("bytes", 0)
    for k in KERNEL_NAMES:
        steps = list(per_step.get(f"backend.kernel.{k}", {}).values())
        out[f"backend.kernel.{k}.s_per_step"] = median([t for t, _ in steps])
        out[f"backend.kernel.{k}.gbs_computed"] = median(
            [b / t / 1e9 for t, b in steps if t > 0])

    ops = run.ops
    pct, tail = tail_percentile(ops)
    out["bench.op_count"] = len(ops)
    out["bench.op_tail_s"] = tail
    out["bench.op_tail_pct"] = pct
    out["bench.op_iqr_frac"] = iqr_frac(ops)
    untraced, traced = median(ops), median(run.traced_ops)
    out["bench.trace_overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    out["bench.failed_frac"] = run.failed / run.attempted


# -- metrics of the served jobs --------------------------------------------------

def serve_metrics(run: Any, results: dict, meta: dict, expected: dict) -> None:
    """Queueing, service and bookkeeping numbers of the untraced flood."""
    out = run.layer
    done = [(lat, sub, res) for lat, sub, res in results.values()
            if res.state == "done"]
    out["serve.submit_s"] = median([sub for _, sub, _ in done])
    out["serve.job_latency_p50_s"] = median([lat for lat, _, _ in done])
    out["serve.queue_wait_p50_s"] = median([lat - res.seconds
                                            for lat, _, res in done])
    out["serve.service_p50_s"] = median([res.seconds for _, _, res in done])
    out["serve.overhead_s"] = median(
        [results[j][2].seconds - direct for j, (_, direct) in expected.items()
         if j in results])
    for label, want in (("first", False), ("repeat", True)):
        out[f"serve.{label}_spec_latency_p50_s"] = median(
            [lat for j, (lat, _, res) in results.items()
             if res.state == "done" and meta[j][1] is want])
    out["serve.jobs_done"] = len(done)
    out["serve.jobs_failed"] = len(results) - len(done)
    for key in ("restarts", "retries", "checkpoints"):
        out[f"serve.{key}"] = sum(getattr(res, key) for _, _, res in results.values())
    out["serve.predict_cost_s"] = median(
        [s.dur for s in run.log.named("serve.predict_cost")])


# -- stage probes -----------------------------------------------------------------

def _stream_triad(cap_bytes: int) -> tuple[float, int, int]:
    """STREAM triad bandwidth: ``(GB/s, bytes per array, last-level cache)``.

    The arrays should be four times the last-level cache.  This host
    reports a 260 MiB L3 it shares with other guests; first-touching
    three 1 GiB arrays costs more than the whole run may, so the size is
    capped and both sizes are printed for the reader to judge.
    """
    llc = 0
    try:
        base = "/sys/devices/system/cpu/cpu0/cache"
        for idx in (d for d in os.listdir(base) if d.startswith("index")):
            with open(os.path.join(base, idx, "size")) as fh:
                text = fh.read().strip()
            llc = max(llc, int(text[:-1]) * {"K": 1 << 10, "M": 1 << 20}[text[-1]])
    except (OSError, ValueError, KeyError):
        pass
    nbytes = min(cap_bytes, 4 * llc) if llc else cap_bytes
    n = nbytes // 8
    a, b, c = np.empty(n), np.full(n, 1.0), np.full(n, 2.0)

    def triad() -> None:
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    triad()
    # multiply reads c, writes a; add reads a and b, writes a: 5 array passes
    return 5 * n * 8 / _median_time(triad, 5) / 1e9, n * 8, llc


def run_all(run: Any, inp: Any, sim: Simulation | None = None,
            step_p50: float | None = None, *, mp_leg: bool = False,
            io_leg: bool = False) -> None:
    """Probe every layer on ``inp``.

    ``sim`` is the workload's live, warmed simulation and ``step_p50``
    its untraced step median, where the workload has them.  ``mp_leg``
    adds the process-parallel replay (the anchor workload asks for it);
    ``io_leg`` the checkpoint and resilient-runner probes (only served
    jobs checkpoint and run under the runner; elsewhere those layers do
    no work and their metrics read 0).
    """
    own = sim is None
    if own:
        sim = Simulation.from_config(inp.spec, inp.config)
        sim.run(2)
    assert sim is not None
    try:
        _probe(run, inp, sim, step_p50, mp_leg, io_leg)
    finally:
        if own:
            sim.close()


def _probe(run: Any, inp: Any, sim: Simulation, step_p50: float | None,
           mp_leg: bool, io_leg: bool) -> None:
    out, steps = run.layer, run.sizes.leg_steps
    lat, engine = sim.lattice, sim.engine
    compiled_step = step_p50 if step_p50 else _median_time(sim.step, steps)

    # backend / gpu: exact counts of the admitted plan, and the A100 model
    plan = next(iter(sim.backend.plans.values()))
    active = sim.mgrid.active_per_level()
    model = cost_trace(list(plan.records), A100_40GB,
                       kbc=isinstance(engine.collision, KBC), concurrent=True)
    out["grid.active_cells"] = sum(active)
    out["backend.kernels_per_step"] = len(plan)
    out["backend.arena_bytes"] = plan.arena_bytes
    out["backend.plan_fallback_steps"] = sim.backend.stats["plan_fallback_steps"]
    out["gpu.model_mlups"] = predicted_mlups(active, 1, model)
    out["gpu.bytes_per_step"] = model.bytes_total
    out["gpu.atomic_bytes_per_step"] = sum(r.atomic_bytes for r in plan.records)
    out["gpu.model_memory_bytes"] = grid_memory_report(
        sim.mgrid, itemsize=engine.itemsize).total

    # core: the collision arithmetic alone, on the finest level's populations
    buf = engine.levels[-1]
    f = buf.f[:, :buf.n_owned].copy()
    scratch = np.empty_like(f)
    rho, u = macroscopics(lat, f)
    out["core.equilibrium_ns_per_cell"] = _median_time(
        lambda: equilibrium(lat, rho, u, out=scratch), 5) / buf.n_owned * 1e9
    out["core.collide_ns_per_cell"] = _median_time(
        lambda: engine.collision.collide(f, engine.omega[-1], out=scratch),
        5) / buf.n_owned * 1e9
    del f, scratch, rho, u
    tracemalloc.start()
    try:
        sim.step()
        out["core.step_temp_peak_bytes"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    # obs: the program's own span recorder, on against off
    sim.enable_tracing()
    try:
        spans_on = _median_time(sim.step, steps)
    finally:
        sim.disable_tracing()
    out["obs.span_overhead_frac"] = spans_on / compiled_step - 1.0

    # core / neon: the same input on the interpreted and the threaded path
    with Simulation.from_config(inp.spec, inp.config,
                                backend="interpreted") as ref:
        ref.run(1)
        interpreted = _median_time(ref.step, steps)
    out["core.interpreted_step_p50_s"] = interpreted
    out["neon.dispatch_us_per_kernel"] = (
        (interpreted - compiled_step) / len(plan) * 1e6)
    with Simulation.from_config(inp.spec, inp.config, backend="interpreted",
                                threaded=True) as thr:
        thr.run(1)
        out["neon.threaded_step_p50_s"] = _median_time(thr.step, steps)

    # backend: process-parallel replay
    if mp_leg:
        try:
            t0 = perf_counter()
            with Simulation.from_config(inp.spec, inp.config, backend="mp",
                                        mp_workers=2) as mp_sim:
                mp_sim.run(1)
                out["backend.mp_setup_s"] = perf_counter() - t0
                out["backend.mp_step_p50_s"] = _median_time(mp_sim.step, steps)
        except (OSError, RuntimeError) as exc:  # no shared memory, no spawn
            print(f"ledger: warning: mp leg skipped: {exc}", file=sys.stderr)

    # resilience / io: the watched, checkpointing runner against bare steps,
    # then one standalone checkpoint generation written and read back
    if io_leg:
        ckpt_dir = os.path.join(run.scratch, f"ckpt-{os.getpid()}")
        try:
            policy = RetryPolicy(checkpoint_every=5)
            with ResilientRunner(inp.spec, inp.config, policy=policy,
                                 store=os.path.join(ckpt_dir, "runner")) as runner:
                runner.run(1)  # compiles the plan, writes the step-0 anchor
                resilient = runner.run(5).seconds
            out["resilience.runner_overhead_frac"] = (
                resilient / (5 * compiled_step) - 1.0)
            store = CheckpointStore(os.path.join(ckpt_dir, "store"), keep=2)
            t0 = perf_counter()
            path = store.save(sim)
            out["io.checkpoint_save_s"] = perf_counter() - t0
            out["io.checkpoint_bytes"] = os.path.getsize(path)
            t0 = perf_counter()
            store.restore_latest(sim)
            out["io.checkpoint_restore_s"] = perf_counter() - t0
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)

    # gpu: this host's sustainable bandwidth, and the share a step reaches
    gbs, array_bytes, llc = _stream_triad(run.sizes.stream_cap_bytes)
    out["gpu.host_stream_gbs"] = gbs
    out["gpu.host_stream_array_mb"] = array_bytes / 2 ** 20
    out["gpu.host_llc_mb"] = llc / 2 ** 20
    out["gpu.achieved_bw_frac"] = (
        model.bytes_total / compiled_step / 1e9 / gbs if gbs else 0.0)
