"""Per-run metrics and the ``BENCH_<name>.json`` writer.

:func:`run_metrics` reduces a finished run to the numbers the paper
argues with — MLUPS, per-step traffic, kernel counts, active-cell
censuses, wave depths — as one plain ``{name: value}`` dict, the same
shape as a backend's ``stats`` and a served job's final ``metric`` line.
The run report, the event log and the benchmark harness take it as it
is; :func:`write_bench_json` serializes figure benchmarks' payloads.
"""

from __future__ import annotations

import json
import os

from ..io.checkpoint import atomic_write

__all__ = ["run_metrics", "write_bench_json", "bench_out_dir"]

#: Compiled / mp backend ``stats`` keys passed through under their own names.
_STAT_KEYS = ("plan_cache_hits", "plan_cache_misses", "plan_fallback_steps",
              "plan_compile_seconds", "mp_steps", "mp_worker_restarts",
              "mp_workers", "mp_shard_imbalance", "mp_setup_seconds",
              "mp_ipc_overhead_ms")


def run_metrics(sim, recorder=None) -> dict[str, float]:
    """The standard per-run metrics of a finished ``Simulation``, by name.

    Covers the quantities the paper argues with: kernels/step and
    bytes/step (Fig. 2 / Fig. 9), atomic traffic, active cells per level
    (Table I), dependency-wave depth (Section V-C) and measured MLUPS.
    ``recorder`` (a :class:`~repro.obs.spans.SpanRecorder`) adds observed
    kernel wall time (``kernel_wall_us``, the mean over kernel spans) and
    concurrency.  Names are sorted; counts stay ints, the rest are floats.
    """
    from ..core.simulation import mlups
    from ..gpu.costmodel import device_records
    from ..neon.graph import build_dependency_graph, schedule_waves

    rt = sim.runtime
    # Steps covered by the *trace*: the runtime may have been reset after
    # a warmup or checkpoint restore, in which case steps_done counts
    # coarse steps the trace never saw — subtract the rebased history.
    base = getattr(rt, "steps_base", 0)
    traced_steps = len(rt.markers) if rt.markers else \
        max(sim.steps_done - base, 0)
    steps = max(traced_steps, 1)
    records = rt.records
    bytes_total = sum(r.bytes_total for r in records)
    eng = sim.engine        # the stream may run in more (Engine.split_parts)
    m = {
        "kernels_total": len(records),
        "bytes_total": bytes_total,
        "atomic_bytes_total": sum(r.atomic_bytes for r in records),
        "steps_total": traced_steps,
        "kernels_per_step": len(records) / steps,
        "bytes_per_step": bytes_total / steps,
        # split-collide parts (tile-aligned), most of any level
        "cell_split_parts": max(len(eng.split_cuts(lv)) - 1
                                for lv in range(len(eng.levels))),
    }
    for lv, n in enumerate(sim.mgrid.active_per_level()):
        m[f"active_cells.L{lv}"] = n
    last = rt.last_step()
    if last:
        waves = schedule_waves(build_dependency_graph(device_records(last)))
        m["wave_depth"] = len(waves)        # device sync points per step
        m["wave_max_width"] = max(len(w) for w in waves)
        # Bytes of the buffers one step's stream touches; the name is the
        # one its history series was recorded under.
        from ..analysis.lint import lint_stream
        from ..backend.compiler import bind_stream
        step, _, accesses = bind_stream(sim.stepper)
        m["arena_peak_bytes"] = lint_stream(step, accesses,
                                            sim.engine).touched_bytes
    backend = getattr(getattr(sim, "stepper", None), "backend", None)
    stats = getattr(backend, "stats", None) or {}
    m.update({k: stats[k] for k in _STAT_KEYS if k in stats})
    wall = stats.get("mp_step_wall_ms", 0.0)
    if wall > 0 and stats["mp_workers"]:
        # busy-time share of the pool during mp steps
        m["mp_utilisation"] = stats["mp_worker_busy_ms"] / (
            wall * stats["mp_workers"])
    if sim.elapsed > 0 and traced_steps > 0:
        m["wall_mlups"] = mlups(sim.mgrid.active_per_level(), traced_steps,
                                sim.elapsed)
        m["wall_seconds"] = sim.elapsed
    if recorder is not None:
        if recorder.kernel_spans:
            m["kernel_wall_us"] = (sum(s.dur_us for s in recorder.kernel_spans)
                                   / len(recorder.kernel_spans))
        occ = recorder.observed_occupancy()
        m["span_total_us"] = recorder.total_us()
        m["observed_max_concurrency"] = occ["max_concurrent"]
        m["observed_mean_concurrency"] = occ["mean_concurrent"]
    return dict(sorted(m.items()))


def bench_out_dir() -> str:
    """Directory for ``BENCH_*.json`` artifacts.

    ``$BENCH_OUT_DIR`` when set; otherwise the repository root, so a
    plain benchmark run leaves its snapshot in one known place instead of
    scattering artifacts over whatever the working directory happens to
    be.
    """
    env = os.environ.get("BENCH_OUT_DIR")
    if env:
        return env
    from ..bench.history import repo_root
    return repo_root()


def write_bench_json(name: str, payload: dict, out_dir: str | None = None) -> str:
    """Write ``BENCH_<name>.json`` and return its path.

    Every figure benchmark emits one of these, overwritten run to run
    (and gitignored); ``payload`` may contain plain values, metrics
    dicts (:func:`run_metrics`) or nested tables.  Nothing
    else is written: ``BENCH_HISTORY.jsonl`` holds ledger comparisons
    only (:mod:`repro.bench.history`).
    """
    out = out_dir if out_dir is not None else bench_out_dir()
    text = json.dumps({"bench": name, **payload}, indent=2,
                      default=_json_default) + "\n"
    path = os.path.join(out, f"BENCH_{name}.json")
    atomic_write(path, lambda fh: fh.write(text), "w")
    return path


def _json_default(obj):
    """Best-effort coercion for numpy scalars and dataclass-ish values."""
    for attr in ("item", "as_dict"):
        fn = getattr(obj, attr, None)
        if callable(fn):
            return fn()
    return str(obj)
