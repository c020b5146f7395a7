"""Metrics registry: counters, gauges and histograms with snapshots.

The registry is the numeric side of the observability layer: benchmarks
and the ``repro.obs`` CLI publish MLUPS, per-step traffic, kernel counts,
active-cell censuses and wave depths here, take periodic snapshots while
a run progresses, and serialize everything to the machine-readable
``BENCH_<name>.json`` files that track the perf trajectory across PRs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "run_metrics", "write_bench_json", "bench_out_dir"]


@dataclass
class Counter:
    """Monotonic accumulator (launches, bytes, steps)."""

    name: str
    help: str = ""
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value, "help": self.help}


@dataclass
class Gauge:
    """Point-in-time value (MLUPS, active cells, wave depth)."""

    name: str
    help: str = ""
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value, "help": self.help}


@dataclass
class Histogram:
    """Streaming distribution: count / sum / min / max / mean.

    Keeps running moments rather than raw samples so a long run stays
    O(1) in memory; the most recent ``keep_last`` samples are retained
    for diagnostic dumps.
    """

    name: str
    help: str = ""
    keep_last: int = 32
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    recent: list = field(default_factory=list)

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        self.min = min(self.min, v)
        self.max = max(self.max, v)
        self.recent.append(v)
        if len(self.recent) > self.keep_last:
            del self.recent[0]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {"type": "histogram", "count": self.count, "sum": self.total,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "mean": self.mean if self.count else None,
                "help": self.help}


class MetricsRegistry:
    """Named metrics plus a time series of labelled snapshots."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self.snapshots: list[dict] = []

    # -- registration --------------------------------------------------------
    def _get(self, cls, name: str, help: str):
        m = self._metrics.get(name)
        if m is None:
            m = cls(name=name, help=help)
            self._metrics[name] = m
        elif not isinstance(m, cls):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(m).__name__}")
        return m

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Counter | Gauge | Histogram:
        return self._metrics[name]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # -- snapshots -----------------------------------------------------------
    def snapshot(self, **labels) -> dict:
        """Freeze every metric's current state, tagged with ``labels``.

        The snapshot is appended to :attr:`snapshots` (the periodic time
        series a monitored run accumulates) and returned.
        """
        snap = {"labels": dict(labels),
                "metrics": {n: m.as_dict() for n, m in
                            sorted(self._metrics.items())}}
        self.snapshots.append(snap)
        return snap

    def as_dict(self) -> dict:
        return {"metrics": {n: m.as_dict() for n, m in
                            sorted(self._metrics.items())},
                "snapshots": self.snapshots}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def run_metrics(sim, registry: MetricsRegistry | None = None,
                recorder=None) -> MetricsRegistry:
    """Publish the standard per-run metrics of a finished ``Simulation``.

    Covers the quantities the paper argues with: kernels/step and
    bytes/step (Fig. 2 / Fig. 9), atomic traffic, active cells per level
    (Table I), dependency-wave depth (Section V-C) and measured MLUPS.
    ``recorder`` (a :class:`~repro.obs.spans.SpanRecorder`) adds observed
    wall time per kernel family.
    """
    from ..core.simulation import mlups
    from ..neon.graph import build_dependency_graph, schedule_waves

    reg = registry if registry is not None else MetricsRegistry()
    rt = sim.runtime
    # Steps covered by the *trace*: the runtime may have been reset after
    # a warmup or checkpoint restore, in which case steps_done counts
    # coarse steps the trace never saw — subtract the rebased history.
    base = getattr(rt, "steps_base", 0)
    traced_steps = len(rt.markers) if rt.markers else \
        max(sim.steps_done - base, 0)
    steps = max(traced_steps, 1)
    records = rt.records

    reg.counter("kernels_total", "kernel launches recorded").value = len(records)
    reg.counter("bytes_total", "payload DRAM traffic (B)").value = \
        float(sum(r.bytes_total for r in records))
    reg.counter("atomic_bytes_total", "atomically-written bytes (B)").value = \
        float(sum(r.atomic_bytes for r in records))
    reg.counter("steps_total", "coarse steps in the trace").value = traced_steps
    reg.gauge("kernels_per_step", "launches per coarse step").set(
        len(records) / steps)
    reg.gauge("bytes_per_step", "payload traffic per coarse step (B)").set(
        sum(r.bytes_total for r in records) / steps)
    for lv, n in enumerate(sim.mgrid.active_per_level()):
        reg.gauge(f"active_cells.L{lv}",
                  f"active voxels on level {lv}").set(n)
    eng = sim.engine        # the largest level has the most parts
    reg.gauge("cell_split_parts", "collide / stream parts, largest level").set(
        max(len(eng.split_cuts(lv)) - 1 for lv in range(len(eng.levels))))
    last = rt.last_step()
    if last:
        g = build_dependency_graph(last, reduce=False)
        waves = schedule_waves(g)
        reg.gauge("wave_depth", "sync points per coarse step").set(len(waves))
        reg.gauge("wave_max_width", "widest concurrency wave").set(
            max(len(w) for w in waves))
        # The gauge keeps the name its history series was recorded under.
        from ..analysis.lint import lint_stream
        from ..backend.compiler import bind_stream
        step, _, _, accesses = bind_stream(sim.stepper)
        reg.gauge("arena_peak_bytes",
                  "bytes of the buffers one step's stream touches (B)").set(
            lint_stream(step, accesses, sim.engine).touched_bytes)
    backend = getattr(getattr(sim, "stepper", None), "backend", None)
    stats = getattr(backend, "stats", None)
    if stats:
        # Compiled backends: plan-cache behaviour and compile overhead.
        for key in ("plan_cache_hits", "plan_cache_misses",
                    "plan_fallback_steps"):
            if key in stats:
                reg.counter(key, {
                    "plan_cache_hits": "steps replayed from a cached plan",
                    "plan_cache_misses": "step-plan compilations",
                    "plan_fallback_steps":
                        "steps delegated to the interpreted path",
                }[key]).value = float(stats[key])
        if "plan_compile_seconds" in stats:
            reg.gauge("plan_compile_seconds",
                      "wall time spent compiling step plans").set(
                float(stats["plan_compile_seconds"]))
        if "mp_steps" in stats:
            # Process-parallel backend: pool shape, load balance and the
            # overheads that bound its speedup (IPC + spawn amortisation).
            reg.counter("mp_steps",
                        "coarse steps replayed on the worker pool").value = \
                float(stats["mp_steps"])
            reg.counter("mp_worker_restarts",
                        "worker-pool respawns after a failure").value = \
                float(stats["mp_worker_restarts"])
            reg.gauge("mp_workers", "worker-process pool width").set(
                float(stats["mp_workers"]))
            reg.gauge("mp_shard_imbalance",
                      "peak max/mean busy-time ratio across workers").set(
                float(stats["mp_shard_imbalance"]))
            reg.gauge("mp_setup_seconds",
                      "pool spawn + shared-memory setup wall time").set(
                float(stats["mp_setup_seconds"]))
            reg.gauge("mp_ipc_overhead_ms",
                      "step wall time not covered by worker busy time").set(
                float(stats["mp_ipc_overhead_ms"]))
            wall = float(stats.get("mp_step_wall_ms", 0.0))
            workers = float(stats.get("mp_workers", 0.0))
            if wall > 0 and workers:
                reg.gauge(
                    "mp_utilisation",
                    "busy-time share of the pool during mp steps",
                ).set(float(stats["mp_worker_busy_ms"]) / (wall * workers))
    if sim.elapsed > 0 and traced_steps > 0:
        reg.gauge("wall_mlups", "measured MLUPS (paper formula)").set(
            mlups(sim.mgrid.active_per_level(), traced_steps, sim.elapsed))
        reg.gauge("wall_seconds", "wall time of run() calls").set(sim.elapsed)
    if recorder is not None:
        per_name = reg.histogram("kernel_wall_us",
                                 "observed wall time per kernel (us)")
        for s in recorder.kernel_spans:
            per_name.observe(s.dur_us)
        reg.gauge("span_total_us", "wall time covered by spans (us)").set(
            recorder.total_us())
        occ = recorder.observed_occupancy()
        reg.gauge("observed_max_concurrency",
                  "peak overlapping kernel spans").set(occ["max_concurrent"])
        reg.gauge("observed_mean_concurrency",
                  "time-weighted mean overlapping kernel spans").set(
            occ["mean_concurrent"])
    return reg


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
    (and gitignored); ``payload`` may contain plain values, registry
    dicts (:meth:`MetricsRegistry.as_dict`) or nested tables.  Nothing
    else is written: ``BENCH_HISTORY.jsonl`` holds ledger comparisons
    only (:mod:`repro.bench.history`).
    """
    out = out_dir if out_dir is not None else bench_out_dir()
    os.makedirs(out, exist_ok=True)
    text = json.dumps({"bench": name, **payload}, indent=2,
                      default=_json_default)
    path = os.path.join(out, f"BENCH_{name}.json")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def _json_default(obj):
    """Best-effort coercion for numpy scalars and dataclass-ish values."""
    for attr in ("item", "as_dict"):
        fn = getattr(obj, attr, None)
        if callable(fn):
            return fn()
    return str(obj)
