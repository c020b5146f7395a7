"""Measurement harness shared by the ``benchmarks/`` suite and examples.

`measure` runs a workload functionally under one fusion configuration and
returns its :func:`~repro.obs.metrics.run_metrics` — the wall-clock MLUPS
of the NumPy execution among them — plus the simulated-A100 MLUPS from
the cost model over the recorded kernel trace (``sim_mlups``).
`full_scale_mlups` extrapolates the trace to paper-size voxel counts
(see :mod:`repro.bench.model`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.fusion import FusionConfig, get_config
from ..core.simulation import Simulation
from ..gpu.costmodel import TraceCost, cost_trace, predicted_mlups
from ..gpu.device import A100_40GB, DeviceSpec
from ..neon.runtime import KernelRecord
from .model import level_factors, scale_trace
from .workloads import Workload

__all__ = ["Measurement", "measure", "full_scale_mlups"]


@dataclass
class Measurement:
    """One (workload, fusion-config) data point.

    Every number is in :attr:`metrics`, once: the measured run's
    :func:`~repro.obs.metrics.run_metrics` (``wall_mlups``,
    ``wall_seconds``, ``kernels_per_step``, ``bytes_per_step``,
    ``arena_peak_bytes``, ...) plus ``sim_mlups``, the paper's MLUPS
    against the cost model's device time.
    """

    workload: str
    config: str
    steps: int
    active_per_level: list[int]
    trace: list[KernelRecord]
    cost: TraceCost
    #: Execution backend that produced the wall-clock numbers
    #: (``"interpreted"``, ``"compiled"``, ``"mp"``).
    backend: str = "interpreted"
    metrics: dict[str, float] = field(default_factory=dict)

    def summary(self) -> dict:
        """JSON-ready digest for the ``BENCH_*.json`` perf trajectory."""
        return {
            "workload": self.workload,
            "config": self.config,
            "backend": self.backend,
            "steps": self.steps,
            "active_per_level": list(self.active_per_level),
            "metrics": self.metrics,
        }


def default_concurrency(config: FusionConfig) -> bool:
    """Scheduling used to cost a config: the two baselines model the
    distributed-heritage port (device sync after every kernel), while the
    fused variants run under Neon's dependency-wave scheduling
    (Section V-C)."""
    return not config.name.startswith("baseline")


def measure(workload: Workload, config: FusionConfig, steps: int = 5,
            warmup: int = 1, device: DeviceSpec = A100_40GB,
            concurrent: bool | None = None,
            backend: str | None = None,
            threaded: bool | None = None) -> Measurement:
    """Run ``steps`` coarse steps and cost the recorded trace on ``device``.

    ``backend`` selects the execution backend (``None`` defers to
    ``$REPRO_BACKEND``, like direct construction does); with a compiled
    backend the ``warmup`` steps absorb plan compilation, so the timed
    window measures pure replay.  ``threaded`` replays the plan in
    thread waves.  The simulation is closed before returning, so mp
    worker pools and wave-pool threads never outlive the measurement.
    """
    if concurrent is None:
        concurrent = default_concurrency(config)
    sim = Simulation.from_config(
        workload.spec, workload.sim_config(fusion=config, threaded=threaded),
        backend=backend)
    try:
        if warmup:
            sim.run(warmup)
        sim.runtime.reset(steps_base=sim.steps_done)
        sim.elapsed = 0.0
        n = sim.run(steps).steps
        records = list(sim.runtime.records)
        kbc = workload.collision.lower() == "kbc"
        cost = cost_trace(records, device, kbc=kbc, concurrent=concurrent)
        active = sim.mgrid.active_per_level()
        from ..obs.metrics import run_metrics
        metrics = run_metrics(sim)
        metrics["sim_mlups"] = predicted_mlups(active, n, cost)
        return Measurement(
            workload=workload.name, config=config.name, steps=n,
            backend=sim.backend.name, active_per_level=active,
            trace=records, cost=cost, metrics=metrics)
    finally:
        sim.close()


def full_scale_mlups(m: Measurement, full_counts_finest_first: list[float],
                     device: DeviceSpec = A100_40GB, kbc: bool = True,
                     concurrent: bool | None = None) -> tuple[float, TraceCost]:
    """Extrapolate a measurement's trace to full-size per-level counts.

    ``full_counts_finest_first`` follows Table I's convention (finest
    level first); the measurement's counts are coarsest-first.
    """
    if concurrent is None:
        concurrent = default_concurrency(get_config(m.config))
    full = list(reversed(full_counts_finest_first))
    if len(full) != len(m.active_per_level):
        raise ValueError("level count mismatch between measurement and target")
    vol, area = level_factors(m.active_per_level, full, d=3)
    scaled = scale_trace(m.trace, vol, area)
    cost = cost_trace(scaled, device, kbc=kbc, concurrent=concurrent)
    return predicted_mlups([int(c) for c in full], m.steps, cost), cost
