"""Roofline cost model: kernel traces -> simulated device time -> MLUPS.

This is the hardware substitution of the reproduction (DESIGN.md §2):
instead of timing CUDA kernels on an A100 we cost the recorded kernel
trace of the functional run.  Each kernel pays

    t = launch_overhead + max(bytes_effective / BW_sustained,
                              flops / flop_throughput)

with atomically-written bytes inflated by the device's atomic penalty.
Kernel fusion is rewarded for exactly the physical reasons the paper
gives: fused kernels move fewer intermediate bytes through DRAM and pay
fewer fixed launch overheads.  The optional *concurrent* mode groups
independent kernels (per dependency wave, Section V-C) so they share one
launch overhead — Neon's stream-level concurrency, on the device's
waves (:func:`device_records`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..neon.graph import build_dependency_graph, schedule_waves
from ..neon.runtime import FieldRef, KernelRecord
from .device import DeviceSpec

__all__ = ["KernelCost", "TraceCost", "kernel_time_us", "cost_trace",
           "device_records", "predicted_mlups", "traffic_time_us",
           "FLOPS_PER_CELL"]

#: Per-cell double-precision flop estimates by kernel family.  Collision
#: dominates (equilibrium + relaxation); KBC roughly triples BGK.  These
#: only matter for the compute roof, which memory-bound LBM rarely hits.
FLOPS_PER_CELL = {
    "C": 260.0, "CA": 270.0,
    "S": 40.0, "SE": 45.0, "SO": 50.0, "SEO": 55.0,
    "CASE": 310.0,
    "A": 30.0, "E": 10.0, "O": 20.0,
}
_KBC_EXTRA = 420.0  # additional flops/cell for the entropic stabiliser


@dataclass(frozen=True)
class KernelCost:
    record: KernelRecord
    time_us: float
    mem_us: float
    flop_us: float


@dataclass(frozen=True)
class TraceCost:
    """Aggregate cost of a kernel trace on one device."""

    total_us: float
    launch_us: float
    mem_us: float
    kernels: int
    bytes_total: int
    device: DeviceSpec

    def per_step(self, n_steps: int) -> float:
        """Simulated microseconds per coarse step."""
        return self.total_us / n_steps


def traffic_time_us(nbytes: int, device: DeviceSpec) -> float:
    """DRAM time of moving ``nbytes`` at the device's sustained bandwidth.

    The bytes-saved -> time-saved conversion the static linter uses to
    price an optimization opportunity (e.g. the double-buffer traffic an
    AA-pattern rewrite would eliminate), kept consistent with the
    roofline memory term of :func:`kernel_time_us`.
    """
    return nbytes / device.effective_bandwidth


def kernel_time_us(rec: KernelRecord, device: DeviceSpec,
                   kbc: bool = False, include_launch: bool = True) -> KernelCost:
    """Roofline time of one kernel on ``device``."""
    eff_bytes = (rec.bytes_read + rec.bytes_written
                 + (device.atomic_penalty - 1.0) * rec.atomic_bytes)
    mem_us = eff_bytes / device.effective_bandwidth
    fpc = FLOPS_PER_CELL.get(rec.name, 100.0)
    if kbc and rec.name in ("C", "CA", "CASE"):
        fpc += _KBC_EXTRA
    flop_us = rec.n_cells * fpc / (device.flops_gflops * 1e3)
    t = max(mem_us, flop_us)
    if include_launch:
        t += device.launch_overhead_us
    return KernelCost(rec, t, mem_us, flop_us)


def device_records(records: list[KernelRecord]) -> list[KernelRecord]:
    """``records`` with the fields the paper's device kernels touch.

    The host keeps a level's post-collision values in its one buffer
    ``f``; the device keeps them in a second one, ``fstar``, which a
    Collision without a Streaming part writes, a kernel without a
    Collision part reads on its own level, and an Explosion reads on the
    coarser one.  These records' graph is the device's (Fig. 2).
    """
    def on_device(r: KernelRecord, ref: FieldRef, write: bool) -> FieldRef:
        if ref.name != "f":
            return ref
        collides = r.name.startswith("C")
        if ref.level < r.level:
            post = True
        elif write:
            post = collides and "S" not in r.name
        else:
            post = not collides
        return FieldRef("fstar", ref.level) if post else ref
    return [replace(r, reads=tuple(on_device(r, x, False) for x in r.reads),
                    writes=tuple(on_device(r, x, True) for x in r.writes))
            for r in records]


def cost_trace(records: list[KernelRecord], device: DeviceSpec, *,
               kbc: bool = False, concurrent: bool = False) -> TraceCost:
    """Simulated total time of a trace.

    ``concurrent=True`` models Neon's dependency-driven scheduling: the
    kernels of one dependency wave run on parallel streams and share one
    synchronisation point, while their memory traffic still serialises on
    the shared DRAM interface.  ``concurrent=False`` models the naive
    port with a device synchronisation after every kernel — the
    distributed-heritage behaviour the paper starts from.
    """
    mem = sum(kernel_time_us(r, device, kbc=kbc, include_launch=False).time_us
              for r in records)
    launch = device.launch_overhead_us * len(records)
    if concurrent:
        g = build_dependency_graph(device_records(records))
        waves = schedule_waves(g)
        launch += device.sync_overhead_us * len(waves)
    else:
        launch += device.sync_overhead_us * len(records)
    return TraceCost(total_us=launch + mem, launch_us=launch, mem_us=mem,
                     kernels=len(records),
                     bytes_total=sum(r.bytes_total for r in records),
                     device=device)


def predicted_mlups(active_per_level: list[int], n_coarse_steps: int,
                    trace: TraceCost) -> float:
    """The paper's MLUPS metric against the *simulated* device time
    (0.0 for an empty trace, as a run of zero steps has no rate)."""
    if trace.total_us == 0:
        return 0.0
    updates = sum(v * (2 ** lv) * n_coarse_steps
                  for lv, v in enumerate(active_per_level))
    return updates / trace.total_us
