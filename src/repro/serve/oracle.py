"""The scheduler's pricing oracle: cost-model time for a job, unrun.

Admission control and weighted-fair scheduling need the *predicted*
cost of a job before a single kernel executes — and without building
the job's population buffers (pricing a submission must not allocate
the memory the submission is asking for).  This module synthesizes the
job's kernel stream analytically from its
:class:`~repro.grid.multigrid.RefinementSpec` and fusion configuration,
then prices it with the same :func:`repro.gpu.costmodel.cost_trace`
roofline the benchmarks and the static linter use.

Two approximations keep it allocation-free, both deliberate:

* **active cells per level** are read off the spec's refinement masks
  (``refine_regions[k]`` flags the level-``k`` cells subdivided into
  ``k+1``), ignoring the solid mask — an upper bound that is exact for
  obstacle-free domains;
* **the kernel sequence per level** mirrors the stepper's fusion rules
  (CASE on the finest level, CA/SE/SO per flag, explosion only where a
  coarser level exists, coalescence only where a finer one does, the
  original layout's explosion copy) with one full population read +
  write per kernel.

The result is deterministic, monotone in domain size and step count,
and differentiates fusion configs the way Fig. 9 does — which is all a
fair scheduler needs from its oracle.  Exact costs of what actually ran
remain the job of :mod:`repro.obs.roofline` after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.fusion import FusionConfig
from ..core.lattice import get_lattice
from ..gpu.costmodel import cost_trace
from ..gpu.device import A100_40GB, DeviceSpec
from ..neon.runtime import KernelRecord

__all__ = ["JobCost", "active_cells_estimate", "level_kernel_names",
           "synthetic_step_records", "predict_cost"]

#: Fraction of a fine level's write traffic that crosses the refinement
#: interface atomically (the Accumulate scatter).  Any fixed fraction
#: keeps the oracle deterministic; 1/4 matches the ghost-to-owned ratio
#: of the small multigrids the test matrix uses.
_ATOMIC_FRACTION = 0.25


@dataclass(frozen=True)
class JobCost:
    """Predicted device cost of one job.

    ``total_us`` is the scheduling weight; the rest is the breakdown the
    fleet summary and the admission log report.
    """

    total_us: float
    per_step_us: float
    steps: int
    updates_per_step: float
    kernels_per_step: int
    active_per_level: tuple[int, ...]
    device: str

    def as_dict(self) -> dict:
        return {
            "total_us": self.total_us,
            "per_step_us": self.per_step_us,
            "steps": self.steps,
            "updates_per_step": self.updates_per_step,
            "kernels_per_step": self.kernels_per_step,
            "active_per_level": list(self.active_per_level),
            "device": self.device,
        }


def active_cells_estimate(spec) -> list[int]:
    """Owned-cell count per level, straight from the spec's masks.

    Level ``k`` holds the cells that exist at its resolution minus the
    ones subdivided away into level ``k+1``; existence at ``k+1`` is
    ``2^d`` children per flagged parent.  No grid is built.
    """
    d = len(spec.base_shape)
    existing = int(np.prod(spec.base_shape))
    counts: list[int] = []
    regions = list(spec.refine_regions)
    for k in range(len(regions) + 1):
        subdivided = int(np.count_nonzero(regions[k])) if k < len(regions) else 0
        counts.append(max(existing - subdivided, 0))
        existing = subdivided * (2 ** d)
    return counts


def level_kernel_names(config: FusionConfig, level: int,
                       num_levels: int) -> list[str]:
    """The kernel families one substep of ``level`` launches.

    Mirrors the stepper's fusion rules: the finest level runs one CASE
    when it is fused (a single-level grid too), Accumulate exists only on
    levels with a coarser neighbour (the fine side initiates the
    scatter), Explosion only where a coarser level feeds ghosts,
    Coalescence only where a finer level reports back.  The original
    (Fig. 4a) layout adds the explicit Explosion copy into the fine
    ghost layer, beside its gather Accumulate and separate Explosion.
    """
    finest = level == num_levels - 1
    has_coarser = level > 0
    has_finer = not finest
    if config.fuse_cs_finest and finest:
        return ["CASE"]
    names: list[str] = []
    if config.fuse_ca and has_coarser:
        names.append("CA")
    else:
        names.append("C")
        if has_coarser:
            names.append("A")
    if config.original_layout and has_coarser:
        names.append("E")
    fuse_se = config.fuse_se and has_coarser
    fuse_so = config.fuse_so and has_finer
    if fuse_se and fuse_so:
        names.append("SEO")
    elif fuse_se:
        names.append("SE")
        if has_finer:
            names.append("O")
    elif fuse_so:
        names.append("SO")
        if has_coarser:
            names.append("E")
    else:
        names.append("S")
        if has_coarser:
            names.append("E")
        if has_finer:
            names.append("O")
    return names


def synthetic_step_records(spec, config) -> list[KernelRecord]:
    """One coarse step's kernel stream, synthesized without a grid.

    Level ``L`` runs ``2^L`` substeps per coarse step (Algorithm 1);
    each kernel reads and writes one full population set of its level,
    8 bytes a value (the device kernels' width, as the engine's records
    price it, whatever the host's dtype).
    """
    fusion = config.fusion
    lat = get_lattice(config.lattice)
    active = active_cells_estimate(spec)
    num_levels = len(active)
    records: list[KernelRecord] = []
    for level, cells in enumerate(active):
        payload = int(cells) * lat.q * 8
        for _ in range(2 ** level):
            for name in level_kernel_names(fusion, level, num_levels):
                atomic = (int(payload * _ATOMIC_FRACTION)
                          if name in ("A", "CA", "CASE") else 0)
                records.append(KernelRecord(
                    name=name, level=level, n_cells=int(cells),
                    bytes_read=payload, bytes_written=payload,
                    reads=(), writes=(), atomic_bytes=atomic,
                    tag="oracle"))
    return records


def predict_cost(spec, config, steps: int,
                 device: DeviceSpec = A100_40GB) -> JobCost:
    """Price ``steps`` coarse steps of a job on ``device``.

    The synthetic stream is costed with the same roofline as every
    benchmark (:func:`repro.gpu.costmodel.cost_trace`, sequential
    mode); the total is linear in ``steps``.
    """
    records = synthetic_step_records(spec, config)
    per_step = cost_trace(records, device, kbc=config.collision == "kbc",
                          concurrent=False)
    active = active_cells_estimate(spec)
    updates = float(sum(v * (2 ** lv) for lv, v in enumerate(active)))
    return JobCost(
        total_us=per_step.total_us * int(steps),
        per_step_us=per_step.total_us,
        steps=int(steps),
        updates_per_step=updates,
        kernels_per_step=len(records),
        active_per_level=tuple(active),
        device=device.name)
