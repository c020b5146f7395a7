"""Adaptive mesh refinement — the paper's stated future work (Section VII).

The paper closes with: "we foresee promising research opportunities in
Adaptive Mesh Refinement (AMR) for LBM, enabling dynamic grid resolution
adjustments during runtime".  This module provides that capability on
top of the static multi-resolution machinery:

* :func:`legalize_regions` — turn an arbitrary "I want the finest
  resolution here" indicator into nested, octree-aligned refinement
  regions that satisfy every constraint ``build_multigrid`` enforces
  (ΔL = 1, ghost-children clearance);
* :func:`vorticity_indicator` — the classic feature sensor;
* :func:`regrid` — rebuild the grid for new regions and transfer the
  solution (conservative block-mean restriction of the macroscopic
  fields followed by re-equilibration; the non-equilibrium part is
  rebuilt within a few relaxation times).
"""

from __future__ import annotations

import numpy as np

from ..grid.multigrid import RefinementSpec, _dilate
from .simulation import Simulation

__all__ = ["legalize_regions", "vorticity_indicator", "regrid"]


def _coarsen_any(mask: np.ndarray) -> np.ndarray:
    """Parent cells containing at least one flagged child (factor 2)."""
    d = mask.ndim
    if any(s % 2 for s in mask.shape):
        raise ValueError(f"mask shape {mask.shape} is not even")
    shape = []
    for s in mask.shape:
        shape.extend((s // 2, 2))
    view = mask.reshape(shape)
    return view.any(axis=tuple(range(1, 2 * d, 2)))


def _block_mean(arr: np.ndarray, factor: int) -> np.ndarray:
    """Mean over non-overlapping ``factor^d`` blocks."""
    if factor == 1:
        return arr
    d = arr.ndim
    shape = []
    for s in arr.shape:
        if s % factor:
            raise ValueError(f"axis of length {s} not divisible by {factor}")
        shape.extend((s // factor, factor))
    view = arr.reshape(shape)
    return view.mean(axis=tuple(range(1, 2 * d, 2)))


def legalize_regions(desired_finest: np.ndarray, num_levels: int,
                     periodic: list[bool] | None = None) -> list[np.ndarray]:
    """Legal nested refine regions covering ``desired_finest``.

    ``desired_finest`` is a boolean array at the finest resolution
    (shape ``base * 2^(L-1)``) flagging where level ``L-1`` must exist;
    ``periodic`` flags wrap-around axes so clearance is kept across seams.
    Working from fine to coarse, each coarser region is the parent set
    dilated by two cells — enough clearance for both the max-jump and
    the ghost-children constraints of ``build_multigrid``.  Raises if
    the indicator is empty (use a uniform grid instead).
    """
    desired = np.asarray(desired_finest, dtype=bool)
    if num_levels < 2:
        raise ValueError("legalize_regions needs at least two levels")
    if not desired.any():
        raise ValueError("empty indicator: nothing to refine")
    regions: list[np.ndarray] = [None] * (num_levels - 1)
    cur = desired
    for k in range(num_levels - 2, -1, -1):
        parents = _coarsen_any(cur)
        parents = _dilate(parents, 2, periodic)  # clearance for DL=1 + ghosts
        regions[k] = parents
        cur = parents
    return regions


def vorticity_indicator(sim: Simulation, fraction: float = 0.2) -> np.ndarray:
    """Cells (finest resolution) whose vorticity exceeds ``fraction`` of max.

    Vorticity is evaluated on the composite finest-resolution velocity
    field with central differences; solid cells never flag.
    """
    from ..io.sampling import composite_fields
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    _, u = composite_fields(sim)
    u = np.nan_to_num(u)
    d = sim.mgrid.d
    if d == 2:
        dvdx = np.gradient(u[1], axis=0)
        dudy = np.gradient(u[0], axis=1)
        mag = np.abs(dvdx - dudy)
    else:
        wx = np.gradient(u[2], axis=1) - np.gradient(u[1], axis=2)
        wy = np.gradient(u[0], axis=2) - np.gradient(u[2], axis=0)
        wz = np.gradient(u[1], axis=0) - np.gradient(u[0], axis=1)
        mag = np.sqrt(wx * wx + wy * wy + wz * wz)
    peak = mag.max()
    if peak == 0.0:
        return np.zeros_like(mag, dtype=bool)
    return mag >= fraction * peak


def regrid(sim: Simulation, desired_finest: np.ndarray | None = None,
           regions: list[np.ndarray] | None = None) -> Simulation:
    """Rebuild the simulation on new refinement regions, keeping the flow.

    Exactly one of ``desired_finest`` (legalised automatically) or
    explicit ``regions`` must be given.  The level count, boundary
    conditions, solid, collision model, relaxation and fusion config are
    preserved.  The macroscopic state transfers by conservative
    block-mean restriction of the composite fields; populations restart
    at the corresponding equilibrium.
    """
    from ..io.sampling import composite_fields
    if (desired_finest is None) == (regions is None):
        raise ValueError("pass exactly one of desired_finest / regions")
    old_spec = sim.mgrid.spec
    if regions is None:
        regions = legalize_regions(desired_finest, sim.num_levels,
                                   old_spec.bc.periodic_axes(sim.mgrid.d))
    new_spec = RefinementSpec(
        base_shape=old_spec.base_shape, refine_regions=regions,
        solid=old_spec.solid, bc=old_spec.bc,
        block_size=old_spec.block_size, curve=old_spec.curve)

    # The old simulation's SimConfig carries collision/relaxation/fusion/
    # dtype/force verbatim; only the domain (the spec) changes.
    new_sim = Simulation.from_config(new_spec, sim.sim_config)

    rho_f, u_f = composite_fields(sim)
    rho_f = np.nan_to_num(rho_f, nan=1.0)
    u_f = np.nan_to_num(u_f)
    lmax = new_sim.num_levels - 1
    from .collision import equilibrium
    for lv, buf in enumerate(new_sim.engine.levels):
        factor = 2 ** (lmax - lv)
        rho_lv = _block_mean(rho_f, factor)
        u_lv = np.stack([_block_mean(u_f[a], factor)
                         for a in range(sim.mgrid.d)])
        pos = new_sim.engine.positions(lv)
        rho = rho_lv[tuple(pos.T)]
        u = u_lv[(slice(None),) + tuple(pos.T)]
        feq = equilibrium(new_sim.lattice, rho, u)
        buf.f[:] = feq
        buf.ghost_acc[:] = 0.0
    new_sim.stepper.steps_done = sim.steps_done
    return new_sim
