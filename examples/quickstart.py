#!/usr/bin/env python
"""Quickstart: a 3-level lid-driven cavity on the public API.

Builds the nonuniform grid of the paper's Fig. 6 (refinement hugging all
walls), runs the fully fused algorithm (Fig. 4f), and reports wall-clock
MLUPS plus the kernel-launch savings over the baseline schedule.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (FUSED_FULL, MODIFIED_BASELINE, DomainBC, FaceBC,
                   RefinementSpec, SimConfig, Simulation, wall_refinement)

# -- 1. describe the domain ---------------------------------------------------
# A 24^3 coarse box, refined twice near the walls: the finest level spans
# 96 voxels across the cavity.
base = (24, 24, 24)
spec = RefinementSpec(
    base_shape=base,
    refine_regions=wall_refinement(base, num_levels=3, widths=[5.0, 1.75]),
    bc=DomainBC({"z+": FaceBC("moving", velocity=(0.06, 0.0, 0.0))}),
)

# -- 2. build and run the simulation ------------------------------------------
nu = 0.06 * base[0] / 100.0  # Re = u_lid * L / nu = 100
cfg = SimConfig(lattice="D3Q19", collision="bgk", viscosity=nu,
                fusion=FUSED_FULL)
sim = Simulation.from_config(spec, cfg)
print(f"levels: {sim.num_levels}, active voxels per level: "
      f"{sim.mgrid.active_per_level()}")

run = sim.run(20)
print(f"{run.steps} coarse steps in {run.seconds:.2f}s "
      f"-> {run.mlups:.2f} MLUPS (NumPy wall-clock)")
print(f"stable: {sim.is_stable()}, max |u|: {sim.max_velocity():.4f}")

# -- 3. inspect the flow --------------------------------------------------------
rho, u = sim.macroscopics(sim.num_levels - 1)
print(f"finest level: {rho.size} cells, "
      f"mean density {rho.mean():.6f}, max speed {np.sqrt((u*u).sum(0)).max():.4f}")

# -- 4. what did fusion buy? ---------------------------------------------------
base_sim = Simulation.from_config(spec, cfg.replace(fusion=MODIFIED_BASELINE))
base_sim.run(1)
sim.runtime.reset()
sim.run(1)
print(f"kernel launches per coarse step: baseline "
      f"{base_sim.runtime.launches()} vs fused {sim.runtime.launches()} "
      f"({base_sim.runtime.launches() / sim.runtime.launches():.1f}x fewer)")
