#!/usr/bin/env python
"""The Fig.-1 capability experiment: an airplane in a 1596x840x840 tunnel.

The headline of the paper: grid refinement makes a domain of
1596x840x840 (finest-level resolution) simulatable on a single 40 GB
A100, while the best uniform-grid layout (single-buffer AA method) tops
out around 794^3.  This example

1. evaluates the full-size memory footprint analytically (Monte-Carlo
   voxel counts over the airplane proxy's refinement shells),
2. compares against the uniform AA-method bound, and
3. runs a small functional instance of the same workload end-to-end.

The paper's aircraft mesh is proprietary; an ellipsoid-composed proxy with
the same role (slender body, thin refinement shells) substitutes for it —
see DESIGN.md for the substitution rationale.

Run:  python examples/airplane_capability.py
"""


from repro import Simulation
from repro.bench.workloads import airplane_geometry, airplane_tunnel
from repro.gpu.device import A100_40GB
from repro.gpu.memory import (mc_level_counts, refined_memory_bytes,
                              uniform_aa_max_cube, uniform_memory_bytes)
from repro.io.tables import print_table

FINEST = (1596, 840, 840)
LEVELS = 4

# -- 1. full-size memory analysis -----------------------------------------------
base, plane, widths = airplane_geometry(finest_shape=FINEST, scale=1.0,
                                        num_levels=LEVELS)
counts = mc_level_counts(plane, base, widths, samples=500_000)
rows = [[f"level {lv}", f"{n / 1e6:.2f}M"]
        for lv, n in enumerate(counts["owned"])]
print_table(["Grid level (0 = coarsest)", "Active voxels"], rows,
            title=f"Refined {FINEST[0]}x{FINEST[1]}x{FINEST[2]} tunnel, "
                  f"{LEVELS} levels")

rep = refined_memory_bytes(counts, q=27, itemsize=8, scheme="optimized")
print(f"\nrefined footprint (D3Q27, double, two buffers): "
      f"{rep.total / 1e9:.1f} GB  -> fits A100-40GB: {rep.fits(A100_40GB)}")

uniform = uniform_memory_bytes(FINEST, q=27, itemsize=8, buffers=1)
print(f"uniform AA-method at the same finest resolution: "
      f"{uniform / 1e9:.0f} GB  -> fits: {uniform <= A100_40GB.capacity_bytes}")
print(f"largest uniform AA cube on 40 GB (D3Q19/fp32, paper's bound): "
      f"{uniform_aa_max_cube(A100_40GB, 19, 4)}^3  (paper: ~794^3)")

# -- 2. small functional instance of the same workload ----------------------------
print("\nrunning a scaled functional instance (scale = 0.06) ...")
wl = airplane_tunnel(finest_shape=FINEST, scale=0.06, num_levels=3)
sim = Simulation.from_config(wl.spec, wl.sim_config())
print(f"base {wl.spec.base_shape}, active voxels {sim.mgrid.active_per_level()}")
run = sim.run(8)
print(f"{run.steps} coarse steps: stable={sim.is_stable()}, "
      f"max|u|/u_in={sim.max_velocity() / wl.char_velocity:.2f}, "
      f"{run.mlups:.2f} wall-clock MLUPS")
