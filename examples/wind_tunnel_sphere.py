#!/usr/bin/env python
"""Flow over a sphere in a virtual wind tunnel (paper Fig. 8 / Table I).

Three refinement levels focus resolution around a sphere at Re = 4000
using the entropic KBC collision model on D3Q27 — the paper's turbulent
configuration.  The domain is a scaled-down instance of Table I's
272x192x272 tunnel (full size needs a 40 GB GPU; pass ``--scale`` to grow
it).  Prints flow evolution snapshots and then compares the modified
baseline (Fig. 4b) against the fully fused implementation (Fig. 4f), both
functionally (identical physics) and on the A100 cost model.

Run:  python examples/wind_tunnel_sphere.py [--scale 0.125] [--steps 30]
"""

import argparse

import numpy as np

from repro import FUSED_FULL, MODIFIED_BASELINE, Simulation, drag_coefficient, solid_force
from repro.bench.harness import full_scale_mlups, measure
from repro.bench.workloads import TABLE1_DISTRIBUTIONS, sphere_tunnel
from repro.io.sampling import plane_slice
from repro.io.tables import print_table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=0.125,
                    help="fraction of the Table-I 272x192x272 tunnel")
    ap.add_argument("--steps", type=int, default=30)
    args = ap.parse_args()

    wl = sphere_tunnel(scale=args.scale)
    sim = Simulation.from_config(wl.spec, wl.sim_config(fusion=FUSED_FULL))
    print(f"tunnel {wl.spec.base_shape} (coarse), 3 levels, "
          f"active voxels {sim.mgrid.active_per_level()}, "
          f"KBC/D3Q27, Re={wl.reynolds:g}")

    # -- flow evolution (the Fig.-8 snapshots) -------------------------------
    thirds = [args.steps // 3, 2 * args.steps // 3, args.steps]
    done = 0
    for t in thirds:
        sim.run(t - done)
        done = t
        _, speed = plane_slice(sim, axis=2, position=0.5)
        fx = solid_force(sim.engine)[0]
        radius_fine = 0.11 * min(wl.spec.base_shape[1:]) * 4  # finest units
        cd = drag_coefficient(fx, 1.0, wl.char_velocity,
                              np.pi * radius_fine ** 2)
        print(f"iter {t:4d}: max|u|/u_in = "
              f"{np.nanmax(speed) / wl.char_velocity:.2f}, "  # NaN = solid cells
              f"drag C_d = {cd:.2f}, stable={sim.is_stable()}")

    # -- baseline vs ours (Table I, scaled + extrapolated) ---------------------
    print("\nmeasuring both schedules on this instance...")
    mb = measure(wl, MODIFIED_BASELINE, steps=3)
    mo = measure(wl, FUSED_FULL, steps=3)
    print(f"identical physics, different schedules: baseline "
          f"{mb.metrics['kernels_per_step']:.0f} kernels/step vs ours "
          f"{mo.metrics['kernels_per_step']:.0f}")

    rows = []
    for size, dist in zip(("272x192x272", "544x384x544", "816x576x816"),
                          TABLE1_DISTRIBUTIONS):
        fb, _ = full_scale_mlups(mb, list(dist))
        fo, _ = full_scale_mlups(mo, list(dist))
        rows.append([size, fb, fo, fo / fb])
    print_table(["Size", "Baseline (MLUPS)", "Ours (MLUPS)", "Speedup"], rows,
                title="\nTable I on the A100 cost model "
                      "(paper: 483/1082 x2.20, 1116/1646 x1.48, 1300/1805 x1.39)")


if __name__ == "__main__":
    main()
