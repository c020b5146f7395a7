"""Physics gate: the refined cylinder at Re 100 against its float64 reference.

Runs ``cylinder_channel(100, 1/6, 3)`` (D2Q9 BGK, 3 levels, ``ours-4f``,
compiled) from a deterministically seeded asymmetric start and measures
the mean drag coefficient and the Strouhal number of the vortex street
over whole shedding periods, in float32 and in float64.  Each run must lie
within 1 % (mean C_d) and 2 % (St) of the float64 values pinned below:
the float32 step is held to the float64 run on the same grid, and the
float64 run to itself.

Usage::

    PYTHONPATH=src python tools/physics_gate.py

Exit 0 when both runs are within their bounds, 1 otherwise (~25 s a dtype on
a 2-vCPU x86-64 host).

Why the seed: the channel is mirror symmetric, so only round-off breaks
the symmetry, and a run's onset of shedding is a property of its
round-off, not of the physics (unseeded, float64 did not shed within
30 000 coarse steps, float32 began at about 24 900).  A transverse
velocity blob one diameter behind the body, 0.3 U high, sets the onset
for both dtypes: the street is saturated by step 9 000.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.bench.workloads import cylinder_channel
from repro.core.diagnostics import solid_force
from repro.core.simulation import Simulation

#: The float64 run of this script (x86-64, OpenBLAS 0.3.31, SkylakeX
#: kernels: C_d 1.48966, St 0.14117 over 6 periods; float32 read 1.48978
#: and 0.14117): the regression bound every run is held to.
PINNED_CD = 1.4897
PINNED_ST = 0.14117
#: Bounds, relative to the pinned values.
CD_TOL, ST_TOL = 0.01, 0.02
#: Williamson (1996), unconfined cylinder at Re 100, for reference only:
#: the refined grid reads low (St 12 % under the uniform-fine run's 0.161:
#: the hand-placed shells leave the near wake on levels 0-1, ROADMAP item 4).
WILLIAMSON_ST = 0.164

SEED = 0.3
#: Coarse steps run, the step the measuring window starts at, and the
#: sampling interval of the force.
STEPS, WINDOW, EVERY = 17_000, 9_000, 5


def seeded_start(wl):
    """Uniform ``U`` plus a transverse blob one diameter behind the body."""
    u0, d = wl.char_velocity, 2 * wl.obstacle.radius
    cx, cy = wl.obstacle.center

    def u(centers):
        x, y = centers[:, 0], centers[:, 1]
        out = np.zeros((2, len(centers)))
        out[0] = u0
        out[1] = SEED * u0 * np.exp(-((x - cx - d) ** 2 + (y - cy) ** 2) / (0.5 * d) ** 2)
        return out
    return u


def shedding(cd: np.ndarray, cl: np.ndarray, dt: float) -> tuple[float, float, int]:
    """``(mean C_d, period, periods)`` over the whole periods between the
    first and last upward zero crossing of ``C_l`` minus its mean,
    crossings placed by linear interpolation; ``dt`` the sample spacing."""
    x = cl - cl.mean()
    k = np.flatnonzero((x[:-1] < 0) & (x[1:] >= 0))
    if len(k) < 3:
        raise RuntimeError(f"{len(k)} upward crossings of C_l: the wake does not shed")
    t = (k + x[k] / (x[k] - x[k + 1])) * dt
    periods = len(t) - 1
    mean_cd = float(cd[k[0]:k[-1]].mean())
    return mean_cd, (t[-1] - t[0]) / periods, periods


def measure(dtype: str) -> dict:
    wl = cylinder_channel(100, 1 / 6, 3)
    u0, d = wl.char_velocity, 2 * wl.obstacle.radius
    q = 0.5 * u0 * u0 * d
    cd, cl = [], []
    t0 = time.perf_counter()
    with Simulation.from_config(wl.spec, wl.sim_config(
            fusion="ours-4f", backend="compiled", dtype=dtype)) as sim:
        sim.initialize(u=seeded_start(wl))
        sim.run(WINDOW)
        while sim.steps_done < STEPS:
            sim.run(EVERY)
            fx, fy = solid_force(sim.engine)
            cd.append(fx / q)
            cl.append(fy / q)
    mean_cd, period, periods = shedding(np.array(cd), np.array(cl), EVERY)
    return {"dtype": dtype, "cd": mean_cd, "st": d / (u0 * period),
            "periods": periods, "seconds": time.perf_counter() - t0}


def main() -> int:
    print(f"refined cylinder, Re 100, blockage 1/6, 3 levels, {STEPS} coarse steps; "
          f"pinned float64: C_d {PINNED_CD}, St {PINNED_ST} "
          f"(Williamson 1996: St {WILLIAMSON_ST})")
    failed = False
    for dtype in ("float32", "float64"):
        r = measure(dtype)
        dcd, dst = r["cd"] / PINNED_CD - 1, r["st"] / PINNED_ST - 1
        ok = abs(dcd) <= CD_TOL and abs(dst) <= ST_TOL
        failed |= not ok
        print(f"[{'OK' if ok else 'FAIL'}] {dtype}: mean C_d {r['cd']:.5f} ({dcd:+.2%}, "
              f"bound {CD_TOL:.0%}), St {r['st']:.5f} ({dst:+.2%}, bound {ST_TOL:.0%}), "
              f"{r['periods']} periods, {r['seconds']:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
