#!/usr/bin/env python
"""Where the cell-range split stops paying: per-level body timings, split vs not.

For every level of the anchor cavity (16^3 x 3, D3Q19), the half-scale
KBC sphere (D3Q27) and the served 2-D geometries (96^2 x 2, 64^2 x 3,
D2Q9), times the bound collide and stream bodies unsplit and split into
two parts with the size floor removed, and prints one row per level and
body: cells, population bytes per part, median microseconds of each and
their ratio.  Run with one BLAS thread, on an otherwise idle host::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/split_sweep.py
"""

from __future__ import annotations

import time

import numpy as np

import repro.core.engine as engine_mod
from repro.bench.workloads import lid_cavity, sphere_tunnel
from repro.core.simulation import Simulation

GEOMETRIES = {
    "anchor 16^3x3": lambda: lid_cavity(base=(16, 16, 16), num_levels=3),
    "sphere 0.5": lambda: sphere_tunnel(scale=0.5),
    "served 96^2x2": lambda: lid_cavity(base=(96, 96), num_levels=2, lattice="D2Q9"),
    "served 64^2x3": lambda: lid_cavity(base=(64, 64), num_levels=3, lattice="D2Q9"),
}


def _median_us(body, reps: int) -> float:
    body()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        body()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e6


def _bodies(engine, lv: int, width: int) -> dict:
    engine.split_width = width
    return {"collide": engine._collide(lv, engine.omega[lv], engine.force[lv])[0],
            "stream": engine._stream(lv)[0]}


def main() -> int:
    engine_mod.SPLIT_MIN_BYTES = 0
    print(f"{'geometry':16s} {'lv':>2s} {'body':8s} {'cells':>7s} "
          f"{'MB/part':>8s} {'1 part us':>10s} {'2 parts us':>11s} {'ratio':>6s}")
    for name, make in GEOMETRIES.items():
        wl = make()
        with Simulation(wl.spec, wl.sim_config()) as sim:
            engine = sim.engine
            for lv, buf in enumerate(engine.levels):
                n = buf.n_owned
                reps = max(5, min(200, 2_000_000 // max(n, 1)))
                one, two = _bodies(engine, lv, 1), _bodies(engine, lv, 2)
                for body in ("collide", "stream"):
                    t1 = _median_us(one[body], reps)
                    t2 = _median_us(two[body], reps)
                    mb = engine.lat.q * 8 * n / 2 / 1e6
                    print(f"{name:16s} {lv:2d} {body:8s} {n:7d} {mb:8.2f} "
                          f"{t1:10.0f} {t2:11.0f} {t1 / t2:6.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
