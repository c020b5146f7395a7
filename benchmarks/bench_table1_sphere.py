"""Table I — flow over a sphere: modified baseline (Fig. 4b) vs ours (Fig. 4f).

Runs the wind-tunnel-with-sphere workload functionally at a reduced
scale, times it (pytest-benchmark), and extrapolates the recorded kernel
trace to the paper's three domain sizes on the A100 cost model.

Paper's rows (MLUPS):
    272x192x272   483.63 / 1081.67   speedup 2.20
    544x384x544  1115.80 / 1646.37   speedup 1.48
    816x576x816  1299.70 / 1805.03   speedup 1.39
Expectation: same winner, speedup in the 1.3-2.3x band, decaying with size.
"""

import statistics

from conftest import run_once

from repro.bench.harness import full_scale_mlups, measure
from repro.bench.workloads import TABLE1_DISTRIBUTIONS, TABLE1_SIZES, sphere_tunnel
from repro.core.fusion import FUSED_FULL, MODIFIED_BASELINE
from repro.io.tables import format_table
from repro.obs import write_bench_json

PAPER = ((483.63, 1081.67), (1115.80, 1646.37), (1299.70, 1805.03))


def test_table1_sphere(benchmark, report):
    wl = sphere_tunnel(scale=0.125)

    def run():
        mb = measure(wl, MODIFIED_BASELINE, steps=3)
        mo = measure(wl, FUSED_FULL, steps=3)
        return mb, mo

    mb, mo = run_once(benchmark, run)

    rows = []
    speedups = []
    for size, dist, paper in zip(TABLE1_SIZES, TABLE1_DISTRIBUTIONS, PAPER):
        fb, _ = full_scale_mlups(mb, list(dist))
        fo, _ = full_scale_mlups(mo, list(dist))
        speedups.append(fo / fb)
        rows.append(["x".join(map(str, size)),
                     f"{dist[0] / 1e6:.3g}/{dist[1] / 1e6:.3g}/{dist[2] / 1e6:.3g}",
                     fb, fo, fo / fb, f"{paper[0]:.0f}/{paper[1]:.0f}",
                     paper[1] / paper[0]])
    report("", format_table(
        ["Size", "Distribution (x1e6)", "Baseline", "Ours", "Speedup",
         "Paper B/O", "Paper x"],
        rows, title="Table I: sphere wind tunnel, A100-40GB cost model (MLUPS)"))
    report(f"functional wall-clock at scale 0.125: baseline "
           f"{mb.metrics['wall_mlups']:.2f} vs ours "
           f"{mo.metrics['wall_mlups']:.2f} NumPy-MLUPS")

    benchmark.extra_info["speedups"] = speedups
    write_bench_json("table1_sphere", {
        "speedups": speedups,
        "sizes": ["x".join(map(str, s)) for s in TABLE1_SIZES],
        "baseline": mb.summary(), "ours": mo.summary()})
    assert all(fo > fb for fo, fb in [(s, 1.0) for s in speedups])
    assert speedups[0] > speedups[-1]          # speedup decays with size
    assert 1.3 <= min(speedups) and max(speedups) <= 2.6


def test_table1_functional_wallclock(benchmark, report):
    """The same comparison in honest NumPy wall-clock (fewer passes win too)."""
    wl = sphere_tunnel(scale=0.125)
    from repro.core.simulation import Simulation
    sim = Simulation.from_config(wl.spec, wl.sim_config(fusion=FUSED_FULL))
    sim.run(1)  # warmup
    runs = []

    def step():
        runs.append(sim.run(1))

    benchmark(step)
    numpy_mlups = statistics.median(r.mlups for r in runs)
    report(f"fused coarse step on {sim.mgrid.active_per_level()} voxels: "
           f"{numpy_mlups:.2f} NumPy-MLUPS (median of {len(runs)} steps)")
    write_bench_json("table1_functional_wallclock", {
        "numpy_mlups": numpy_mlups,
        "active_per_level": sim.mgrid.active_per_level()})
