"""Section VI-A comparisons: Palabos, waLBerla, and uniform vs refined.

Paper's observations on the lid-driven cavity:

* Palabos (multi-core CPU, nonuniform): 2.3 s/iteration vs ours 0.015 s —
  more than two orders of magnitude.  Stand-in: our own CPU execution
  (the functional NumPy engine) against the A100 cost model.
* waLBerla's freshly ported GPU refinement: O(10) MLUPS vs ours >2250 —
  "merely porting CPU code to GPU is not enough".  Stand-in: the
  original distributed-era schedule (Fig. 4a) costed as a naive port
  (sync after every kernel, uncoalesced-access bandwidth).
* Uniform vs refined time-to-solution differs by only 1.18x for this
  cavity refinement — refinement pays off in *memory*, not speed, when
  most of the volume is fine anyway.

All stand-ins are substitutions for closed/unavailable comparators and
are flagged as such in EXPERIMENTS.md.
"""

import dataclasses

from conftest import run_once

from repro.bench.harness import full_scale_mlups, measure
from repro.bench.workloads import lid_cavity
from repro.core.fusion import FUSED_FULL, ORIGINAL_BASELINE
from repro.gpu.costmodel import cost_trace, predicted_mlups
from repro.gpu.device import A100_40GB
from repro.io.tables import format_table
from repro.obs import write_bench_json

#: An unoptimized direct CPU->GPU port: AoS accesses cut the sustained
#: bandwidth, and a device synchronisation follows every kernel.
NAIVE_PORT = dataclasses.replace(A100_40GB, name="A100-naive-port",
                                 sustained_fraction=0.05,
                                 sync_overhead_us=200.0)

# Paper-scale cavity: 240 finest voxels across the box, 3 levels.
PAPER_CAVITY_COUNTS = None  # filled from the scaled grid's distribution


def test_palabos_and_walberla_comparison(benchmark, report):
    wl = lid_cavity(base=(16, 16, 16), num_levels=3, lattice="D3Q19")

    def run():
        ours = measure(wl, FUSED_FULL, steps=2)
        naive = measure(wl, ORIGINAL_BASELINE, steps=2)
        return ours, naive

    ours, naive = run_once(benchmark, run)

    # scale both traces to the paper's cavity (240 finest voxels: 3.375x
    # linear over our 64-finest instance -> 38.4x voxels per level)
    factor = (240 / 64) ** 3
    full_counts = [c * factor for c in reversed(ours.active_per_level)]

    ours_full, ours_cost = full_scale_mlups(ours, full_counts, kbc=False)
    from repro.bench.model import level_factors, scale_trace
    vol, area = level_factors(naive.active_per_level,
                              list(reversed(full_counts)), d=3)
    naive_trace = scale_trace(naive.trace, vol, area)
    naive_cost = cost_trace(naive_trace, NAIVE_PORT, kbc=False, concurrent=False)
    naive_full = predicted_mlups([int(c) for c in reversed(full_counts)],
                                 naive.steps, naive_cost)

    # Palabos stand-in: the functional CPU execution of the same workload
    cpu_s_per_iter = (ours.metrics["wall_seconds"] / ours.steps
                      * factor)  # scaled volume
    gpu_s_per_iter = ours_cost.per_step(ours.steps) / 1e6

    rows = [
        ["Palabos stand-in (CPU, measured)", f"{cpu_s_per_iter:.3f} s/iter",
         f"{ours.metrics['wall_mlups']:.1f} MLUPS"],
        ["ours (A100 model)", f"{gpu_s_per_iter:.4f} s/iter",
         f"{ours_full:.0f} MLUPS"],
        ["naive GPU port (waLBerla stand-in)", "-", f"{naive_full:.0f} MLUPS"],
    ]
    report("", format_table(["System", "Time/iteration", "Throughput"], rows,
                            title="Section VI-A comparisons (cavity, 240 finest "
                                  "voxels; paper: Palabos 2.3 s vs ours 0.015 s, "
                                  "waLBerla O(10) MLUPS vs ours >2250)"))

    write_bench_json("comparisons", {
        "ours_mlups": ours_full, "naive_port_mlups": naive_full,
        "cpu_s_per_iter": cpu_s_per_iter, "gpu_s_per_iter": gpu_s_per_iter})
    assert cpu_s_per_iter / gpu_s_per_iter > 100      # two orders of magnitude
    assert ours_full / naive_full > 10                 # order of magnitude
    assert ours_full > 1500                            # paper: >2250 MLUPS
    benchmark.extra_info["ours_mlups"] = ours_full
    benchmark.extra_info["naive_mlups"] = naive_full


def test_uniform_vs_refined_time_to_solution(benchmark, report):
    """Paper: refined is only 1.18x faster in time-to-solution here."""
    wl = lid_cavity(base=(16, 16, 16), num_levels=3, lattice="D3Q19")

    def run():
        refined = measure(wl, FUSED_FULL, steps=2)
        uni_spec_wl = lid_cavity(base=(32, 32, 32), num_levels=1,
                                 lattice="D3Q19")
        uniform = measure(uni_spec_wl, FUSED_FULL, steps=2)
        return refined, uniform

    refined, uniform = run_once(benchmark, run)

    # same physical end time: one refined coarse step == 4 finest steps;
    # the uniform grid runs everything at the finest resolution
    factor = (240 / 64) ** 3
    refined_counts = [c * factor for c in reversed(refined.active_per_level)]
    _, refined_cost = full_scale_mlups(refined, refined_counts, kbc=False)
    t_refined = refined_cost.per_step(refined.steps)  # us per coarse step

    uniform_full = [240 ** 3]
    _, uniform_cost = full_scale_mlups(uniform, uniform_full, kbc=False)
    # 4 finest-dt steps advance the uniform grid by one coarse time unit
    t_uniform = 4.0 * uniform_cost.per_step(uniform.steps)

    ratio = t_uniform / t_refined
    report("", f"uniform 240^3 vs 3-level refined cavity, time per coarse "
               f"time unit: {t_uniform / 1e3:.2f} ms vs {t_refined / 1e3:.2f} ms "
               f"-> refined {ratio:.2f}x faster (paper: 1.18x; the exact factor "
               f"depends on how much volume the fine shells cover)")
    write_bench_json("uniform_vs_refined", {
        "t_uniform_us": t_uniform, "t_refined_us": t_refined, "speedup": ratio})
    assert ratio > 1.0          # refined wins...
    assert ratio < 5.0          # ...but not dramatically, as the paper notes
    benchmark.extra_info["speedup"] = ratio
