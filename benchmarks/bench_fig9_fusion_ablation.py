"""Figure 9 — ablation of the fusion configurations on the sphere workload.

The paper's bar chart shows MLUPS for: baseline (4b), fused CA, fused SE,
fused SO, all single fusions, and the full CASE+SO configuration, with
the finest-level collide-stream fusion contributing the largest share.
We regenerate the series on the A100 cost model at the smallest Table-I
size and assert the paper's two qualitative findings: monotone benefit
of adding fusions, and CASE fusion being the largest single jump.
"""

from conftest import run_once

from repro.bench.harness import full_scale_mlups, measure
from repro.bench.workloads import TABLE1_DISTRIBUTIONS, sphere_tunnel
from repro.core.fusion import ABLATION_CONFIGS
from repro.io.tables import format_table
from repro.obs import write_bench_json


def test_fig9_fusion_ablation(benchmark, report):
    wl = sphere_tunnel(scale=0.125)

    def run():
        return {cfg.name: measure(wl, cfg, steps=3) for cfg in ABLATION_CONFIGS}

    results = run_once(benchmark, run)

    dist = list(TABLE1_DISTRIBUTIONS[0])
    rows = []
    mlups = {}
    for cfg in ABLATION_CONFIGS:
        m = results[cfg.name]
        full, _ = full_scale_mlups(m, dist)
        mlups[cfg.name] = full
        rows.append([cfg.name, f"{m.metrics['kernels_per_step']:.0f}",
                     m.metrics["bytes_per_step"] / 1e6, full])
    report("", format_table(
        ["Config", "Kernels/step", "MB/step (scaled)", "MLUPS (272x192x272)"],
        rows, title="Fig. 9: fusion ablation on the A100 cost model"))

    write_bench_json("fig9_fusion_ablation", {
        "mlups_full_scale": mlups,
        "measurements": {cfg.name: results[cfg.name].summary()
                         for cfg in ABLATION_CONFIGS}})

    base = mlups["baseline-4b"]
    full = mlups["ours-4f"]
    # every fusion helps over the baseline
    assert all(v >= base * 0.98 for v in mlups.values())
    # the fully fused variant wins
    assert full == max(mlups.values())
    # the finest-level CASE fusion is the largest single contribution
    jump_case = full - mlups["fuse-CA+SE+SO"]
    singles = [mlups["fuse-CA"] - base, mlups["fuse-SE"] - base,
               mlups["fuse-SO"] - base]
    assert jump_case > max(singles)
    benchmark.extra_info["mlups"] = mlups
