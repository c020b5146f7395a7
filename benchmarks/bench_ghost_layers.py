"""Section IV-A — ghost-layer memory: one coarse layer vs four fine layers.

The optimized algorithm allocates a single ghost layer on the coarse
side of each interface (holding a Q-component accumulator), replacing
the baseline's four fine ghost layers that duplicate full population
sets in both buffers.  We compile both layouts on the same domains and
report exact byte counts — regenerating the paper's memory-reduction
claim (it quotes a 1/3 reduction counted in overlapped coarse layers;
exact per-cell accounting shows an even larger saving).
"""

from conftest import run_once

from repro.bench.workloads import lid_cavity, sphere_tunnel
from repro.core.simulation import Simulation
from repro.gpu.memory import grid_memory_report
from repro.io.tables import format_table
from repro.obs import write_bench_json


def test_ghost_layer_memory(benchmark, report):
    workloads = [lid_cavity(base=(16, 16, 16), num_levels=2, lattice="D3Q19"),
                 lid_cavity(base=(20, 20, 20), num_levels=3, lattice="D3Q19"),
                 sphere_tunnel(scale=0.125)]

    def run():
        out = []
        for wl in workloads:
            sim = Simulation.from_config(wl.spec, wl.sim_config())
            out.append((wl.name, sim.mgrid))
        return out

    grids = run_once(benchmark, run)

    rows = []
    for name, mgrid in grids:
        opt = grid_memory_report(mgrid, scheme="optimized")
        orig = grid_memory_report(mgrid, scheme="original")
        ghost_opt, ghost_orig = opt.ghost_accumulators, orig.ghost_populations
        rows.append([name, ghost_orig / 1e6, ghost_opt / 1e6,
                     ghost_orig / max(ghost_opt, 1), orig.total / opt.total])
        # the optimized layout always needs (much) less ghost memory
        assert ghost_opt * 3 <= ghost_orig
        assert opt.total < orig.total
    report("", format_table(
        ["Workload", "Ghost 4a (MB)", "Ghost 4b (MB)", "Ghost ratio",
         "Total ratio"],
        rows, title="Section IV-A: ghost-layer memory, original vs optimized"))
    write_bench_json("ghost_layers", {
        "rows": [{"workload": r[0], "ghost_original_mb": r[1],
                  "ghost_optimized_mb": r[2], "ghost_ratio": r[3],
                  "total_ratio": r[4]} for r in rows]})
