"""Figure 2 — data-dependency graphs of the baseline vs our implementation.

The paper's claim: the baseline needs ~3x more kernels per coarse step
with complex cross-level dependencies, while the optimized schedule is
far simpler.  We regenerate both DAGs for a three-level grid from the
recorded traces and print the node census by kernel type.
"""

from conftest import run_once

from repro.bench.workloads import lid_cavity
from repro.core.fusion import FUSED_FULL, MODIFIED_BASELINE
from repro.core.simulation import Simulation
from repro.gpu.costmodel import device_records
from repro.io.tables import format_table
from repro.neon.graph import build_dependency_graph, graph_stats
from repro.obs import write_bench_json


def trace_one_step(config):
    # the schedule/DAG is dimension-independent; 2-D keeps the bench fast
    wl = lid_cavity(base=(24, 24), num_levels=3, lattice="D2Q9")
    sim = Simulation.from_config(wl.spec, wl.sim_config(fusion=config))
    sim.run(2)  # second step gives the steady-state schedule
    return sim.runtime.last_step()


def test_fig2_kernel_graphs(benchmark, report):
    def run():
        return trace_one_step(MODIFIED_BASELINE), trace_one_step(FUSED_FULL)

    base_trace, ours_trace = run_once(benchmark, run)

    rows = []
    stats = {}
    for name, trace in (("baseline (Fig. 2 top)", base_trace),
                        ("ours (Fig. 2 bottom)", ours_trace)):
        g = build_dependency_graph(device_records(trace))
        s = graph_stats(g)
        stats[name] = s
        census = {}
        for r in trace:
            census[f"{r.name}{r.level}"] = census.get(f"{r.name}{r.level}", 0) + 1
        nodes = " ".join(f"{k}x{v}" for k, v in sorted(census.items()))
        rows.append([name, s["kernels"], s["edges"], s["depth"], nodes])
    report("", format_table(
        ["Schedule", "Kernels", "Deps", "Sync depth", "Node census"],
        rows, title="Fig. 2: one coarse step of a 3-level grid"))

    kb = stats["baseline (Fig. 2 top)"]["kernels"]
    ko = stats["ours (Fig. 2 bottom)"]["kernels"]
    report(f"kernel reduction: {kb}/{ko} = {kb / ko:.2f}x "
           f"(paper: 'around three times fewer kernels')")
    write_bench_json("fig2_kernel_graph", {
        "stats": stats, "kernels_baseline": kb, "kernels_ours": ko,
        "reduction": kb / ko})
    assert 2.5 <= kb / ko <= 3.5
    assert stats["ours (Fig. 2 bottom)"]["depth"] < \
        stats["baseline (Fig. 2 top)"]["depth"]
