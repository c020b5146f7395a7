"""Mini-Neon runtime and dependency-graph extraction (Fig. 2, Section V-C)."""

import pytest

from repro.analysis.capture import AccessTracer
from repro.backend.plan import StepPlan
from repro.core.fusion import FUSED_FULL, MODIFIED_BASELINE
from repro.core.simulation import Simulation
from repro.grid.geometry import wall_refinement
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec
from repro.neon.graph import (ConflictPair, KernelDAG, build_dependency_graph,
                              graph_stats, iter_conflict_pairs, schedule_waves)
from repro.neon.runtime import FieldRef, KernelRecord, Runtime


def rec(name, level, reads=(), writes=()):
    return KernelRecord(name=name, level=level, n_cells=10, bytes_read=100,
                        bytes_written=100, reads=tuple(reads), writes=tuple(writes))


F0, FS0 = FieldRef("f", 0), FieldRef("fstar", 0)
F1, FS1 = FieldRef("f", 1), FieldRef("fstar", 1)


def kernel(run, nbytes=1):
    """A ``(run, report)`` pair whose report reads and writes ``f@0``."""
    def report(t):
        t.read(F0, 0, 1, nbytes)
        t.write(F0, 0, 1, 2 * nbytes)
    return run, report


def run(rt, *names):
    """Launch one no-op kernel per name, then run them as a plan."""
    records, bodies, _ = rt.capture_plan(lambda: [
        rt.launch(name, 0, 1, kernel(lambda: None)) for name in names],
        AccessTracer())
    StepPlan(records, bodies).execute(rt)


class TestRuntime:
    def test_launch_declares_and_the_plan_runs(self):
        rt = Runtime()
        hit = []
        records, bodies, accesses = rt.capture_plan(lambda: rt.launch(
            "C", 0, 5, kernel(lambda: hit.append(1), nbytes=10)), AccessTracer())
        assert hit == [] and rt.launches() == 0     # declared, not run
        assert records[0].bytes_total == 30 and records[0].n_cells == 5
        assert [a.kind for a in accesses[0]] == ["read", "write"]
        StepPlan(records, bodies).execute(rt)
        assert hit == [1] and rt.records == records

    def test_launch_outside_a_capture_is_refused(self):
        rt = Runtime()
        with pytest.raises(RuntimeError, match="outside Runtime.capture_plan"):
            rt.launch("C", 0, 1, kernel(lambda: None))
        with pytest.raises(RuntimeError, match="inside a capture"):
            rt.capture_plan(lambda: rt.capture_plan(lambda: None, AccessTracer()),
                            AccessTracer())
        # and the runtime recovered
        assert rt.capture_plan(lambda: None, AccessTracer()) == ([], [], {})

    def test_step_marker_slicing(self):
        rt = Runtime()
        run(rt, "C")
        rt.step_marker()
        run(rt, "S", "O")
        rt.step_marker()
        last = rt.last_step()
        assert [r.name for r in last] == ["S", "O"]

    def test_last_step_without_markers(self):
        rt = Runtime()
        run(rt, "C")
        assert len(rt.last_step()) == 1

    def test_reset(self):
        rt = Runtime()
        run(rt, "C")
        rt.step_marker()
        rt.reset()
        assert rt.launches() == 0 and rt.markers == []


class TestDependencyGraph:
    def test_raw_edge(self):
        g = build_dependency_graph([
            rec("C", 0, reads=[F0], writes=[FS0]),
            rec("S", 0, reads=[FS0], writes=[F0]),
        ])
        assert g.has_edge(0, 1)
        assert g.number_of_edges() == 1

    def test_war_edge(self):
        g = build_dependency_graph([
            rec("S", 0, reads=[FS0], writes=[F0]),
            rec("C", 0, reads=[F0], writes=[FS0]),  # writes what 0 read
        ])
        assert g.has_edge(0, 1)

    def test_waw_edge(self):
        g = build_dependency_graph([
            rec("E", 1, writes=[F1]),
            rec("S", 1, writes=[F1]),
        ])
        assert g.has_edge(0, 1)

    def test_independent_kernels_unconnected(self):
        g = build_dependency_graph([
            rec("C", 0, reads=[F0], writes=[FS0]),
            rec("C", 1, reads=[F1], writes=[FS1]),
        ])
        assert g.number_of_edges() == 0

    def test_acyclic(self):
        sim = Simulation.from_config(RefinementSpec((16, 16), wall_refinement((16, 16), 2, [3.0])),
                                     lattice="D2Q9", collision="bgk",
                                     viscosity=0.05, fusion=MODIFIED_BASELINE)
        sim.run(2)
        g = build_dependency_graph(sim.runtime.records)
        # every edge runs forward in program order: acyclic by construction
        assert g.number_of_edges() and all(u < v for u, v in g.edges())

    def test_labels_follow_paper_naming(self):
        g = build_dependency_graph([rec("C", 0), rec("S", 1)])
        assert g.nodes[0]["label"] == "C0"
        assert g.nodes[1]["label"] == "S1"


class TestScheduleWaves:
    def test_chain_depth(self):
        g = build_dependency_graph([
            rec("C", 0, reads=[F0], writes=[FS0]),
            rec("S", 0, reads=[FS0], writes=[F0]),
            rec("C", 0, reads=[F0], writes=[FS0]),
        ])
        waves = schedule_waves(g)
        assert [len(w) for w in waves] == [1, 1, 1]

    def test_parallel_wave(self):
        g = build_dependency_graph([
            rec("C", 0, reads=[F0], writes=[FS0]),
            rec("C", 1, reads=[F1], writes=[FS1]),
            rec("S", 0, reads=[FS0, FS1], writes=[F0]),
        ])
        waves = schedule_waves(g)
        assert waves[0] == [0, 1]
        assert waves[1] == [2]

    def test_empty(self):
        assert schedule_waves(KernelDAG()) == []


class TestGraphEdgeCases:
    def test_empty_trace(self):
        g = build_dependency_graph([])
        assert g.number_of_nodes() == 0 and g.number_of_edges() == 0
        assert schedule_waves(g) == []
        assert graph_stats(g) == {"kernels": 0, "edges": 0, "depth": 0,
                                  "max_width": 0, "mean_width": 0.0}

    def test_single_kernel(self):
        g = build_dependency_graph([rec("C", 0, reads=[F0], writes=[FS0])])
        assert schedule_waves(g) == [[0]]
        stats = graph_stats(g)
        assert stats["kernels"] == 1 and stats["depth"] == 1

    def test_kernel_with_no_declared_fields_floats_free(self):
        g = build_dependency_graph([
            rec("C", 0, reads=[F0], writes=[FS0]),
            rec("N", 0),  # no declarations: depends on nothing
        ])
        assert g.number_of_edges() == 0
        assert schedule_waves(g) == [[0, 1]]

    def test_war_only_chain(self):
        # k0 reads A; k1 overwrites A and reads B; k2 overwrites B:
        # two WAR edges, no RAW/WAW, depth 3.
        A, B = FieldRef("a", 0), FieldRef("b", 0)
        g = build_dependency_graph([
            rec("R", 0, reads=[A]),
            rec("W", 0, reads=[B], writes=[A]),
            rec("V", 0, writes=[B]),
        ])
        assert g.number_of_edges() == 2
        assert all(d["dep"] == "war" for _, _, d in g.edges(data=True))
        assert schedule_waves(g) == [[0], [1], [2]]

    def test_self_access_makes_no_self_loop(self):
        g = build_dependency_graph([rec("O", 0, reads=[F0], writes=[F0])])
        assert g.number_of_edges() == 0


class TestIntervalRefinement:
    """Half-open interval semantics of the access-refined conflict pairs
    (:func:`~repro.neon.graph.iter_conflict_pairs` with an access map, as
    the fusion-legality proof enumerates them)."""

    @staticmethod
    def _pairs(span_a, span_b):
        from repro.analysis.capture import Access
        records = [rec("W", 0, writes=[F0]), rec("R", 0, reads=[F0])]
        amap = {0: [Access(F0, "write", span_a[0], span_a[1], 8)],
                1: [Access(F0, "read", span_b[0], span_b[1], 8)]}
        return list(iter_conflict_pairs(records, amap))

    def test_touching_half_open_intervals_do_not_conflict(self):
        # [0,5) then [5,10): row 5 is in exactly one of them
        assert self._pairs((0, 5), (5, 10)) == []
        assert self._pairs((5, 10), (0, 5)) == []

    def test_one_row_overlap_conflicts(self):
        assert self._pairs((0, 6), (5, 10)) == [ConflictPair(0, 1, "raw", F0)]

    def test_identical_single_row_conflicts(self):
        assert len(self._pairs((5, 6), (5, 6))) == 1

    def test_empty_interval_never_conflicts(self):
        assert self._pairs((5, 5), (0, 10)) == []

    def test_exact_entry_sets_refine_overlapping_envelopes(self):
        # interleaved scatter patches: same bounding interval, disjoint
        # entries — must not conflict; sharing one entry must
        from repro.analysis.capture import Access, EntrySet

        def pairs(e0, e1):
            records = [rec("W", 0, writes=[F0]), rec("V", 0, writes=[F0])]
            amap = {i: [Access(F0, "write", 0, 10, 8, entries=EntrySet(e))]
                    for i, e in enumerate((e0, e1))}
            return list(iter_conflict_pairs(records, amap))

        assert pairs([4, 0, 2], [1, 3, 5, 3]) == []
        assert pairs([4, 0, 2], [1, 4, 5]) == [ConflictPair(0, 1, "waw", F0)]

    def test_atomic_scatters_commute(self):
        from repro.analysis.capture import Access
        records = [rec("X", 0, writes=[F0]), rec("Y", 0, writes=[F0])]
        amap = {i: [Access(F0, "atomic", 0, 10, 80)] for i in range(2)}
        assert list(iter_conflict_pairs(records, amap)) == []
        assert len(list(iter_conflict_pairs(records))) == 1
        # atomicity does not order an atomic add against a plain read
        records = [rec("X", 0, writes=[F0]), rec("R", 0, reads=[F0])]
        amap = {0: [Access(F0, "atomic", 0, 10, 80)],
                1: [Access(F0, "read", 2, 4, 16)]}
        assert list(iter_conflict_pairs(records, amap)) == [
            ConflictPair(0, 1, "raw", F0)]

    def test_missing_capture_stays_conservative(self):
        from repro.analysis.capture import Access
        records = [rec("X", 0, writes=[F0]), rec("Y", 0, writes=[F0])]
        amap = {0: [Access(F0, "write", 0, 5, 40)]}
        assert list(iter_conflict_pairs(records, amap)) == [
            ConflictPair(0, 1, "waw", F0)]

    def test_every_pair_is_enumerated_not_only_the_last_writer(self):
        # W1 writes rows [0,10), W2 rows [10,20), R reads [0,5): R pairs
        # with W1 although W2 wrote last, and with W2 not at all
        from repro.analysis.capture import Access
        records = [rec("W1", 0, writes=[F0]), rec("W2", 0, writes=[F0]),
                   rec("R", 0, reads=[F0])]
        amap = {0: [Access(F0, "write", 0, 10, 80)],
                1: [Access(F0, "write", 10, 20, 80)],
                2: [Access(F0, "read", 0, 5, 40)]}
        assert list(iter_conflict_pairs(records, amap)) == [
            ConflictPair(0, 2, "raw", F0)]


class TestDegenerateSchedules:
    """stream_assignment / graph_stats on empty, single and serial graphs."""

    def test_empty_stream(self):
        from repro.neon.graph import stream_assignment
        g = build_dependency_graph([])
        assert stream_assignment(g) == {}
        assert graph_stats(g)["mean_width"] == 0.0

    def test_single_kernel(self):
        from repro.neon.graph import stream_assignment
        g = build_dependency_graph([rec("C", 0, reads=[F0], writes=[FS0])])
        assert stream_assignment(g) == {0: (0, 0)}
        stats = graph_stats(g)
        assert stats == {"kernels": 1, "edges": 0, "depth": 1,
                         "max_width": 1, "mean_width": 1.0}

    def test_fully_serial_chain(self):
        from repro.neon.graph import stream_assignment
        n = 6
        records = []
        for k in range(n):
            records.append(rec("C" if k % 2 == 0 else "S", 0,
                               reads=[F0 if k % 2 == 0 else FS0],
                               writes=[FS0 if k % 2 == 0 else F0]))
        g = build_dependency_graph(records)
        assign = stream_assignment(g)
        # every kernel alone in its wave, always on stream 0
        assert assign == {k: (k, 0) for k in range(n)}
        stats = graph_stats(g)
        assert stats["depth"] == n
        assert stats["max_width"] == 1 and stats["mean_width"] == 1.0

    def test_all_independent_single_wave(self):
        from repro.neon.graph import stream_assignment
        records = [rec("C", lv, reads=[FieldRef("f", lv)],
                       writes=[FieldRef("fstar", lv)]) for lv in range(4)]
        g = build_dependency_graph(records)
        assign = stream_assignment(g)
        assert assign == {k: (0, k) for k in range(4)}
        assert graph_stats(g)["max_width"] == 4


class TestGoldenKernelCounts:
    """Pin the Fig. 2 per-coarse-step launch counts (~3x reduction)."""

    SPEC = dict(base=(24, 24), levels=3, widths=[7.0, 2.0])

    def last_step(self, config):
        bc = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
        spec = RefinementSpec(self.SPEC["base"],
                              wall_refinement(self.SPEC["base"],
                                              self.SPEC["levels"],
                                              self.SPEC["widths"]), bc=bc)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.05, fusion=config)
        sim.run(2)
        return sim.runtime.last_step()

    def counts(self, config):
        from collections import Counter
        return Counter(f"{r.name}{r.level}" for r in self.last_step(config))

    def test_modified_baseline_composition(self):
        assert self.counts(MODIFIED_BASELINE) == {
            "C0": 1, "S0": 1, "O0": 1,
            "C1": 2, "A1": 2, "E1": 2, "S1": 2, "O1": 2,
            "C2": 4, "A2": 4, "E2": 4, "S2": 4,
        }

    def test_fused_full_composition(self):
        assert self.counts(FUSED_FULL) == {
            "C0": 1, "SO0": 1,
            "CA1": 2, "SEO1": 2,
            "CASE2": 4,
        }

    def test_fig2_reduction_is_29_to_10(self):
        n_base = sum(self.counts(MODIFIED_BASELINE).values())
        n_ours = sum(self.counts(FUSED_FULL).values())
        assert (n_base, n_ours) == (29, 10)

    @pytest.mark.parametrize("config, host, device", [
        (MODIFIED_BASELINE, 22, 12), (FUSED_FULL, 9, 8)], ids=["4b", "4f"])
    def test_device_graph_is_the_two_buffer_one(self, config, host, device):
        # the declarations name the host's one buffer per level, which
        # adds hazards; the device keeps f* apart (Fig. 2): 12 / 8 waves,
        # as the cost model prices them
        from repro.gpu.costmodel import device_records
        records = self.last_step(config)
        dev = device_records(records)
        assert {str(x) for r in dev for x in r.reads + r.writes} >= {
            "fstar@0", "fstar@1"}
        for recs, waves in ((records, host), (dev, device)):
            g = build_dependency_graph(list(recs))
            assert len(schedule_waves(g)) == waves

    def test_the_coarse_stream_waits_for_the_finer_explodes(self):
        # on the host S1 overwrites the f@1 every E2 reads; on the device
        # E2 reads f*@1, which S1 does not write
        from repro.gpu.costmodel import device_records
        records = self.last_step(MODIFIED_BASELINE)
        explodes = [i for i, r in enumerate(records) if (r.name, r.level) == ("E", 2)]
        stream = next(i for i, r in enumerate(records) if (r.name, r.level) == ("S", 1))
        host = build_dependency_graph(list(records))
        dev = build_dependency_graph(device_records(records))
        assert all(host.has_edge(e, stream) for e in explodes if e < stream)
        assert not any(dev.has_edge(e, stream) for e in explodes)


class TestStepGraphs:
    def make(self, config):
        bc = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
        spec = RefinementSpec((24, 24), wall_refinement((24, 24), 3, [7.0, 2.0]),
                              bc=bc)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.05, fusion=config)
        sim.run(2)
        return build_dependency_graph(sim.runtime.last_step())

    def test_fig2_kernel_ratio(self):
        sb = graph_stats(self.make(MODIFIED_BASELINE))
        so = graph_stats(self.make(FUSED_FULL))
        assert 2.5 <= sb["kernels"] / so["kernels"] <= 3.5

    def test_fused_graph_is_shallower(self):
        sb = graph_stats(self.make(MODIFIED_BASELINE))
        so = graph_stats(self.make(FUSED_FULL))
        assert so["depth"] < sb["depth"]

    def test_baseline_has_concurrency_to_exploit(self):
        sb = graph_stats(self.make(MODIFIED_BASELINE))
        assert sb["max_width"] >= 2
