"""Access reports, the records read off them, conflict pairs (repro.analysis)."""

import json

import pytest

from repro.analysis.capture import (ATOMIC, META, READ, WRITE, Access,
                                   AccessTracer, EntrySet)
from repro.analysis.cli import main, small_workloads, static_check
from repro.analysis.static import plan_stream
from repro.core.fusion import FUSED_FULL, MODIFIED_BASELINE
from repro.neon.graph import iter_conflict_pairs
from repro.neon.runtime import FieldRef, KernelRecord

F0, FS0 = FieldRef("f", 0), FieldRef("fstar", 0)
A0, B0 = FieldRef("a", 0), FieldRef("b", 0)


def rec(name, level=0, reads=(), writes=(), bytes_read=0, bytes_written=0,
        atomic_bytes=0):
    return KernelRecord(name=name, level=level, n_cells=4,
                        bytes_read=bytes_read, bytes_written=bytes_written,
                        reads=tuple(reads), writes=tuple(writes),
                        atomic_bytes=atomic_bytes)


def bound_stream(config, steps=2):
    """Two coarse steps of the 2-D cavity: ``(records, accesses, sim)``,
    the access map being what the bodies' reports state (no body runs)."""
    return plan_stream(config, dict(base=(20, 20), num_levels=2,
                                    lattice="D2Q9"), steps)


class TestAccessTracer:
    def test_launch_bracketing(self):
        t = AccessTracer()
        assert not t.active
        t.begin_launch()
        t.read(F0, 0, 4, 32)
        t.write(FS0, 0, 4, 32)
        accs = t.end_launch()
        assert [a.kind for a in accs] == [READ, WRITE]
        assert accs[0].lo == 0 and accs[0].hi == 4 and accs[0].nbytes == 32
        assert not t.active

    def test_recording_outside_launch_is_dropped(self):
        t = AccessTracer()
        t.read(F0, 0, 4, 32)  # no launch in flight
        t.begin_launch()
        assert t.end_launch() == []

    def test_nested_launch_rejected(self):
        t = AccessTracer()
        t.begin_launch()
        with pytest.raises(RuntimeError):
            t.begin_launch()

    def test_meta_has_no_field(self):
        t = AccessTracer()
        t.begin_launch()
        t.meta(128)
        (a,) = t.end_launch()
        assert a.kind == META and a.field is None and a.nbytes == 128


class TestRuntimeCapture:
    """The stream ``Runtime.capture_plan`` records and its access map."""

    def test_capture_aligns_with_records(self):
        records, accesses, _ = bound_stream(MODIFIED_BASELINE)
        assert set(accesses) == set(range(len(records)))
        assert all(accesses[i] for i in accesses), \
            "every engine kernel body must report at least one access"

    def test_case_keeps_intermediate_in_registers(self):
        # the host body collides and streams in f; the post-collision
        # write and its re-reads are named, and move no DRAM bytes
        records, accesses, sim = bound_stream(FUSED_FULL)
        finest = sim.num_levels - 1
        n = sim.engine.levels[finest].n_owned
        nb = sim.lattice.q * sim.engine.itemsize * n
        case_idx = [i for i, r in enumerate(records) if r.name == "CASE"]
        assert case_idx, "FUSED_FULL must launch CASE kernels"
        for i in case_idx:
            own = [(a.kind, a.nbytes) for a in accesses[i]
                   if a.field == FieldRef("f", finest)]
            # collide: read, write in registers; accumulate and stream
            # read from registers; stream writes; explode's entries ride
            # on the stream's write
            assert own == [(READ, nb), (WRITE, 0), (READ, 0), (READ, 0),
                           (WRITE, nb), (WRITE, 0)]
            assert {a.field.name for a in accesses[i]
                    if a.field is not None} == {"f", "gacc"}

    def test_accumulate_scatter_is_atomic(self):
        _, accesses, _ = bound_stream(FUSED_FULL)
        atomics = [a for accs in accesses.values() for a in accs
                   if a.kind == ATOMIC]
        assert atomics and all(a.field.name == "gacc" for a in atomics)


class TestRecordFromAccesses:
    """The launch record is read off what the body's report states."""

    def test_a_reread_of_its_own_output_adds_no_read_field(self):
        # CA-style kernel: re-reads its own freshly written output
        accs = [Access(F0, READ, 0, 4, 32), Access(FS0, WRITE, 0, 4, 32),
                Access(FS0, READ, 0, 4, 0)]
        r = KernelRecord.from_accesses("CA", 0, 4, accs)
        assert r == rec("CA", reads=(F0,), writes=(FS0,), bytes_read=32,
                        bytes_written=32)

    def test_meta_bytes_count_as_read_bytes(self):
        accs = [Access(F0, READ, 0, 4, 32), Access(None, META, 0, 0, 16),
                Access(F0, WRITE, 0, 4, 32)]
        r = KernelRecord.from_accesses("S", 0, 4, accs)
        assert (r.reads, r.writes) == ((F0,), (F0,))
        assert (r.bytes_read, r.bytes_written) == (48, 32)

    def test_atomic_bytes_are_written_bytes_too(self):
        accs = [Access(FS0, READ, 0, 4, 32), Access(A0, READ, 0, 4, 8),
                Access(A0, ATOMIC, 0, 4, 64)]
        r = KernelRecord.from_accesses("A", 1, 16, accs)
        assert r == KernelRecord(name="A", level=1, n_cells=16, bytes_read=40,
                                 bytes_written=64, reads=(FS0, A0),
                                 writes=(A0,), atomic_bytes=64)

    def test_fields_keep_first_access_order(self):
        accs = [Access(B0, READ, 0, 4, 8), Access(F0, READ, 0, 4, 8),
                Access(A0, WRITE, 0, 4, 8), Access(B0, READ, 0, 4, 8),
                Access(FS0, ATOMIC, 0, 4, 8), Access(A0, READ, 0, 4, 8),
                Access(B0, WRITE, 0, 4, 8)]
        r = KernelRecord.from_accesses("X", 0, 4, accs)
        assert r.reads == (B0, F0) and r.writes == (A0, FS0, B0)


class TestConflictPairs:
    def test_exact_entries_decide_inside_overlapping_envelopes(self):
        # Explosion's and Coalescence's f patches interleave: the legality
        # proof lets fusion reorder them only when their entries are disjoint
        records = [rec("E", writes=(F0,)), rec("O", writes=(F0,))]

        def patches(e0, e1):
            return {i: [Access(F0, WRITE, 0, 10, 8, entries=EntrySet(e))]
                    for i, e in enumerate((e0, e1))}

        disjoint = patches([4, 0, 2], [1, 3, 5])
        shared = patches([4, 0, 2], [1, 4, 5])
        assert list(iter_conflict_pairs(records, disjoint)) == []
        assert [p.dep for p in iter_conflict_pairs(records, shared)] == ["waw"]
        # one side exact, the other an interval: the envelopes decide
        records = [rec("E", writes=(F0,)), rec("R", reads=(F0,))]
        mixed = {0: disjoint[0], 1: [Access(F0, READ, 5, 6, 8)]}
        assert [p.dep for p in iter_conflict_pairs(records, mixed)] == ["raw"]


class TestCLI:
    def test_static_check_report_shape(self):
        rep = static_check(MODIFIED_BASELINE, "cavity2d-2lvl", steps=1)
        assert "findings" not in rep and rep["verdict"] == "baseline"
        assert rep["kernels"] > 0 and rep["declared_waves"] > 0
        assert rep["stable"] and not {"races", "refined_races", "refined_waves",
                                      "refined_edges"} & rep.keys()

    def test_main_single_config_ok(self, capsys):
        assert main(["--config", "ours-4f", "--workload", "cavity2d-2lvl"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "0 problem(s)" in out

    def test_main_json_output(self, capsys):
        code = main(["--config", "baseline-4b", "--workload", "cavity2d-2lvl",
                     "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total_problems"] == 0
        assert data["runs"][0]["config"] == "baseline-4b"

    def test_workloads_cover_2d_and_3d(self):
        wls = small_workloads()
        dims = {len(kw["base"]) for kw in wls.values()}
        levels = {kw["num_levels"] for kw in wls.values()}
        assert dims == {2, 3} and {2, 3} <= levels
