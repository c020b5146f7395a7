"""Static kernel-stream analyzer: access maps and what bodies do, legality
proofs, lint, certificates (repro.analysis.static / lint / certificate)."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.analysis.capture import READ, WRITE, Access, AccessTracer
from repro.analysis.certificate import (CERTIFICATE_VERSION, build_certificate,
                                        load_certificate, stream_digest,
                                        validate_certificate,
                                        write_certificate)
from repro.analysis.cli import small_workloads, static_check
from repro.analysis.lint import LintFinding, field_nbytes, lint_stream
from repro.analysis.static import (check_contraction, decompose, plan_stream,
                                   prove_fusion_legality, seeded_illegal_proof)
from repro.backend import PlanAdmissionError
from repro.backend.compiler import admit_stream, bind_stream, compile_plan
from repro.bench.workloads import lid_cavity, sphere_tunnel
from repro.core.engine import Engine
from repro.core.fusion import (ABLATION_CONFIGS, FUSE_SO, FUSED_FULL,
                               MODIFIED_BASELINE, ORIGINAL_BASELINE)
from repro.core.lattice import D2Q9, D3Q19
from repro.core.simulation import Simulation
from repro.core.stepper import NonUniformStepper
from repro.gpu.device import get_device
from repro.gpu.memory import memory_ledger
from repro.grid.multigrid import DomainBC, FaceBC, build_multigrid
from repro.neon.graph import build_dependency_graph, graph_stats
from repro.neon.runtime import FieldRef, KernelRecord

from .test_multigrid import INTERIOR, folded_pull, nested_box_spec, ref_compile

WL2D = dict(base=(20, 20), num_levels=2, lattice="D2Q9")
WL3D = dict(base=(12, 12, 12), num_levels=3, lattice="D3Q19")
ALL = (ORIGINAL_BASELINE,) + ABLATION_CONFIGS


def rec(name, level=0, reads=(), writes=(), n_cells=4, bytes_read=0,
        bytes_written=0, atomic_bytes=0):
    return KernelRecord(name=name, level=level, n_cells=n_cells,
                        bytes_read=bytes_read, bytes_written=bytes_written,
                        reads=tuple(reads), writes=tuple(writes),
                        atomic_bytes=atomic_bytes)


def captured_run(config, wl_kwargs, steps=2):
    """The records of the kernels a ``steps``-step run executed."""
    wl = lid_cavity(**wl_kwargs)
    with Simulation.from_config(wl.spec, wl.sim_config(fusion=config)) as sim:
        sim.run(steps)
    return list(sim.runtime.records)


# ---------------------------------------------------------------- plan streams

class TestPlanStream:
    @pytest.mark.parametrize("config", ALL, ids=lambda c: c.name)
    def test_plan_equals_executing_stream_2d(self, config):
        records, _, _ = plan_stream(config, WL2D, steps=2)
        executed = captured_run(config, WL2D, steps=2)
        assert records == executed

    def test_plan_equals_executing_stream_3d(self):
        records, _, _ = plan_stream(FUSED_FULL, WL3D, steps=2)
        executed = captured_run(FUSED_FULL, WL3D, steps=2)
        assert records == executed

    def test_plan_only_runs_no_bodies(self):
        # capture_plan builds a step's bodies: none runs, no record is kept
        wl = lid_cavity(**WL2D)
        sim = Simulation.from_config(
            wl.spec, wl.sim_config(fusion=MODIFIED_BASELINE))
        sim.engine.initialize(u=np.array([0.02, 0.01]))
        before = [lv.f.copy() for lv in sim.engine.levels]
        records, bodies, _ = sim.runtime.capture_plan(
            lambda: sim.stepper._advance(0), AccessTracer())
        assert len(records) == len(bodies) > 0
        assert sim.runtime.records == [] and sim.runtime.markers == []
        for lv, f0 in zip(sim.engine.levels, before):
            assert (lv.f == f0).all()


# ---------------------------------------------- reports against their bodies

class TestStaticAccessSets:
    # -- reports against what the bodies do ------------------------------------
    # Each report must cover its body: every entry the body changes lies in
    # a reported write, and the body computes nothing from an entry outside
    # its reported reads.  Run on ALL_CONFIGS x the two small_workloads.
    @pytest.mark.parametrize("config", ALL, ids=lambda c: c.name)
    def test_static_superset_of_dynamic_2d(self, config):
        assert report_violations(config, WL2D) == []

    def test_static_superset_of_dynamic_3d(self):
        assert report_violations(FUSED_FULL, WL3D) == []

    @pytest.mark.parametrize("config", [c for c in ALL if c is not FUSED_FULL],
                             ids=lambda c: c.name)
    def test_static_superset_of_dynamic_3d_other_configs(self, config):
        assert report_violations(config, WL3D) == []

    def test_superset_violation_detected(self, monkeypatch):
        # every interval the grid compile stores for a report one row short
        # at the top: Accumulate reads, Explosion / Coalescence writes go
        # unreported
        def short(rows):
            return (int(rows.min()), int(rows.max())) if rows.size else (0, 0)
        monkeypatch.setattr("repro.grid.multigrid.row_span", short)
        problems = report_violations(MODIFIED_BASELINE, WL2D)
        assert any("changes" in p for p in problems)
        assert any("reads" in p for p in problems)


def buffers(engine):
    """``FieldRef -> (array, row number of column 0, place)``, every
    allocated buffer; ``place`` maps the array onto the ``(Q, columns)``
    entries the reports name: ``None`` where it is that array, else the
    shape and ``(q, column)`` of each entry (the ghost accumulator's slot
    ``e`` is its bin ``divmod(coal_bin[e], n_ghost)``)."""
    out = {}
    for lv, b in enumerate(engine.levels):
        out[FieldRef("f", lv)] = (b.f, 0, None)
        if b.ghost_acc.size:
            out[FieldRef("gacc", lv)] = (b.ghost_acc, 0, (
                (engine.lat.q, b.n_ghost),
                np.divmod(engine.mgrid.levels[lv].coal_bin, b.n_ghost)))
        if b.fghost is not None:
            out[FieldRef("fghost", lv)] = (b.fghost, b.n_owned, None)
    return out


def named(arr, offset, place, accesses):
    """The entries of ``arr`` that ``accesses`` name: the interval's
    columns, and of an exact access only its entries inside that
    interval."""
    shape = arr.shape if place is None else place[0]
    mask = np.zeros(shape, dtype=bool)
    for a in accesses:
        cols = np.zeros(shape, dtype=bool)
        cols[:, max(a.lo - offset, 0):max(a.hi - offset, 0)] = True
        if a.entries is not None:
            exact = np.zeros(shape, dtype=bool)
            exact.reshape(-1)[a.entries.ids] = True
            cols &= exact
        mask |= cols
    return mask if place is None else mask[place[1]]


def report_violations(config, wl_kwargs, seed=0):
    """Run every body of one step of ``config`` against its report.

    Writes: on random buffers, every entry the body changes must be named
    by a reported write or atomic access of that field.  Reads: every
    field the body does not write before it reads it is NaN outside its
    reported reads; no entry the body writes may come out NaN.
    """
    wl = lid_cavity(**wl_kwargs)
    rng = np.random.default_rng(seed)
    problems = []
    with Simulation.from_config(wl.spec, wl.sim_config(fusion=config)) as sim:
        records, bodies, accesses = bind_stream(sim.stepper)
        bufs = buffers(sim.engine)

        def randomise():
            for arr, _, _ in bufs.values():
                arr[...] = rng.uniform(0.5, 1.5, arr.shape)

        for i, (rec, body) in enumerate(zip(records, bodies)):
            per_field = {}
            for a in accesses[i]:
                if a.field is not None:
                    per_field.setdefault(a.field, []).append(a)
            label = f"#{i} {rec.name}{rec.level}"

            randomise()
            before = {ref: arr.copy() for ref, (arr, _, _) in bufs.items()}
            body()
            written = {}
            for ref, (arr, off, place) in bufs.items():
                written[ref] = arr != before[ref]
                stray = written[ref] & ~named(arr, off, place, [
                    a for a in per_field.get(ref, ()) if a.kind != READ])
                if stray.any():
                    at = np.argwhere(stray)[0]
                    q, col = at if place is None else (
                        int(place[1][0][at[0]]), int(place[1][1][at[0]]))
                    problems.append(f"{label} changes {ref} at q={q}, row "
                                    f"{col + off} outside its reported writes")

            randomise()
            for ref, (arr, off, place) in bufs.items():
                accs = per_field.get(ref, [])
                if accs and accs[0].kind != READ:
                    continue            # the body writes it before reading it
                arr[~named(arr, off, place,
                           [a for a in accs if a.kind == READ])] = np.nan
            body()
            for ref, (arr, _, _) in bufs.items():
                if np.isnan(arr[written[ref]]).any():
                    problems.append(f"{label} reads outside its report: a "
                                    f"NaN reached {ref}")
    return problems


# ------------------------------------------------------------ access memo

def concatenated_stream_reads(engine, lv, rows):
    """The stream read as it once was: one copy of every source row
    (``rows``: the row-space pull with the slip sources in place; a
    bounce-back or moving link reads its own cell, as the self-reference
    there already says), split by boolean indexing."""
    n, flat = engine.levels[lv].n_owned, rows.ravel()
    per_val = engine.lat.q * engine.itemsize * n / flat.size
    out = []
    for name, part in (("f", flat[flat < n]), ("fghost", flat[flat >= n])):
        if part.size:
            out.append(Access(FieldRef(name, lv), READ, int(part.min()),
                              int(part.max()) + 1, round(per_val * part.size)))
    return tuple(out)


def reported(report, tracer=None):
    """What one bound report states, recorded by ``tracer`` (or a fresh one)."""
    tracer = tracer if tracer is not None else AccessTracer()
    tracer.begin_launch()
    report(tracer)
    return tracer.end_launch()


class TestAccessMemo:
    @pytest.mark.parametrize("d", (2, 3), ids=("2d", "3d"))
    def test_stream_reads_equal_the_concatenate_formulation(self, d):
        # three levels and a solid; every level touches the slip wall,
        # the coarsest also the moving one
        base, lat = ((15, 13), D2Q9) if d == 2 else ((11, 11, 13), D3Q19)
        bc = DomainBC({"x-": FaceBC("slip"), "y+": FaceBC("outflow"),
                       "y-": FaceBC("moving", velocity=(0.04,) + (0.0,) * (d - 1))})
        spec = nested_box_spec(base, 3, bc, solid=True)
        engine = Engine(build_multigrid(spec, lat), "bgk", omega0=1.3)
        ref = ref_compile(spec, lat)        # row-space pulls and kind lists
        grid = engine.mgrid.levels
        assert all(a["sl_src"].size and a["bb_cell"].size for a in ref.values())
        assert grid[0].mov_dst.size

        def source_rows(lv):
            a, rows = ref[lv], ref[lv]["pull_rows"].copy()
            rows[a["sl_q"], a["sl_cell"]] = grid[lv].row_of_slot()[a["sl_src"]]
            return rows

        def fields_read():
            names = []
            for lv in range(len(engine.levels)):
                got = tuple(a for a in reported(engine._stream(lv)[1])
                            if a.kind == READ)
                assert got == concatenated_stream_reads(engine, lv, source_rows(lv))
                names.append([a.field.name for a in got])
            return names

        assert fields_read() == [["f"]] * 3
        # ... and a table that pulls from the fine-ghost rows, as a 4a
        # layout streaming across the interface would (slip sources too),
        # folded at the stride of that row space: f has no such rows,
        # so capturing the stream refuses the table, naming the level
        rng = np.random.default_rng(d)
        for lv, buf in enumerate(engine.levels[1:], 1):
            a = ref[lv]
            assert buf.n_used > buf.n_owned
            hit = ((rng.random(a["pull_rows"].shape) < 0.01)
                   & (a["kind"] == INTERIOR))
            a["pull_rows"][hit] = rng.integers(buf.n_owned + 2, buf.n_used - 1,
                                               int(hit.sum()))
            a["sl_src"][::3] = a["fine_ghost_slots"][-1]    # row n_used - 1
            buf.pull_flat = folded_pull(a, lat, buf.n_used).astype(np.int32)
            assert buf.pull_flat.max() >= lat.q * buf.n_owned
        with pytest.raises(PlanAdmissionError,
                           match=r"level [12]: pull table entries leave"):
            compile_plan(NonUniformStepper(engine, MODIFIED_BASELINE))

    @pytest.mark.parametrize("wl", (WL2D, WL3D), ids=("2d", "3d"))
    @pytest.mark.parametrize("config", ALL, ids=lambda c: c.name)
    def test_memo_is_invisible(self, config, wl):
        # the grid holds each level's index maps and spans, a
        # tracer builds one EntrySet per index array: a warm capture
        # states what a cold one did, sharing the cold one's entry sets,
        # and a fresh tracer's capture states it too
        w = lid_cavity(**wl)
        sim = Simulation.from_config(w.spec, w.sim_config(fusion=config))
        tracer = AccessTracer()
        cold = bind_stream(sim.stepper, tracer)[2]
        assert cold == bind_stream(sim.stepper)[2]
        warm = bind_stream(sim.stepper, tracer)[2]
        assert warm == cold
        for k, accesses in warm.items():
            for a, b in zip(accesses, cold[k]):
                assert a.entries is b.entries
        # what a caller does to a returned list stays with the caller
        for accesses in cold.values():
            accesses.clear()
        assert bind_stream(sim.stepper, tracer)[2] == warm

    def test_one_entry_set_per_patch_in_an_admission(self, monkeypatch):
        # the fused stream's E / O parts are subsumed, the baseline stream
        # prove_plan_legality captures has them standalone: both maps of one
        # admission hold one entry-set object per patch
        seen = []

        class Spy(AccessTracer):
            def end_launch(self):
                out = super().end_launch()
                seen.extend(a for a in out if a.entries is not None)
                return out

        monkeypatch.setattr("repro.backend.compiler.AccessTracer", Spy)
        wl = lid_cavity(**WL3D)
        sim = Simulation.from_config(wl.spec, wl.sim_config(fusion=FUSED_FULL))
        admit_stream(sim.stepper)
        patches = {}
        for a in seen:
            patches.setdefault((a.field, a.kind, a.entries), []).append(a)
        # Explosion writes f on levels 1-2, Coalescence reads gacc and
        # writes f on levels 0-1
        assert sorted((ref.name, ref.level, kind) for ref, kind, _ in patches) == [
            ("f", 0, WRITE), ("f", 1, WRITE), ("f", 1, WRITE), ("f", 2, WRITE),
            ("gacc", 0, READ), ("gacc", 1, READ)]
        for uses in patches.values():
            assert len({id(a.entries) for a in uses}) == 1
            if uses[0].kind == WRITE:
                # subsumed in the fused map, standalone in the baseline one
                assert {a.nbytes == 0 for a in uses} == {True, False}

    #: Certificate stream digests, re-pinned when the declarations named
    #: the storage each body touches (EXPERIMENTS.md, "One population
    #: buffer per level": C writes f, A / S / E read f, no fstar; byte
    #: counts unchanged), and again when Accumulate gathered only the
    #: populations that stream out of the finer level (the A / CA / CASE
    #: records' gathered bytes and read spans; every other record equal).
    #: The compile step and the E / O cell counts feed every other number
    #: of a record.
    PINNED_DIGESTS = {
        ("cavity", "ours-4f"):
            "8de0c82e91d78fe8212278e69ca6b9e169bd5dc903e6d387b46f97d0fe8c3fee",
        ("cavity", "baseline-4b"):
            "0fa1fa969b46d8e954966f97b12011d63039253101d6503a3308def1d5a874b1",
        ("sphere", "baseline-4b"):
            "73d0240e4b03a17b27d97e8d1d8adf5dc6506da6426bb670c1922664cacec0ca",
    }

    @pytest.mark.parametrize("which,fusion", PINNED_DIGESTS,
                             ids=[f"{w}-{f}" for w, f in PINNED_DIGESTS])
    def test_admitted_stream_digest_pinned(self, which, fusion):
        wl = (lid_cavity(base=(16, 16, 16), num_levels=3) if which == "cavity"
              else sphere_tunnel(scale=0.5))
        sim = Simulation.from_config(wl.spec, wl.sim_config(fusion=fusion))
        plan, lint = admit_stream(sim.stepper)
        assert plan.certificate["stream_digest"] == self.PINNED_DIGESTS[which, fusion]
        assert not lint.errors


# ------------------------------------------------------------ legality proofs

class TestFusionLegality:
    @pytest.mark.parametrize("config", ALL, ids=lambda c: c.name)
    def test_all_configs_legal_2d(self, config):
        proof = prove_fusion_legality(config, WL2D, steps=2)
        assert proof.legal, proof.counterexamples
        if config.original_layout or config == MODIFIED_BASELINE:
            assert proof.verdict == "baseline"
            assert proof.pairs_checked == 0
        else:
            assert proof.verdict == "legal"
            assert proof.pairs_checked > 0

    def test_case_fusion_legal_3d(self):
        proof = prove_fusion_legality(FUSED_FULL, WL3D, steps=2)
        assert proof.verdict == "legal"
        assert proof.pairs_checked > 0

    @pytest.mark.parametrize("wl", (WL2D, WL3D), ids=("2d", "3d"))
    def test_seeded_illegal_fusion_rejected(self, wl):
        proof = seeded_illegal_proof(wl, steps=2)
        assert proof.verdict == "illegal"
        cex = proof.counterexamples[0]
        # the counterexample names the conflicting access pair
        assert cex.kernel_i.startswith("E") and cex.kernel_j.startswith("C")
        assert cex.hazard == "raw"
        assert cex.field.startswith("f@")
        assert cex.interval_i[1] > cex.interval_i[0]

    def test_tampered_stream_via_dropped_write(self):
        # a swapped E declaration no longer loses an order: every kernel
        # that consumes E's write of f@1 also writes f@1, so the swapped
        # read keeps a WAR edge.  Forgetting the write loses them all.
        def drop_writes(records):
            i = next(i for i, r in enumerate(records) if r.name == "E")
            return [*records[:i], replace(records[i], writes=()), *records[i + 1:]]
        proof = prove_fusion_legality(FUSE_SO, WL2D, steps=2, tamper=drop_writes)
        assert proof.verdict == "illegal"
        assert {(c.kernel_i, c.kernel_j, c.field) for c in proof.counterexamples
                } >= {("C1", "E1", "f@1"), ("S1", "E1", "f@1")}

    @pytest.mark.parametrize("wl", (WL2D, WL3D), ids=("2d", "3d"))
    def test_late_explode_rejected(self, wl):
        # the coarse Stream overwrites the f@0 entries the finer level's
        # Explode reads: admitted while both read a second buffer
        # (fstar@0), refused now that the reports name f@0
        proof = seeded_illegal_proof(wl, steps=2, control="late Explode")
        assert proof.verdict == "illegal"
        cex = proof.counterexamples[0]
        assert (cex.reason, cex.kernel_i, cex.kernel_j, cex.hazard, cex.field) == (
            "unordered", "E1", "S0", "war", "f@0")
        assert cex.fused_i > cex.fused_j

    def test_missing_primitive_is_structural_counterexample(self):
        records, base_map, sim = plan_stream(MODIFIED_BASELINE, WL2D, steps=1)
        _, _, cex = check_contraction(records, base_map, records[:-1],
                                      partial(decompose, sim.engine))
        assert cex and cex[0].reason == "structure"
        assert "no image" in cex[0].detail

    def test_reordered_conflicting_pair_rejected(self):
        records, base_map, sim = plan_stream(MODIFIED_BASELINE, WL2D, steps=1)
        # swap the first C with the S of the same substep: C writes the f
        # that S reads, so the contraction must reject the reversal
        idx_c = next(i for i, r in enumerate(records) if r.name == "C")
        idx_s = next(i for i, r in enumerate(records)
                     if r.name.startswith("S") and r.level == records[idx_c].level)
        shuffled = list(records)
        shuffled[idx_c], shuffled[idx_s] = shuffled[idx_s], shuffled[idx_c]
        _, _, cex = check_contraction(records, base_map, shuffled,
                                      partial(decompose, sim.engine))
        assert cex


# -------------------------------------------------------------------- linting

class TestLint:
    @pytest.mark.parametrize("config", ALL, ids=lambda c: c.name)
    def test_real_streams_have_no_lint_errors(self, config):
        records, accesses, sim = plan_stream(config, WL2D, steps=2)
        assert lint_stream(records, accesses, sim.engine).errors == ()

    @pytest.mark.parametrize("config", ALL, ids=lambda c: c.name)
    def test_only_fine_ghosts_are_droppable(self, config):
        records, accesses, sim = plan_stream(config, WL2D, steps=2)
        report = lint_stream(records, accesses, sim.engine)
        drop = {f.field for f in report.opportunities
                if f.check == "droppable-buffer"}
        assert drop == (set() if config.original_layout else {"fghost@1"})

    def test_synthetic_dead_store_flagged(self):
        records, accesses, sim = plan_stream(ORIGINAL_BASELINE, WL2D, steps=1)
        # duplicate the first Explosion copy: its fghost write is
        # immediately overwritten by the copy with nothing reading in
        # between (every kernel that writes f reads it first)
        idx = next(i for i, r in enumerate(records) if r.name == "E")
        bad = records[:idx + 1] + [records[idx]] + records[idx + 1:]
        bad_map = {k: accesses[k if k <= idx else k - 1]
                   for k in range(len(bad))}
        report = lint_stream(bad, bad_map, sim.engine)
        dead = [f for f in report.errors if f.check == "dead-store"]
        assert dead and dead[0].index == idx
        assert dead[0].bytes_saved > 0

    def test_synthetic_redundant_load_flagged(self):
        records, accesses, sim = plan_stream(MODIFIED_BASELINE, WL2D, steps=1)
        report = lint_stream(records, accesses, sim.engine)
        red = [f for f in report.opportunities if f.check == "redundant-load"]
        # consecutive substeps re-read f rows without intervening
        # writes somewhere in any real stream
        assert red
        assert all(f.bytes_saved > 0 for f in red)


# -------------------------------------------------------------- touched bytes

class TestTouchedBytes:
    # (six other configs, baseline-4a) on the static gate's two workloads:
    # every level's f and ghost_acc, and 4a's fghost, in host bytes of the
    # float32 step (43_920 / 55_440 and 4_327_744 / 6_740_288 while
    # ghost_acc held every (q, ghost) bin, not a slot per bin Coalescence
    # reads; 87_840 / 110_880 and 8_655_488 / 13_480_576 while the
    # populations were float64; 218_016 / 121_248 and 26_535_552 /
    # 14_706_304 for (others, ours-4f) while the reports named a second
    # buffer fstar, priced at n_used rows)
    PINNED = {"2d": (WL2D, 42_608, 54_128),
              "3d": (WL3D, 4_163_712, 6_576_256)}

    @pytest.mark.parametrize("dim", PINNED)
    def test_pinned_on_the_static_gate_workloads(self, dim):
        wl, others, original = self.PINNED[dim]
        for config in ALL:
            records, accesses, sim = plan_stream(config, wl, steps=2)
            assert lint_stream(records, accesses, sim.engine).touched_bytes == (
                original if config.original_layout else others), config.name

    @pytest.mark.parametrize("config", ALL, ids=lambda c: c.name)
    def test_touched_bytes_are_the_host_buffers(self, config):
        records, accesses, sim = plan_stream(config, WL2D, steps=1)
        touched = {a.field for accs in accesses.values()
                   for a in accs if a.field is not None and a.hi > a.lo}
        held = sum(n for (_, family), n in memory_ledger(sim.engine).items()
                   if family in ("populations", "fine_ghosts", "ghost_accumulators"))
        assert lint_stream(records, accesses, sim.engine).touched_bytes == sum(
            field_nbytes(sim.engine, ref) for ref in touched) == held

    def test_run_metrics_gauge_reads_it(self):
        from repro.obs.metrics import run_metrics
        wl = lid_cavity(**WL2D)
        sim = Simulation.from_config(wl.spec, wl.sim_config(fusion=FUSED_FULL))
        sim.run(1)
        assert run_metrics(sim)["arena_peak_bytes"] == 42_608


# --------------------------------------------------------------- certificates

class TestCertificates:
    def _cert(self, config=MODIFIED_BASELINE, wl=WL2D, steps=1):
        records, accesses, sim = plan_stream(config, wl, steps=steps)
        proof = prove_fusion_legality(config, wl, steps=steps)
        lint = lint_stream(records, accesses, sim.engine)
        cert = build_certificate(config.name, "wl", records, accesses, proof,
                                 lint, steps)
        return records, cert

    def test_roundtrip_and_validate(self, tmp_path):
        records, cert = self._cert()
        path = write_certificate(cert, tmp_path / "certs" / "c.json")
        loaded = load_certificate(path)
        assert loaded == cert
        assert "arena" not in loaded
        assert validate_certificate(loaded, records) == []
        assert loaded["version"] == CERTIFICATE_VERSION
        assert loaded["legality"]["verdict"] == "baseline"     # 4b is not proven
        assert len(loaded["kernels"]) == len(records)
        assert all(k["accesses"] for k in loaded["kernels"])

    def test_digest_binds_stream(self):
        records, cert = self._cert()
        tampered = list(records)
        tampered[0] = replace(tampered[0], n_cells=tampered[0].n_cells + 1)
        problems = validate_certificate(cert, tampered)
        assert problems and "digest" in problems[0]
        assert stream_digest(records) != stream_digest(tampered)

    def test_unknown_version_rejected(self):
        _, cert = self._cert()
        cert = dict(cert, version=99)
        problems = validate_certificate(cert)
        assert problems == [f"unknown certificate version 99 "
                            f"(expected {CERTIFICATE_VERSION})"]

    def test_bad_wave_schedule_rejected(self):
        records, cert = self._cert()
        bad = dict(cert, wave_schedule=[[0]])
        assert any("permutation" in p for p in validate_certificate(bad))
        reversed_waves = [list(w) for w in reversed(cert["wave_schedule"])]
        bad = dict(cert, wave_schedule=reversed_waves)
        assert any("breaks" in p for p in validate_certificate(bad))
        # each kernel of an ASAP wave conflicts with one of the wave before
        # it: sharing one wave with a conflicting predecessor is a race
        first, second, *rest = cert["wave_schedule"]
        bad = dict(cert, wave_schedule=[sorted(first + second), *rest])
        assert any("breaks" in p for p in validate_certificate(bad))

    @pytest.mark.parametrize("workload", sorted(small_workloads()))
    @pytest.mark.parametrize("config", ALL, ids=lambda c: c.name)
    def test_certificate_schedule_is_the_replayed_one(self, config, workload):
        """One schedule per step: an admitted plan's certificate records the
        declared graph and the waves its executors replay."""
        wl = lid_cavity(**small_workloads()[workload])
        with Simulation.from_config(wl.spec,
                                    wl.sim_config(fusion=config)) as sim:
            plan = compile_plan(sim.stepper, workload=workload)
        cert = plan.certificate
        assert cert["wave_schedule"] == [list(w) for w in plan.waves]
        assert cert["graph"] == graph_stats(
            build_dependency_graph(list(plan.records)))

    def test_one_wave_partition_per_admission(self, monkeypatch):
        """The certificate's graph stats are read off the waves it records:
        an admission partitions its graph once."""
        import repro.analysis.certificate as certificate
        import repro.neon.graph as graph
        calls, real = [], graph.schedule_waves

        def counted(g):
            calls.append(g)
            return real(g)

        wl = lid_cavity(**small_workloads()["cavity2d-2lvl"])
        with Simulation.from_config(wl.spec, wl.sim_config(fusion=FUSED_FULL)) as sim:
            sim.mgrid.verdicts.clear()        # an ambient backend may have admitted
            monkeypatch.setattr(graph, "schedule_waves", counted)
            monkeypatch.setattr(certificate, "schedule_waves", counted)
            cert = compile_plan(sim.stepper, workload="cavity2d-2lvl").certificate
        assert len(calls) == 1
        assert cert["graph"]["depth"] == len(cert["wave_schedule"])

    def test_illegal_verdict_needs_counterexample(self):
        _, cert = self._cert()
        bad = dict(cert, legality=dict(cert["legality"], verdict="illegal",
                                       counterexamples=[]))
        assert any("without a counterexample" in p
                   for p in validate_certificate(bad))


# ------------------------------------------------------------------- CLI gate

class TestStaticCLI:
    def test_static_check_clean_on_case(self, tmp_path):
        rep = static_check(FUSED_FULL, "cavity2d-2lvl", steps=2,
                           cert_dir=str(tmp_path))
        assert "findings" not in rep and "superset" not in rep
        assert rep["verdict"] == "legal"
        assert rep["lint_errors"] == []
        assert rep["certificate_problems"] == []
        assert rep["touched_bytes"] == 42_608
        assert load_certificate(rep["certificate"])["config"] == "ours-4f"

    def test_cli_static_single_config(self, capsys):
        from repro.analysis.cli import main
        code = main(["--config", "baseline-4b",
                     "--workload", "cavity2d-2lvl"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict=baseline" in out
        assert "seeded illegal fusion rejected" in out
