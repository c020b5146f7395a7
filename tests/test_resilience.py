"""Resilience subsystem: fault injection, rollback-retry, degradation.

The central claim mirrors the paper's determinism guarantees: a run that
suffers a *transient* fault (field corruption, kernel failure, simulated
device OOM) and recovers through checkpoint rollback finishes
**bit-identical** to an unfaulted run — for every fusion config of
Fig. 4, serial and in thread waves, without ever leaving the plan path
when a plan backend is selected.
"""

import os
import stat
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SimConfig
from repro.core.results import RunResult
from repro.core.fusion import ABLATION_CONFIGS, ORIGINAL_BASELINE
from repro.core.simulation import Simulation
from repro.gpu.memory import DeviceOOMError
from repro.grid.geometry import wall_refinement
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec
from repro.io.checkpoint import (CheckpointError, CheckpointStore,
                                 atomic_write, restore_checkpoint,
                                 save_checkpoint)
from repro.obs.watchdog import HealthWatchdog, SimulationDiverged
from repro.resilience import (Fault, FaultInjector, InjectedKernelError,
                              ResilientRunner, RetryExhausted, RetryPolicy)
from repro.resilience.runner import DIVERGENCE_STRIKES, OMEGA_SAFETY_SCALE

ALL_CONFIGS = (ORIGINAL_BASELINE,) + tuple(ABLATION_CONFIGS)


def cavity_spec():
    base = (16, 16)
    bc = DomainBC({"y+": FaceBC("moving", velocity=(0.06, 0.0))})
    return RefinementSpec(base, wall_refinement(base, 2, [3.0]), bc=bc)


def cavity_config(**overrides):
    return SimConfig(lattice="D2Q9", viscosity=0.05, **overrides)


def state(sim):
    return [buf.f[:, :buf.n_owned].copy() for buf in sim.engine.levels]


def identical(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def reference_state(spec, config, steps):
    with Simulation.from_config(spec, config) as sim:
        sim.run(steps)
        return state(sim)


# -- fault injection ----------------------------------------------------------

class TestFaultInjector:
    def test_nan_fault_fires_at_chosen_step_and_site(self):
        spec = cavity_spec()
        sim = Simulation.from_config(spec, cavity_config(threaded=False))
        inj = FaultInjector([Fault("nan", step=3, level=1, cell=4, q=2)])
        inj.install(sim)
        sim.run(2)
        assert sim.is_stable() and not inj.fired
        sim.run(1)
        assert not sim.is_stable()
        assert np.isnan(sim.engine.levels[1].f[2, 4])
        assert inj.fired == [{"kind": "nan", "step": 3, "level": 1,
                              "cell": 4, "q": 2}]

    def test_inf_fault(self):
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        FaultInjector([Fault("inf", step=1)]).install(sim)
        sim.run(1)
        assert np.isinf(sim.engine.levels[0].f[0, 0])

    def test_nan_fault_trips_watchdog_at_injected_step(self):
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        FaultInjector([Fault("nan", step=3)]).install(sim)
        with pytest.raises(SimulationDiverged) as exc:
            sim.run(6, callback=HealthWatchdog(sim).callback)
        assert exc.value.step == 3
        assert exc.value.reason == "non-finite"

    def test_kernel_fault_raises_and_aborts_step(self):
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        inj = FaultInjector([Fault("kernel", step=3)])
        inj.install(sim)
        with pytest.raises(InjectedKernelError):
            sim.run(5)
        assert sim.steps_done == 2  # the faulted step never completed
        assert inj.fired[0]["kind"] == "kernel"

    def test_oom_fault_raises_device_oom(self):
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        FaultInjector([Fault("oom", step=2)]).install(sim)
        with pytest.raises(DeviceOOMError) as exc:
            sim.run(5)
        assert exc.value.requested > exc.value.capacity

    def test_one_shot_fault_disarms_after_firing(self):
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        inj = FaultInjector([Fault("kernel", step=2, times=1)])
        inj.install(sim)
        with pytest.raises(InjectedKernelError):
            sim.run(3)
        assert not inj.faults[0].armed
        sim.run(3)  # disarmed: runs clean
        assert len(inj.fired) == 1

    def test_kernel_name_filter(self):
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        inj = FaultInjector([Fault("kernel", step=1, kernel="SO", level=0)])
        inj.install(sim)
        with pytest.raises(InjectedKernelError) as exc:
            sim.run(1)
        assert exc.value.kernel == "SO" and exc.value.level == 0

    def test_only_threaded_fault_is_inert_in_serial(self):
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        inj = FaultInjector([Fault("kernel", step=2, only_threaded=True)])
        inj.install(sim)
        sim.run(4)
        assert not inj.fired and sim.steps_done == 4

    def test_bad_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("segfault", step=1)
        with pytest.raises(ValueError):
            Fault("nan", step=0)


# -- checkpoint store ---------------------------------------------------------

class TestCheckpointStore:
    def test_prunes_to_keep_last_k(self, tmp_path):
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        store = CheckpointStore(tmp_path / "ck", keep=2)
        for _ in range(3):
            sim.run(2)
            store.save(sim)
        assert store.steps() == [4, 6]
        # the listing is the index: the generations and nothing else
        assert sorted(os.listdir(store.directory)) == [
            "ckpt_00000004.npz", "ckpt_00000006.npz"]

    def test_restore_specific_generation(self, tmp_path):
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        store = CheckpointStore(tmp_path / "ck")
        sim.run(2)
        store.save(sim)
        mid = state(sim)
        sim.run(2)
        store.save(sim)
        other = Simulation.from_config(cavity_spec(),
                                       cavity_config(threaded=False))
        assert store.restore(other, 2) == 2
        assert other.steps_done == 2
        assert identical(mid, state(other))

    def test_truncated_checkpoint_raises_structured_error(self, tmp_path):
        # Regression: a torn/truncated file used to surface as a raw
        # zipfile/EOF error mid-restore, after buffers were already
        # partially overwritten.
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        sim.run(2)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(sim, path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:len(blob) // 3])
        before = state(sim)
        with pytest.raises(CheckpointError) as exc:
            restore_checkpoint(sim, path)
        assert exc.value.path == path
        # all-or-nothing: the failed restore touched no buffer
        assert identical(before, state(sim))

    def test_restore_latest_falls_back_over_torn_generation(self, tmp_path):
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        store = CheckpointStore(tmp_path / "ck")
        sim.run(2)
        store.save(sim)
        good = state(sim)
        sim.run(2)
        newest = store.save(sim)
        blob = Path(newest).read_bytes()
        Path(newest).write_bytes(blob[:100])
        other = Simulation.from_config(cavity_spec(),
                                       cavity_config(threaded=False))
        assert store.restore_latest(other) == 2
        assert identical(good, state(other))

    def test_all_generations_torn_raises(self, tmp_path):
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        store = CheckpointStore(tmp_path / "ck")
        sim.run(1)
        p = store.save(sim)
        Path(p).write_bytes(b"junk")
        with pytest.raises(CheckpointError):
            store.restore_latest(sim)

    def test_empty_store_raises(self, tmp_path):
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        with pytest.raises(CheckpointError):
            CheckpointStore(tmp_path / "ck").restore_latest(sim)

    def test_rollback_then_resave_drops_abandoned_timeline(self, tmp_path):
        # PR-9 regression: a save below existing generations used to
        # leave the rolled-back-past checkpoints on disk, so
        # restore_latest resurrected abandoned state.
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        store = CheckpointStore(tmp_path / "ck", keep=3)
        sim.run(2)
        store.save(sim)                     # step 2
        for _ in range(2):
            sim.run(2)
            store.save(sim)                 # steps 4, 6
        store.restore(sim, 2)
        sim.run(1)                          # new timeline from step 2
        store.save(sim)                     # step 3 is now the head
        assert store.steps() == [2, 3]
        other = Simulation.from_config(cavity_spec(),
                                       cavity_config(threaded=False))
        assert store.restore_latest(other) == 3
        assert other.steps_done == 3

    def test_a_new_store_keeps_the_fallback_generations(self, tmp_path):
        # PR-9 regression: a store that had lost its record of earlier
        # saves used to keep only the step just saved and delete every
        # fallback generation.  Pruning reads the listing, so a store
        # opened afresh on the directory (a restarted process) counts
        # the generations it finds there.
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        store = CheckpointStore(tmp_path / "ck", keep=3)
        for _ in range(2):
            sim.run(2)
            store.save(sim)                 # steps 2, 4
        store = CheckpointStore(store.directory, keep=3)
        sim.run(2)
        store.save(sim)                     # step 6
        assert store.steps() == [2, 4, 6]
        sim.run(2)
        store.save(sim)                     # step 8: keep-3 holds
        assert store.steps() == [4, 6, 8]

    def test_restore_latest_tolerates_prune_racing_restore(self, tmp_path,
                                                           monkeypatch):
        # Another process' save() can prune a generation between our
        # directory listing and the open; the vanished file must read as
        # a damaged generation and fall back, not crash.
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        store = CheckpointStore(tmp_path / "ck")
        sim.run(2)
        store.save(sim)
        good = state(sim)
        listed = store.steps()
        monkeypatch.setattr(CheckpointStore, "steps",
                            lambda self: listed + [99])
        other = Simulation.from_config(cavity_spec(),
                                       cavity_config(threaded=False))
        assert store.restore_latest(other) == 2
        assert identical(good, state(other))

    def test_no_temp_files_left_behind(self, tmp_path):
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        store = CheckpointStore(tmp_path / "ck", keep=1)
        for _ in range(3):
            sim.run(1)
            store.save(sim)
        leftovers = [n for n in os.listdir(store.directory)
                     if n.endswith(".tmp")]
        assert leftovers == []

    def test_failed_save_keeps_the_old_generations(self, tmp_path,
                                                   monkeypatch):
        sim = Simulation.from_config(cavity_spec(),
                                     cavity_config(threaded=False))
        store = CheckpointStore(tmp_path / "ck", keep=2)
        sim.run(1)
        store.save(sim)
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(
            stat.S_ISDIR(os.fstat(fd).st_mode)), real_fsync(fd))[1])
        sim.run(1)
        store.save(sim)                     # one durable write per save
        assert synced == [False, True]      # the file, then its directory
        before = {name: Path(store.directory, name).read_bytes()
                  for name in os.listdir(store.directory)}
        assert sorted(before) == ["ckpt_00000001.npz", "ckpt_00000002.npz"]

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", boom)
        sim.run(1)
        with pytest.raises(OSError, match="disk full"):
            store.save(sim)                 # step 3 would prune step 1
        assert {name: Path(store.directory, name).read_bytes()
                for name in os.listdir(store.directory)} == before

    def test_atomic_write_syncs_the_directory_after_the_rename(self, tmp_path,
                                                               monkeypatch):
        # the rename is only durable once its directory entry is on disk
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            mode = os.fstat(fd).st_mode
            calls.append(("fsync-dir" if stat.S_ISDIR(mode) else "fsync-file",
                          os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", None))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = tmp_path / "sub" / "state.json"
        atomic_write(str(path), lambda fh: fh.write("{}"), "w")
        assert path.read_text() == "{}"
        assert [kind for kind, _ in calls] == ["fsync-file", "replace", "fsync-dir"]
        assert calls[-1][1] == os.stat(path.parent).st_ino


# -- the recovery matrix ------------------------------------------------------

@pytest.mark.parametrize("fusion", ALL_CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("kind", ["nan", "kernel", "oom"])
def test_recovery_bit_identical(fusion, kind):
    """Every fusion config recovers bit-identically from every fault kind.

    The backend is left to the ambient ``$REPRO_BACKEND``: the compiled
    CI leg runs this exact matrix on plan replay, where the faults must
    hit the plan's kernels rather than force a fallback.
    """
    spec = cavity_spec()
    config = cavity_config(fusion=fusion)
    steps = 8
    reference = reference_state(spec, config, steps)
    injector = FaultInjector([Fault(kind, step=5)])
    with ResilientRunner(spec, config, faults=injector,
                         policy=RetryPolicy(checkpoint_every=3)) as runner:
        result = runner.run(steps)
        assert result.outcome == "ok"
        assert result.retries == 1
        assert len(injector.fired) == 1
        assert identical(reference, state(runner.sim))
        stats = getattr(runner.sim.backend, "stats", {})
        assert stats.get("plan_fallback_steps", 0) == 0


def test_recovery_is_visible_in_telemetry():
    spec = cavity_spec()
    injector = FaultInjector([Fault("nan", step=4)])
    with ResilientRunner(spec, cavity_config(), faults=injector,
                         policy=RetryPolicy(checkpoint_every=3)) as runner:
        result = runner.run(6)
    assert result.retries == 1
    assert result.rollback_steps >= 1
    assert result.checkpoints == 3  # step-0 anchor, steps 3 and 6
    # the run's record holds each recovery once, in order
    assert [e["name"] for e in result.events] == ["retry", "rollback"]
    retry, rollback = result.events
    assert retry == {"name": "retry", "kind": "divergence", "step": 4,
                     "attempt": 1, "mode": result.mode}
    assert rollback["lost_steps"] == result.rollback_steps
    assert all("ts_us" not in e for e in result.events)


def test_resilient_run_is_untraced_and_takes_the_plain_plan_loop(monkeypatch):
    # Without a fault injector the runner installs no runtime hook, so
    # every step replays the same loop ``Simulation.run`` does.
    from repro.backend.plan import StepPlan

    def hooked(self, rt, pool):
        raise AssertionError("a resilient run took the hooked plan loop")

    monkeypatch.setattr(StepPlan, "_execute_hooked", hooked)
    with ResilientRunner(cavity_spec(), cavity_config(threaded=False),
                         policy=RetryPolicy(checkpoint_every=3)) as runner:
        result = runner.run(4)
        assert runner.sim.runtime.spans is None
        assert runner.sim.runtime.faults is None
    assert result.outcome == "ok" and result.events == []


def test_retry_budget_exhaustion_carries_report():
    spec = cavity_spec()
    injector = FaultInjector([Fault("kernel", step=3, times=-1)])
    runner = ResilientRunner(spec, cavity_config(threaded=False),
                             faults=injector,
                             policy=RetryPolicy(max_retries=2,
                                                checkpoint_every=3))
    with runner:
        with pytest.raises(RetryExhausted) as exc:
            runner.run(6)
    result = exc.value.result
    assert type(result) is RunResult
    assert result.outcome == "failed"
    assert result.retries == 3  # initial try + 2 retries all failed
    assert result.failures[-1]["kind"] == "kernel"
    # measured up to the step that failed last (step 3 never completes)
    assert (result.final_step, result.steps) == (2, 2)
    assert result.seconds > 0


def test_ladder_falls_back_to_serial_and_stays_bit_identical():
    spec = cavity_spec()
    config = cavity_config(threaded=True)
    steps = 8
    reference = reference_state(spec, cavity_config(threaded=False), steps)
    injector = FaultInjector([Fault("kernel", step=5, times=-1,
                                    only_threaded=True)])
    with ResilientRunner(spec, config, faults=injector,
                         policy=RetryPolicy(checkpoint_every=3)) as runner:
        result = runner.run(steps)
        assert result.outcome == "degraded"
        assert result.mode == "serial"
        assert [d["rung"] for d in result.degradations] == ["serial"]
        assert runner.config.threaded is False
        assert identical(reference, state(runner.sim))
        degrades = [e for e in result.events if e["name"] == "degrade"]
        assert degrades == [{"name": "degrade", **result.degradations[0]}]


def test_ladder_rebuilds_with_safety_omega_on_repeated_divergence():
    spec = cavity_spec()
    # The fault fires DIVERGENCE_STRIKES times, pushing the divergence
    # count to the ladder threshold, then disarms — the safety rerun
    # completes.
    injector = FaultInjector([Fault("nan", step=4, times=DIVERGENCE_STRIKES)])
    with ResilientRunner(spec, cavity_config(threaded=False),
                         faults=injector,
                         policy=RetryPolicy(checkpoint_every=3)) as runner:
        omega_before = runner.sim.engine.omega[0]
        result = runner.run(6)
        assert result.outcome == "degraded"
        assert result.omega_scale == pytest.approx(OMEGA_SAFETY_SCALE)
        assert [d["rung"] for d in result.degradations] == ["safety-omega"]
        assert runner.sim.engine.omega[0] == pytest.approx(
            OMEGA_SAFETY_SCALE * omega_before)
        assert runner.sim.steps_done == 6 and runner.sim.is_stable()


def test_runner_uses_provided_store_directory(tmp_path):
    spec = cavity_spec()
    with ResilientRunner(spec, cavity_config(threaded=False),
                         store=str(tmp_path / "ck"),
                         policy=RetryPolicy(checkpoint_every=2)) as runner:
        runner.run(4)
        assert runner.store.steps()  # persisted under the given directory
        assert sorted(os.listdir(tmp_path / "ck")) == [
            f"ckpt_{s:08d}.npz" for s in runner.store.steps()]


def test_runner_resumes_from_the_newest_generation(tmp_path):
    # A store an earlier run left at steps 0/5/10: the runner continues
    # from step 10 and a rollback lands on a generation of this run's
    # own timeline, never past the step it failed at.  The fault at
    # step 2 lies behind the resume point; the one at 12 fires once.
    spec, config = cavity_spec(), cavity_config(threaded=False)
    policy = RetryPolicy(checkpoint_every=5)
    with ResilientRunner(spec, config, policy=policy,
                         store=str(tmp_path)) as earlier:
        earlier.run(10)
    assert earlier.store.steps() == [0, 5, 10]
    injector = FaultInjector([Fault("kernel", step=2), Fault("kernel", step=12)])
    with ResilientRunner(spec, config, policy=policy, store=str(tmp_path),
                         faults=injector) as runner:
        assert runner.sim.steps_done == 10
        result = runner.run(5)
        assert identical(reference_state(spec, config, 15), state(runner.sim))
    assert (result.final_step, result.steps) == (15, 5)
    assert result.retries == 1 and result.rollback_steps == 1
    events = result.events
    # the resume at construction heads the run's events
    assert events[0] == {"name": "resume", "from_step": 10}
    rollbacks = [{k: v for k, v in e.items() if k != "name"}
                 for e in events if e["name"] == "rollback"]
    assert rollbacks == [{"from_step": 11, "to_step": 10, "lost_steps": 1}]
    assert [f["step"] for f in injector.fired] == [12]


def test_checkpoint_callback_sees_every_boundary_short_of_the_target():
    seen = []
    with ResilientRunner(cavity_spec(), cavity_config(threaded=False),
                         policy=RetryPolicy(checkpoint_every=3)) as runner:
        final = runner.run(8, on_checkpoint=lambda result: seen.append(
            (runner.sim.steps_done, result.checkpoints, result)))
    assert [s[:2] for s in seen] == [(0, 1), (3, 2), (6, 3)]
    # the callback is handed the record the run returns
    assert all(s[2] is final for s in seen) and type(final) is RunResult


def test_unrecognised_exception_propagates():
    spec = cavity_spec()

    def explode(sim):
        raise KeyError("not a kernel failure")

    runner = ResilientRunner(spec, cavity_config(threaded=False))
    runner.watchdog.callback = explode
    with runner:
        with pytest.raises(KeyError):
            runner.run(2)
