"""Thread-wave replay of step plans: determinism, pool lifecycle, errors.

``threaded=True`` replays the admitted step plan wave by wave on a
thread pool; the serial interpreted backend is the reference every case
here compares against.
"""

import functools
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.analysis.cli import ALL_CONFIGS
from repro.backend.plan import StepPlan
from repro.bench.workloads import lid_cavity, sphere_tunnel
from repro.core.fusion import FUSED_FULL, MODIFIED_BASELINE
from repro.core.simulation import Simulation
from repro.io.checkpoint import restore_checkpoint, save_checkpoint
from repro.neon.executor import WavePool
from repro.neon.runtime import FieldRef, KernelRecord, Runtime
from repro.resilience.faults import Fault, FaultInjector
from repro.serve.state import state_digest

WORKLOADS = {
    "2d": lambda: lid_cavity(base=(16, 16), num_levels=2, lattice="D2Q9"),
    "3d": lambda: lid_cavity(base=(10, 10, 10), num_levels=3, lattice="D3Q19"),
}


def full_state(sim):
    return [(b.f.copy(), b.ghost_acc.copy()) for b in sim.engine.levels]


def states_equal(a, b):
    return all(np.array_equal(x, y)
               for la, lb in zip(a, b) for x, y in zip(la, lb))


def make_sim(wl, threaded, fusion=FUSED_FULL, **overrides):
    """Thread-wave plan replay, or the serial interpreted reference."""
    return Simulation.from_config(
        wl.spec, wl.sim_config(fusion=fusion), threaded=threaded,
        backend="compiled" if threaded else "interpreted", **overrides)


def hand_plan(*kernels):
    """A plan over ``(name, body, reads, writes)`` tuples of field names."""
    records = [KernelRecord(name=name, level=0, n_cells=4, bytes_read=0,
                            bytes_written=32,
                            reads=tuple(FieldRef(r, 0) for r in reads),
                            writes=tuple(FieldRef(w, 0) for w in writes))
               for name, _, reads, writes in kernels]
    return StepPlan(records, [body for _, body, _, _ in kernels],
                    digest="", certificate={})


#: The executor digest matrix's grids: D3Q27 KBC with a solid and open
#: faces, and a three-level D2Q9 cavity.
DIGEST_GRIDS = {
    "quarter-sphere": lambda: sphere_tunnel(scale=0.25),
    "cavity2d-48": lambda: lid_cavity(base=(48, 48), num_levels=3, lattice="D2Q9"),
}
DIGEST_STEPS = 3


@functools.lru_cache(maxsize=None)
def serial_digest(grid, config):
    """``state_digest`` after :data:`DIGEST_STEPS` interpreted steps."""
    wl = DIGEST_GRIDS[grid]()
    with make_sim(wl, False, config) as sim:
        sim.run(DIGEST_STEPS)
        return state_digest(sim)


class TestDigestMatrix:
    """The executors that reorder kernels agree with serial replay on every
    config: one population buffer per level holds only because each
    coarse Stream waits for the finer Explodes that read its ``f``
    (compiled+threaded here, mp in ``tests/test_mp_backend.py``)."""

    @pytest.mark.parametrize("grid", DIGEST_GRIDS)
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_threaded_digest_equals_serial(self, grid, config):
        with make_sim(DIGEST_GRIDS[grid](), True, config) as sim:
            sim.run(DIGEST_STEPS)
            assert sim.mode == "threaded"
            assert sim.backend.stats["plan_fallback_steps"] == 0
            assert state_digest(sim) == serial_digest(grid, config)


class TestDeterminism:
    """Threaded replay must be bit-identical to serial execution."""

    @pytest.mark.parametrize("dim", sorted(WORKLOADS))
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_bit_identical_to_serial(self, dim, config):
        wl = WORKLOADS[dim]()
        with make_sim(wl, False, config) as serial, \
                make_sim(wl, True, config) as threaded:
            serial.run(3)
            threaded.run(3)
            assert threaded.mode == "threaded"
            assert threaded.backend.stats["plan_fallback_steps"] == 0
            assert states_equal(full_state(serial), full_state(threaded))
            assert threaded.runtime.records == serial.runtime.records
            assert threaded.runtime.markers == serial.runtime.markers

    def test_checkpoint_restore_threaded_continue(self, tmp_path):
        wl = WORKLOADS["3d"]()
        path = str(tmp_path / "ck.npz")

        a = make_sim(wl, False)
        a.run(2)
        save_checkpoint(a, path)
        a.run(2)
        reference = full_state(a)

        with make_sim(wl, True) as b:
            restore_checkpoint(b, path)
            assert b.steps_done == 2
            b.run(2)
            assert states_equal(reference, full_state(b))


class TestDeferredRuntime:
    def test_error_truncates_trace_and_attaches_span(self):
        def boom():
            raise RuntimeError("kernel exploded")

        ran = []
        # "ok" and "bad" share the first wave; "late" waits for "ok".
        plan = hand_plan(("ok", lambda: ran.append("ok"), (), ("a",)),
                         ("bad", boom, (), ("b",)),
                         ("late", lambda: ran.append("late"), ("a",), ("c",)))
        assert plan.waves == ((0, 1), (2,))
        rt = Runtime()
        pool = WavePool(max_workers=2)
        try:
            with pytest.raises(RuntimeError, match="kernel exploded") as err:
                plan.execute(rt, pool)
        finally:
            pool.shutdown()
        span = err.value.kernel_span
        assert span["name"] == "bad" and span["index"] == 1
        # the failed wave was joined, later waves never started, and the
        # trace holds exactly the kernels that completed before "bad"
        assert ran == ["ok"]
        assert [r.name for r in rt.records] == ["ok"]
        assert plan.replays == 0


class TestForkSafety:
    """A live pool inherited across ``fork`` must be replaced, not reused.

    Only the forking thread survives ``fork``: the child's copy of the
    parent's ``ThreadPoolExecutor`` lists worker threads that do not
    exist, so a submit there queues futures nothing will ever complete.
    Pre-fix, the child's first wave hung forever on ``fut.result()``.
    """

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="requires fork()")
    def test_fork_then_flush_does_not_hang(self):
        rt = Runtime()
        pool = WavePool(max_workers=2)
        # The two bodies rendezvous, forcing the pool to its full two
        # worker threads (a fast body can otherwise finish before the
        # second submit, leaving a one-thread pool whose child copy could
        # still grow a live thread and mask the bug).
        both = threading.Barrier(2)
        hand_plan(("A", lambda: both.wait(timeout=10), (), ("a",)),
                  ("B", lambda: both.wait(timeout=10), (), ("b",))
                  ).execute(rt, pool)
        assert len(pool._pool._threads) == 2  # noqa: SLF001 - the bug's setup
        time.sleep(0.2)  # let both workers go idle before forking
        pid = os.fork()
        if pid == 0:  # child: replay a fresh two-kernel wave, then report
            try:
                signal.alarm(20)  # hang guard — pre-fix this fires
                hand_plan(("C", lambda: None, (), ("c",)),
                          ("D", lambda: None, (), ("d",))).execute(rt, pool)
                pool.shutdown()  # must not join the parent's threads either
                os._exit(0)
            except BaseException:
                os._exit(2)
        deadline = time.monotonic() + 30
        status = None
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung replaying on the inherited pool")
        assert os.waitstatus_to_exitcode(status) == 0
        pool.shutdown()

    def test_max_workers_validated(self):
        with pytest.raises(ValueError, match="max_workers"):
            WavePool(max_workers=0)
        assert WavePool().max_workers >= 2


class TestSimulationIntegration:
    def make(self, threaded, **kwargs):
        return make_sim(WORKLOADS["2d"](), threaded, **kwargs)

    def test_context_manager_shuts_down_pool(self):
        # The unfused baseline has multi-kernel waves, so the pool is
        # actually exercised (singleton waves run inline).
        sim = self.make(threaded=True, fusion=MODIFIED_BASELINE,
                        max_workers=2)
        with sim:
            sim.run(2)
            pool = sim.backend.pool
            assert pool.max_workers == 2
            assert pool._pool is not None  # pool actually spun up
        assert pool._pool is None

    def test_trace_identical_to_serial(self):
        serial = self.make(threaded=False)
        serial.run(2)
        with self.make(threaded=True) as threaded:
            threaded.run(2)
            assert threaded.runtime.markers == serial.runtime.markers
            assert threaded.runtime.records == serial.runtime.records

    def test_spans_record_threaded_timings(self):
        with self.make(threaded=True, fusion=MODIFIED_BASELINE) as sim:
            rec = sim.enable_tracing()
            sim.run(2)
            assert len(rec.kernel_spans) == len(sim.runtime.records)
            occ = rec.observed_occupancy()
            assert occ["max_concurrent"] >= 1


class TestMidStepFailure:
    """A kernel failure mid-step must not leave the trace unbalanced."""

    @pytest.mark.parametrize("threaded", [False, True])
    def test_partial_step_closed_on_error(self, threaded):
        from repro.obs.trace import chrome_trace, validate_trace

        wl = WORKLOADS["2d"]()
        with make_sim(wl, threaded, MODIFIED_BASELINE) as sim:
            rec = sim.enable_tracing()
            sim.run(1)
            clean = len(sim.runtime.last_step())

            # the coarse level's coalescence: late in the step, behind
            # multi-kernel waves
            FaultInjector([Fault("kernel", step=2, level=0,
                                 kernel="O")]).install(sim)
            with pytest.raises(RuntimeError, match="injected kernel failure"):
                sim.run(1)
            rt = sim.runtime
            # The partial step was closed: no record dangles beyond the
            # last marker, so per-step queries can't leak it onwards.
            assert rt.markers and rt.markers[-1] == len(rt.records)
            assert len(rt.records) > rt.markers[-2]  # partial work kept
            # steps_done not bumped for the failed step
            assert sim.steps_done == 1
            # The exported trace stays valid: 1 kernel slice per record.
            problems = validate_trace(chrome_trace(rec), len(rt.records))
            assert problems == []

            sim.run(1)  # the one-shot fault is spent
            assert len(sim.runtime.last_step()) == clean
