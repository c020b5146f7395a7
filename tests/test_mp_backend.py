"""Process-parallel backend suite: mp worker pool vs the in-process paths.

The contract under test extends the backend-parity one
(``tests/test_backend.py``) across a process boundary:

* mp execution is **bit-identical** to interpreted execution — every
  level's ``f``/``ghost_acc``, the recorded kernel trace and
  the step markers — across all fusion configs in 2D and 3D;
* a **dead worker** surfaces as a structured :class:`MpWorkerError`
  carrying the mid-step error contract (``kernel_span``), the pool
  respawns lazily, and :class:`ResilientRunner` rides the failure to a
  bit-identical finish (rollback-retry, then the mp → serial ladder
  rung when strikes accumulate);
* ``$REPRO_BACKEND=mp`` selects the backend ambiently in a fresh
  process, exactly like the compiled backends (the spawn-mode smoke the
  CI leg relies on).
"""

import os
import subprocess
import sys
import textwrap
from types import MethodType, SimpleNamespace

import numpy as np
import pytest

from repro.backend import (MpWorkerError, MultiprocessBackend,
                           available_backends, make_backend)
from repro.backend.mp import _partition, _shard_collide, default_mp_workers
from repro.bench.workloads import lid_cavity
from repro.core.collision import BGK, KBC, TRT, equilibrium
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.fusion import ABLATION_CONFIGS, ORIGINAL_BASELINE
from repro.core.lattice import D3Q19, D3Q27
from repro.core.simulation import Simulation
from repro.neon.runtime import FieldRef, KernelRecord
from repro.resilience import ResilientRunner, RetryPolicy
from repro.serve.state import state_digest

from .test_executor import DIGEST_GRIDS, DIGEST_STEPS, serial_digest

ALL_CONFIGS = (ORIGINAL_BASELINE,) + tuple(ABLATION_CONFIGS)


def cavity(dim="2d"):
    if dim == "2d":
        return lid_cavity(base=(16, 16), num_levels=2, lattice="D2Q9")
    return lid_cavity(base=(10, 10, 10), num_levels=2, lattice="D3Q19")


def build(wl, cfg, backend, **over):
    return Simulation.from_config(
        wl.spec, wl.sim_config(fusion=cfg), backend=backend,
        threaded=False, mp_workers=2, **over)


def states(sim):
    return [(b.f.copy(), b.ghost_acc.copy()) for b in sim.engine.levels]


def assert_bit_identical(a, b):
    names = ("f", "gacc")
    for lv, (sa, sb) in enumerate(zip(a, b)):
        for name, xa, xb in zip(names, sa, sb):
            assert np.array_equal(xa, xb), f"{name}@{lv} diverged"


class TestRegistry:
    def test_mp_backend_registered(self):
        assert "mp" in available_backends()
        assert isinstance(make_backend("mp"), MultiprocessBackend)

    def test_mp_workers_validation(self):
        with pytest.raises(ValueError):
            SimConfig(lattice="D2Q9", viscosity=0.05, mp_workers=0)

    def test_configure_reads_sim_config(self):
        be = MultiprocessBackend()
        be.configure(SimConfig(lattice="D2Q9", viscosity=0.05, mp_workers=3))
        assert be.workers == 3

    def test_default_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_WORKERS", "5")
        assert default_mp_workers() == 5


class TestBitIdentity:
    """Pool replay must be bitwise equal to in-process interpretation."""

    @pytest.mark.parametrize("dim", ["2d", "3d"])
    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.name)
    def test_full_state_and_trace(self, dim, cfg):
        wl = cavity(dim)
        si = build(wl, cfg, "interpreted")
        si.run(3)
        with build(wl, cfg, "mp") as sm:
            sm.run(3)
            assert_bit_identical(states(si), states(sm))
            assert si.runtime.records == sm.runtime.records
            assert si.runtime.markers == sm.runtime.markers
            assert sm.backend.stats["plan_fallback_steps"] == 0
            assert sm.backend.stats["mp_steps"] == 3

    @pytest.mark.parametrize("grid", DIGEST_GRIDS)
    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.name)
    def test_digest_matrix_equals_serial(self, grid, cfg):
        # the executor digest matrix's mp column (tests/test_executor.py)
        wl = DIGEST_GRIDS[grid]()
        with build(wl, cfg, "mp") as sm:
            sm.run(DIGEST_STEPS)
            assert sm.backend.stats["mp_steps"] == DIGEST_STEPS
            assert state_digest(sm) == serial_digest(grid, cfg)

    def test_close_releases_pool_and_respawns_lazily(self):
        wl = cavity()
        sm = build(wl, ALL_CONFIGS[-1], "mp")
        sm.run(2)
        sm.close()
        assert not sm.backend._procs
        assert sm.backend._shm is None
        # The simulation stays usable after close(): the next step
        # rebuilds the arena and respawns the pool on demand.
        sm.step()
        assert sm.steps_done == 3
        assert sm.backend._procs
        sm.close()


class TestCollideShards:
    """A column shard equals the same columns of the whole-level call.

    ``_partition`` cuts a level on multiples of the collide tile, and a
    call starting on one issues, for its columns, the products of the
    whole-level call (DESIGN.md section 17, decision 2) -- in float32
    too, where the Haswell and Zen sgemm kernels round a column by its
    place in the product (``make test-blas``).
    """

    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("op, forced, dtype", [
        pytest.param(op, forced, dtype, id=name + suffix)
        for dtype, suffix in ((np.float64, ""), (np.float32, "-float32"))
        for op, forced, name in ((BGK(D3Q19), False, "BGK-D3Q19"),
                                 (TRT(D3Q19), True, "TRT-D3Q19-forced"),
                                 (KBC(D3Q27), False, "KBC-D3Q27"))])
    def test_shards_concatenate_to_the_whole_level(self, op, forced, workers,
                                                   dtype):
        lat, tile = op.lattice, op.tile(dtype)
        n = 4 * tile + 1001
        rng = np.random.default_rng(workers)
        f = equilibrium(lat, 1.0 + 0.05 * rng.standard_normal(n),
                        0.05 * rng.standard_normal((lat.d, n)))
        f *= 1.0 + 1e-3 * rng.standard_normal(f.shape)
        f = f.astype(dtype)
        force = 1e-4 * (1.0 + np.arange(lat.d)) if forced else None
        buf = SimpleNamespace(f=f.copy())
        engine = SimpleNamespace(levels=[buf], collision=op, omega=[1.6],
                                 force=[force])
        # the shard is the engine's own column-range collide piece
        engine.collide_columns = MethodType(Engine.collide_columns, engine)
        rec = KernelRecord("C", 0, n, f.nbytes, f.nbytes,
                           (FieldRef("f", 0),), (FieldRef("f", 0),))
        shards = [(lo, hi) for worker in _partition([rec], [[0]], workers, tile)
                  for _, lo, hi in worker[0]]
        assert len(shards) == workers and all(lo % tile == 0 for lo, _ in shards)
        for lo, hi in shards:
            _shard_collide(engine, rec, lo, hi)()
        assert np.array_equal(buf.f, op.collide(f, 1.6, force=force))


class TestWorkerDeath:
    def test_dead_worker_raises_structured_error(self):
        wl = cavity()
        with build(wl, ALL_CONFIGS[-1], "mp") as sm:
            sm.run(1)
            sm.backend._procs[0].kill()
            with pytest.raises(MpWorkerError) as exc:
                sm.step()
            assert hasattr(exc.value, "kernel_span")
            assert sm.backend.stats["mp_worker_restarts"] == 1
            # Trace contract: the aborted step left no partial records.
            assert len(sm.runtime.markers) == 1
            assert len(sm.runtime.records) == sm.runtime.markers[-1]
            # The pool respawns lazily and stepping resumes.
            sm.step()
            assert sm.steps_done == 2


def cavity_spec():
    from repro.grid.geometry import wall_refinement
    from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec
    base = (16, 16)
    bc = DomainBC({"y+": FaceBC("moving", velocity=(0.06, 0.0))})
    return RefinementSpec(base, wall_refinement(base, 2, [3.0]), bc=bc)


def mp_config(**overrides):
    kw = dict(backend="mp", mp_workers=2, threaded=False)
    kw.update(overrides)
    return SimConfig(lattice="D2Q9", viscosity=0.05, **kw)


class TestResilience:
    def test_runner_recovers_worker_kill_bit_identically(self):
        spec = cavity_spec()
        with Simulation.from_config(
                spec, mp_config(backend="interpreted")) as ref:
            ref.run(4)
            expect = states(ref)
        runner = ResilientRunner(spec, mp_config(),
                                 policy=RetryPolicy(checkpoint_every=2))
        with runner:
            assert runner.mode == "mp"
            runner.run(2)
            runner.sim.backend._procs[0].kill()
            result = runner.run(2)
            assert result.final_step == 4
            assert result.outcome == "ok"
            assert result.retries >= 1
            assert result.failures[0]["kind"] == "worker"
            assert runner.mode == "mp"
            assert_bit_identical(expect, states(runner.sim))

    def test_repeated_worker_failures_degrade_to_serial(self):
        runner = ResilientRunner(
            cavity_spec(), mp_config(),
            policy=RetryPolicy(checkpoint_every=2, max_retries=5))
        with runner:
            def doomed_step(stepper):
                raise MpWorkerError("injected pool failure")

            runner.sim.backend.step = doomed_step
            result = runner.run(2)
            assert [d["rung"] for d in result.degradations] == ["serial"]
            assert runner.mode == "serial"
            assert runner.sim.backend.name == "compiled"
            assert result.final_step == 2
            assert result.outcome == "degraded"


class TestSpawnEnv:
    def test_ambient_backend_selection(self, tmp_path):
        # A real script file: multiprocessing's spawn start method must
        # be able to re-import the main module in the workers.
        script = tmp_path / "mp_env_smoke.py"
        script.write_text(textwrap.dedent("""\
            from repro.bench.workloads import lid_cavity
            from repro.core.simulation import Simulation

            # The guard is load-bearing: spawned workers re-run this
            # module's top level under __name__ == "__mp_main__".
            if __name__ == "__main__":
                wl = lid_cavity(base=(12, 12), num_levels=2,
                                lattice="D2Q9")
                with Simulation.from_config(
                        wl.spec,
                        wl.sim_config(fusion="ours-4f", threaded=False,
                                      mp_workers=2)) as sim:
                    assert sim.backend.name == "mp", sim.backend.name
                    sim.run(1)
                    assert sim.backend.stats["mp_steps"] == 1
                    assert sim.backend.stats["plan_fallback_steps"] == 0
                print("MP-ENV-OK")
        """))
        env = dict(os.environ, REPRO_BACKEND="mp")
        env.setdefault("PYTHONPATH", "")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"]
        out = subprocess.run([sys.executable, str(script)], env=env,
                             capture_output=True, text=True, timeout=180)
        assert out.returncode == 0, out.stderr
        assert "MP-ENV-OK" in out.stdout
