"""High-level Simulation facade and the MLUPS metric."""

import numpy as np
import pytest

from repro.core.fusion import FUSED_FULL
from repro.core.simulation import Simulation, mlups
from repro.grid.geometry import wall_refinement
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec


def spec_2d():
    bc = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
    return RefinementSpec((16, 16), wall_refinement((16, 16), 2, [3.0]), bc=bc)


class TestConstruction:
    def test_exactly_one_relaxation_spec(self):
        with pytest.raises(ValueError):
            Simulation.from_config(spec_2d(), lattice="D2Q9", collision="bgk")
        with pytest.raises(ValueError):
            Simulation.from_config(spec_2d(), lattice="D2Q9", collision="bgk",
                                   viscosity=0.1, omega0=1.0)

    def test_lattice_by_name_or_object(self):
        # a name in any case is the one lattice; an instance is refused
        from repro.core.lattice import D2Q9
        a = Simulation.from_config(spec_2d(), lattice="d2q9", collision="bgk",
                                   viscosity=0.1)
        b = Simulation.from_config(spec_2d(), lattice="D2Q9", collision="bgk",
                                   viscosity=0.1)
        assert a.lattice is b.lattice is D2Q9
        assert a.sim_config == b.sim_config and a.sim_config.lattice == "D2Q9"
        with pytest.raises(TypeError, match="lattice and collision must be names"):
            Simulation.from_config(spec_2d(), lattice=D2Q9, collision="bgk",
                                   viscosity=0.1)

    def test_collision_object(self):
        from repro.core.collision import BGK
        from repro.core.lattice import D2Q9
        for name in ("bgk", "BGK", "Bgk"):
            sim = Simulation.from_config(spec_2d(), lattice="D2Q9",
                                         collision=name, viscosity=0.1)
            assert sim.engine.collision.name == "BGK"
            assert sim.sim_config.collision == "bgk"
        with pytest.raises(TypeError, match="lattice and collision must be names"):
            Simulation.from_config(spec_2d(), lattice="D2Q9",
                                   collision=BGK(D2Q9), viscosity=0.1)

    def test_collision_lattice_mismatch(self):
        # a model built for another lattice cannot be passed at all; by
        # name, the model is built for the config's lattice
        from repro.core.collision import BGK
        from repro.core.lattice import D3Q19
        with pytest.raises(TypeError, match="lattice and collision must be names"):
            Simulation.from_config(spec_2d(), lattice="D2Q9",
                                   collision=BGK(D3Q19), viscosity=0.1)
        sim = Simulation.from_config(spec_2d(), lattice="D2Q9",
                                     collision="KBC", viscosity=0.1)
        assert sim.engine.collision.lattice is sim.lattice

    def test_default_config_is_fused(self):
        sim = Simulation.from_config(spec_2d(), lattice="D2Q9",
                                     collision="bgk", viscosity=0.1)
        assert sim.stepper.config is FUSED_FULL


class TestRun:
    def test_step_counting(self):
        sim = Simulation.from_config(spec_2d(), lattice="D2Q9",
                                     collision="bgk", viscosity=0.1)
        sim.run(3)
        sim.step()
        assert sim.steps_done == 4

    def test_run_returns_structured_result(self):
        sim = Simulation.from_config(spec_2d(), lattice="D2Q9",
                                     collision="bgk", viscosity=0.1)
        res = sim.run(2)
        assert res.steps == 2 and res.final_step == 2
        assert res.seconds > 0
        assert sim.elapsed >= res.seconds
        assert res.backend == sim.backend.name
        assert res.mode == sim.mode
        assert res.mlups > 0
        # a plain run is a resilient one that needed no recovery
        assert res.outcome == "ok" and res.retries == 0 and res.events == []
        d = res.as_dict()
        assert d["steps"] == 2 and d["outcome"] == "ok"
        assert d == vars(res) and d is not vars(res)

    def test_callback_cadence(self):
        sim = Simulation.from_config(spec_2d(), lattice="D2Q9",
                                     collision="bgk", viscosity=0.1)
        hits = []
        sim.run(6, callback=lambda s: hits.append(s.steps_done))
        assert hits == [1, 2, 3, 4, 5, 6]  # after every coarse step

    def test_initialize_resets(self):
        sim = Simulation.from_config(spec_2d(), lattice="D2Q9",
                                     collision="bgk", viscosity=0.1)
        sim.run(3)
        sim.initialize()
        assert sim.steps_done == 0 and sim.elapsed == 0.0
        assert np.allclose(sim.engine.total_momentum(), 0.0, atol=1e-12)

    def test_initialize_rebases_the_trace(self):
        # Re-initialising a simulation that has stepped starts the trace
        # at step 0 again: a fault armed by step fires, and per-step
        # metrics count only the steps run since.
        from repro.obs import run_metrics
        from repro.resilience import Fault, FaultInjector
        sim = Simulation.from_config(spec_2d(), lattice="D2Q9",
                                     collision="bgk", viscosity=0.1)
        sim.run(3)
        sim.initialize()
        inj = FaultInjector([Fault("nan", step=2)])
        inj.install(sim)
        res = sim.run(2)
        assert [f["step"] for f in inj.fired] == [2]
        assert not sim.is_stable()
        m = run_metrics(sim)
        assert m["steps_total"] == 2
        assert m["wall_mlups"] == pytest.approx(res.mlups)


class TestObservables:
    def test_wallclock_mlups(self, tmp_path):
        # The paper formula over this run's steps and seconds, also for a
        # run that continues from a restored checkpoint.
        from repro.io.checkpoint import restore_checkpoint, save_checkpoint
        sim = Simulation.from_config(spec_2d(), lattice="D2Q9",
                                     collision="bgk", viscosity=0.1)
        updates = sum(v * 2 ** lv for lv, v in
                      enumerate(sim.mgrid.active_per_level())) * 5
        res = sim.run(5)
        assert res.mlups == pytest.approx(updates / (res.seconds * 1e6))
        sim.run(3)
        save_checkpoint(sim, str(tmp_path / "ck.npz"))
        resumed = Simulation.from_config(spec_2d(), lattice="D2Q9",
                                         collision="bgk", viscosity=0.1)
        restore_checkpoint(resumed, str(tmp_path / "ck.npz"))
        res = resumed.run(5)
        assert (res.steps, res.final_step) == (5, 13)
        assert res.mlups == pytest.approx(updates / (res.seconds * 1e6))

    def test_is_stable_detects_nan(self):
        sim = Simulation.from_config(spec_2d(), lattice="D2Q9",
                                     collision="bgk", viscosity=0.1)
        assert sim.is_stable()
        sim.engine.levels[0].f[0, 0] = np.nan
        assert not sim.is_stable()

    def test_max_velocity_at_rest(self):
        sim = Simulation.from_config(spec_2d(), lattice="D2Q9",
                                     collision="bgk", viscosity=0.1)
        assert sim.max_velocity() == pytest.approx(0.0, abs=1e-12)

    def test_positions_in_level_units(self):
        sim = Simulation.from_config(spec_2d(), lattice="D2Q9",
                                     collision="bgk", viscosity=0.1)
        # the fine level hugs the walls, so it reaches the box edge (31 at
        # fine resolution); the coarse level owns only the interior
        assert sim.positions(1).max() == 31
        assert 8 <= sim.positions(0).max() < 16


class TestMlupsFormula:
    def test_paper_formula(self):
        # MLUPS = sum_L V_L 2^L N / T_us
        assert mlups([100, 200], 10, 1.0) == pytest.approx(
            (100 * 1 + 200 * 2) * 10 / 1e6)

    def test_rejects_zero_time(self):
        with pytest.raises(ValueError):
            mlups([10], 1, 0.0)


class TestCloseIdempotency:
    """close() must be safe from finally-paths and double-shutdown."""

    def _sim(self, **overrides):
        from repro.core.config import SimConfig
        cfg = SimConfig(lattice="D2Q9", viscosity=0.1, **overrides)
        return Simulation.from_config(spec_2d(), cfg)

    def test_double_close_serial(self):
        sim = self._sim(threaded=False)
        sim.run(1)
        sim.close()
        sim.close()  # regression: second close must be a no-op

    def test_double_close_threaded(self):
        from repro.core.fusion import MODIFIED_BASELINE
        # The unfused baseline has multi-kernel waves, so the backend's
        # pool really starts threads for close() to release.
        sim = self._sim(threaded=True, fusion=MODIFIED_BASELINE)
        sim.run(1)
        assert sim.backend.pool._pool is not None
        sim.close()
        sim.close()
        assert sim.backend.pool._pool is None
        assert sim.mode == "threaded"  # fixed at construction

    def test_double_close_mp(self):
        sim = self._sim(backend="mp", mp_workers=2, threaded=False)
        try:
            sim.run(1)
        finally:
            sim.close()
            sim.close()  # arena/pool teardown must tolerate repeats

    def test_close_then_run_then_close_again(self):
        sim = self._sim(threaded=False)
        sim.run(1)
        sim.close()
        sim.run(1)   # simulation stays usable after close
        sim.close()
        assert sim.steps_done == 2

    def test_close_on_partially_built_simulation(self):
        # A simulation whose __init__ failed must still close() cleanly
        # from a caller's finally path.
        sim = Simulation.__new__(Simulation)
        sim.close()

    def test_resilient_runner_double_close(self):
        from repro.resilience import ResilientRunner, RetryPolicy
        from repro.core.config import SimConfig
        runner = ResilientRunner(spec_2d(),
                                 SimConfig(lattice="D2Q9", viscosity=0.1,
                                           threaded=False),
                                 policy=RetryPolicy(checkpoint_every=2))
        runner.run(2)
        runner.close()
        runner.close()
