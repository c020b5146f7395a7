"""Adaptive mesh refinement (the paper's Section-VII future work)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.amr import legalize_regions, regrid, vorticity_indicator
from repro.core.simulation import Simulation
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec, build_multigrid
from repro.core.lattice import D2Q9
from repro.validation.analytic import taylor_green_2d

PERIODIC = DomainBC({f: FaceBC("periodic") for f in ("x-", "x+", "y-", "y+")})


class TestLegalize:
    def test_covers_indicator(self):
        desired = np.zeros((64, 64), dtype=bool)
        desired[20:30, 34:40] = True
        regions = legalize_regions(desired, num_levels=2)
        covered = np.repeat(np.repeat(regions[0], 2, 0), 2, 1)
        assert (covered & desired).sum() == desired.sum()

    def test_three_levels_build(self):
        desired = np.zeros((64, 64), dtype=bool)
        desired[24:36, 24:36] = True
        regions = legalize_regions(desired, num_levels=3)
        spec = RefinementSpec((16, 16), regions)
        mg = build_multigrid(spec, D2Q9)  # must not raise
        assert mg.num_levels == 3

    def test_empty_indicator_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            legalize_regions(np.zeros((8, 8), dtype=bool), 2)

    def test_single_level_rejected(self):
        with pytest.raises(ValueError):
            legalize_regions(np.ones((8, 8), dtype=bool), 1)

    @given(st.integers(0, 47), st.integers(0, 47), st.integers(1, 16),
           st.integers(1, 16))
    @settings(max_examples=25, deadline=None)
    def test_random_indicator_always_legal(self, x, y, w, h):
        # any rectangular indicator anywhere must produce a spec that
        # passes every build_multigrid constraint
        desired = np.zeros((64, 64), dtype=bool)
        desired[x:min(x + w, 64), y:min(y + h, 64)] = True
        regions = legalize_regions(desired, num_levels=3,
                                   periodic=[True, True])
        spec = RefinementSpec((16, 16), regions, bc=PERIODIC)
        build_multigrid(spec, D2Q9)  # must not raise


class TestVorticityIndicator:
    def make_sim(self):
        region = np.zeros((32, 32), dtype=bool)
        region[4:12, 4:12] = True
        spec = RefinementSpec((32, 32), [region], bc=PERIODIC)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.02)
        sim.initialize(u=lambda c: taylor_green_2d(c, 0.0, 0.02, 0.03, (32, 32)))
        sim.run(3)
        return sim

    def test_flags_vortex_cores(self):
        sim = self.make_sim()
        ind = vorticity_indicator(sim, fraction=0.5)
        assert ind.shape == (64, 64)
        assert 0 < ind.sum() < ind.size

    def test_fraction_monotone(self):
        sim = self.make_sim()
        loose = vorticity_indicator(sim, fraction=0.2).sum()
        tight = vorticity_indicator(sim, fraction=0.8).sum()
        assert tight <= loose

    def test_fraction_validated(self):
        sim = self.make_sim()
        with pytest.raises(ValueError):
            vorticity_indicator(sim, fraction=0.0)

    def test_rest_flow_flags_nothing(self):
        region = np.zeros((16, 16), dtype=bool)
        region[4:10, 4:10] = True
        spec = RefinementSpec((16, 16), [region], bc=PERIODIC)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.05)
        assert not vorticity_indicator(sim).any()


class TestRegrid:
    def make_sim(self, dtype="float32"):
        region = np.zeros((32, 32), dtype=bool)
        region[4:12, 4:12] = True
        spec = RefinementSpec((32, 32), [region], bc=PERIODIC)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.02, dtype=dtype)
        sim.initialize(u=lambda c: taylor_green_2d(c, 0.0, 0.02, 0.03, (32, 32)))
        sim.run(5)
        return sim

    def test_moves_refinement(self):
        sim = self.make_sim()
        desired = np.zeros((64, 64), dtype=bool)
        desired[40:52, 40:52] = True
        new = regrid(sim, desired_finest=desired)
        pos = new.positions(1)
        assert pos.size > 0
        # the new fine region sits in the requested corner (+ clearance)
        assert pos.min() >= 30

    def test_conserves_mass(self):
        sim = self.make_sim(dtype="float64")
        desired = np.zeros((64, 64), dtype=bool)
        desired[40:52, 40:52] = True
        new = regrid(sim, desired_finest=desired)
        assert new.engine.total_mass() == pytest.approx(sim.engine.total_mass(),
                                                        rel=1e-10)

    def test_conserves_mass_float32(self):
        # the transfer runs in float64 and rounds each population once to
        # float32 (reads 0.006 eps of float32: the roundings cancel)
        sim = self.make_sim()
        desired = np.zeros((64, 64), dtype=bool)
        desired[40:52, 40:52] = True
        new = regrid(sim, desired_finest=desired)
        assert new.engine.total_mass() == pytest.approx(
            sim.engine.total_mass(), rel=4 * np.finfo(np.float32).eps)

    def test_preserves_velocity_field(self):
        sim = self.make_sim()
        desired = np.zeros((64, 64), dtype=bool)
        desired[8:24, 8:24] = True
        new = regrid(sim, desired_finest=desired)
        from repro.io.sampling import composite_fields
        _, u_old = composite_fields(sim)
        _, u_new = composite_fields(new)
        scale = np.abs(np.nan_to_num(u_old)).max()
        diff = np.abs(np.nan_to_num(u_new) - np.nan_to_num(u_old)).max()
        assert diff / scale < 0.35  # restriction + block constants only

    def test_keeps_settings(self):
        sim = self.make_sim()
        new = regrid(sim, regions=sim.mgrid.spec.refine_regions)
        assert new.stepper.config is sim.stepper.config
        assert new.engine.omega == sim.engine.omega
        assert new.steps_done == sim.steps_done

    def test_continues_stably(self):
        sim = self.make_sim()
        new = regrid(sim, desired_finest=vorticity_indicator(sim, 0.4))
        new.run(5)
        assert new.is_stable()

    def test_argument_validation(self):
        sim = self.make_sim()
        with pytest.raises(ValueError):
            regrid(sim)
        with pytest.raises(ValueError):
            regrid(sim, desired_finest=np.ones((64, 64), dtype=bool),
                   regions=[np.ones((32, 32), dtype=bool)])
