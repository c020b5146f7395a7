"""Guo body-force scheme and reduced-precision storage (library extensions)."""

import numpy as np
import pytest

from repro.core.collision import BGK, KBC, equilibrium, guo_source
from repro.core.lattice import D2Q9, D3Q27
from repro.core.simulation import Simulation
from repro.grid.geometry import wall_refinement
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec
from repro.validation.analytic import poiseuille_profile

PERIODIC_X = DomainBC({"x-": FaceBC("periodic"), "x+": FaceBC("periodic")})


class TestGuoSource:
    def test_zeroth_moment_vanishes(self):
        lat = D2Q9
        u = 0.02 * np.random.default_rng(0).standard_normal((2, 10))
        s = guo_source(lat, u, np.array([1e-4, 0.0]), omega=1.3)
        assert np.allclose(s.sum(axis=0), 0.0, atol=1e-15)

    def test_first_moment_is_scaled_force(self):
        lat = D2Q9
        u = 0.02 * np.random.default_rng(1).standard_normal((2, 10))
        force = np.array([2e-4, -1e-4])
        omega = 1.4
        s = guo_source(lat, u, force, omega)
        mom = lat.ef.T @ s
        expected = (1.0 - 0.5 * omega) * force
        assert np.allclose(mom, expected[:, None], atol=1e-15)

    def test_collision_adds_momentum(self):
        lat = D2Q9
        force = np.array([1e-4, 0.0])
        feq = equilibrium(lat, np.ones(5), np.zeros((2, 5)))
        out = BGK(lat).collide(feq, 1.2, force=force)
        mom = lat.ef.T @ out
        # from rest, the raw post-collision momentum is exactly F:
        # omega*(F/2) from relaxing toward the shifted equilibrium plus
        # (1 - omega/2)*F from the source term
        assert np.allclose(mom[0], force[0], atol=1e-15)

    def test_kbc_accepts_force(self):
        lat = D3Q27
        feq = equilibrium(lat, np.ones(4), np.zeros((3, 4)))
        out = KBC(lat).collide(feq, 1.5, force=np.array([1e-4, 0.0, 0.0]))
        assert np.isfinite(out).all()
        assert (lat.ef.T @ out)[0].mean() > 0


class TestPoiseuille:
    def test_refined_channel_matches_analytic(self):
        # body-force-driven channel flow across a refinement interface
        H, nu, g = 12, 0.3, 1e-5
        region = np.zeros((H, H), dtype=bool)
        region[:, :4] = True
        spec = RefinementSpec((H, H), [region], bc=PERIODIC_X)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=nu, force=(g, 0.0))
        sim.run(800)
        u_max = g * H * H / (8.0 * nu)
        for lv in range(2):
            _, u = sim.macroscopics(lv)
            y = (sim.positions(lv)[:, 1] + 0.5) * 2.0 ** (-lv)
            exact = poiseuille_profile(y, float(H), u_max)
            assert np.abs(u[0] - exact).max() / u_max < 0.06

    def test_force_scales_across_levels(self):
        spec = RefinementSpec((8, 8), wall_refinement((8, 8), 2, [2.0]))
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.1, force=(1e-4, 0.0))
        assert sim.engine.force[1][0] == pytest.approx(0.5e-4)

    def test_force_shape_validated(self):
        spec = RefinementSpec((8, 8))
        with pytest.raises(ValueError):
            Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                   viscosity=0.1, force=(1e-4, 0, 0))

    def test_all_fusion_variants_identical_with_force(self):
        from repro.core.fusion import ABLATION_CONFIGS, ORIGINAL_BASELINE
        H = 12
        region = np.zeros((H, H), dtype=bool)
        region[:, :4] = True
        spec = RefinementSpec((H, H), [region], bc=PERIODIC_X)
        ref = None
        for cfg in (ORIGINAL_BASELINE,) + tuple(ABLATION_CONFIGS):
            sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                         viscosity=0.2, force=(1e-5, 0.0),
                                         fusion=cfg)
            sim.run(5)
            state = np.concatenate([b.f[:, :b.n_owned].ravel()
                                    for b in sim.engine.levels])
            if ref is None:
                ref = state
            else:
                assert np.array_equal(state, ref), cfg.name
