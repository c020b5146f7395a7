"""Two-relaxation-time collision operator."""

import numpy as np
import pytest

from repro.core.collision import BGK, TRT, equilibrium, macroscopics, make_collision
from repro.core.lattice import D2Q9, D3Q19, D3Q27
from repro.core.simulation import Simulation
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec
from repro.validation.analytic import poiseuille_profile

RNG = np.random.default_rng(9)
PERIODIC_X = DomainBC({"x-": FaceBC("periodic"), "x+": FaceBC("periodic")})


def random_state(lat, n=40):
    rho = 1.0 + 0.03 * RNG.standard_normal(n)
    u = 0.03 * RNG.standard_normal((lat.d, n))
    feq = equilibrium(lat, rho, u)
    return feq * (1.0 + 0.01 * RNG.standard_normal(feq.shape))


@pytest.mark.parametrize("lat", [D2Q9, D3Q19, D3Q27], ids=lambda l: l.name)
class TestTRT:
    def test_conserves_invariants(self, lat):
        f = random_state(lat)
        out = TRT(lat).collide(f, 1.4)
        assert np.allclose(out.sum(axis=0), f.sum(axis=0), rtol=1e-12)
        assert np.allclose(lat.ef.T @ out, lat.ef.T @ f, atol=1e-13)

    def test_equilibrium_fixed_point(self, lat):
        feq = equilibrium(lat, np.ones(6), 0.02 * RNG.standard_normal((lat.d, 6)))
        out = TRT(lat).collide(feq, 1.7)
        assert np.allclose(out, feq, atol=1e-13)

    def test_reduces_to_bgk_at_magic_quarter(self, lat):
        # Lambda = (1/w - 1/2)^2  <=>  omega_minus == omega == BGK
        omega = 1.3
        lam = (1.0 / omega - 0.5) ** 2
        f = random_state(lat)
        out_trt = TRT(lat, magic=lam).collide(f, omega)
        out_bgk = BGK(lat).collide(f, omega)
        assert np.allclose(out_trt, out_bgk, atol=1e-13)

    def test_omega_minus_in_stable_range(self, lat):
        trt = TRT(lat)
        for omega in np.linspace(0.1, 1.99, 25):
            assert 0.0 < trt.omega_minus(omega) < 2.0


def test_magic_validation():
    with pytest.raises(ValueError):
        TRT(D2Q9, magic=0.0)


def test_factory():
    assert make_collision("trt", D2Q9).name == "TRT"


class TestTRTPhysics:
    def test_poiseuille_wall_placement_beats_bgk(self):
        # the magic parameter 3/16 makes the channel profile grid-exact;
        # compare max deviation against BGK at an omega where BGK's wall
        # slip error is visible
        H, g = 10, 1e-5
        nu = 0.02  # omega ~ 1.79: large BGK wall-slip error regime
        errs = {}
        for model in ("bgk", "trt"):
            spec = RefinementSpec((H, H), bc=PERIODIC_X)
            sim = Simulation.from_config(spec, lattice="D2Q9", collision=model,
                                         viscosity=nu, force=(g, 0.0))
            sim.run(3000)
            _, u = sim.macroscopics(0)
            y = sim.positions(0)[:, 1] + 0.5
            u_max = g * H * H / (8.0 * nu)
            exact = poiseuille_profile(y, float(H), u_max)
            errs[model] = np.abs(u[0] - exact).max() / u_max
        assert errs["trt"] < errs["bgk"]
        assert errs["trt"] < 0.02

    def test_refined_cavity_with_trt_stable(self):
        from repro.grid.geometry import wall_refinement
        bc = DomainBC({"y+": FaceBC("moving", velocity=(0.08, 0.0))})
        spec = RefinementSpec((16, 16), wall_refinement((16, 16), 2, [3.0]), bc=bc)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="trt",
                                     viscosity=0.02)
        sim.run(60)
        assert sim.is_stable()

    def test_all_variants_identical_with_trt(self):
        from repro.core.fusion import ABLATION_CONFIGS
        from repro.grid.geometry import wall_refinement
        bc = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
        spec = RefinementSpec((16, 16), wall_refinement((16, 16), 2, [3.0]), bc=bc)
        ref = None
        for cfg in (ABLATION_CONFIGS[0], ABLATION_CONFIGS[-1]):
            sim = Simulation.from_config(spec, lattice="D2Q9", collision="trt",
                                         viscosity=0.05, fusion=cfg)
            sim.run(5)
            state = np.concatenate([b.f[:, :b.n_owned].ravel()
                                    for b in sim.engine.levels])
            if ref is None:
                ref = state
            else:
                assert np.array_equal(state, ref)
