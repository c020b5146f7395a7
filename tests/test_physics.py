"""Physics validation: analytic flows, conservation, stability.

Accuracy expectations follow the method's published characteristics: the
volume-based scheme (Rohde et al., as used by the paper) applies *no*
non-equilibrium rescaling and holds the coarse state frozen over both
fine substeps, so refinement interfaces are first-order accurate in time.
Steady flows are accurate to a few percent; unsteady flows show larger
but bounded interface errors while uniform states and flows remain exact.
"""

import numpy as np
import pytest

from repro.core.simulation import Simulation
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec
from repro.grid.geometry import wall_refinement
from repro.validation.analytic import (couette_profile, taylor_green_2d,
                                       taylor_green_decay_rate)

PERIODIC_2D = DomainBC({f: FaceBC("periodic") for f in ("x-", "x+", "y-", "y+")})
#: float32's unit round-off: the exactness tests run at float64, their
#: float32 twins state their bounds in it.
EPS32 = float(np.finfo(np.float32).eps)


def tg_sim(L, refined, nu=0.02, u0=0.02, **config):
    regions = []
    if refined:
        q = L // 16
        region = np.zeros((L, L), dtype=bool)
        region[5 * q:11 * q, 5 * q:11 * q] = True
        regions = [region]
    spec = RefinementSpec((L, L), regions, bc=PERIODIC_2D)
    sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                 viscosity=nu, **config)
    sim.initialize(u=lambda c: taylor_green_2d(c, 0.0, nu, u0, (L, L)))
    return sim


def level_errors(sim, t, nu, u0, L):
    errs = []
    for lv in range(sim.num_levels):
        _, u = sim.macroscopics(lv)
        centers = (sim.positions(lv) + 0.5) * 2.0 ** (-lv)
        ua = taylor_green_2d(centers, t, nu, u0, (L, L))
        errs.append(np.abs(u - ua).max() / u0)
    return errs


def kinetic_energy(sim):
    e = 0.0
    for lv in range(sim.num_levels):
        _, u = sim.macroscopics(lv)
        e += float((u * u).sum()) * (0.5 ** lv) ** 2
    return e


class TestTaylorGreenUniform:
    def test_velocity_field_accuracy(self):
        sim = tg_sim(32, refined=False)
        sim.run(200)
        errs = level_errors(sim, 200.0, 0.02, 0.02, 32)
        assert errs[0] < 0.015  # sub-2% on a 32^2 uniform grid

    def test_decay_rate(self):
        sim = tg_sim(32, refined=False)
        e0 = kinetic_energy(sim)
        sim.run(150)
        rate = -np.log(kinetic_energy(sim) / e0) / 150.0
        exact = taylor_green_decay_rate(0.02, (32.0, 32.0))
        assert rate == pytest.approx(exact, rel=0.03)


class TestTaylorGreenRefined:
    def test_velocity_field_bounded_interface_error(self):
        sim = tg_sim(32, refined=True)
        sim.run(200)
        errs = level_errors(sim, 200.0, 0.02, 0.02, 32)
        # first-order interface coupling: larger than uniform, but bounded
        assert max(errs) < 0.15

    def test_decay_rate_approximates_viscous_physics(self):
        sim = tg_sim(32, refined=True)
        e0 = kinetic_energy(sim)
        sim.run(150)
        rate = -np.log(kinetic_energy(sim) / e0) / 150.0
        exact = taylor_green_decay_rate(0.02, (32.0, 32.0))
        assert rate == pytest.approx(exact, rel=0.15)

    def test_no_spurious_energy_growth(self):
        sim = tg_sim(32, refined=True)
        e = [kinetic_energy(sim)]
        for _ in range(5):
            sim.run(30)
            e.append(kinetic_energy(sim))
        assert all(b < a for a, b in zip(e, e[1:]))

    @pytest.mark.parametrize("refined", [
        pytest.param(False, id="uniform"),
        pytest.param(True, id="refined", marks=pytest.mark.xfail(
            strict=True, reason="the 2:1 interface does not converge: the "
                                "L2 error reads 4.3 / 4.9 / 5.2 % at L = "
                                "32 / 64 / 128, order -0.14 (EXPERIMENTS.md)")),
    ])
    def test_l2_error_converges_with_resolution(self, refined):
        """Diffusive scaling (nu fixed, u0 ~ 1/L, steps ~ L^2: the same
        physical time at every L) in float64; the order of the
        volume-weighted relative L2 velocity error must be at least 0.9
        (the uniform grid reads 1.46)."""
        sizes, errs = (32, 64, 128), []
        for L in sizes:
            u0, steps = 0.02 * 32 / L, 100 * (L // 32) ** 2
            with tg_sim(L, refined, u0=u0, dtype="float64",
                        backend="compiled") as sim:
                sim.run(steps)
                num = den = 0.0
                for lv in range(sim.num_levels):
                    _, u = sim.macroscopics(lv)
                    ua = taylor_green_2d((sim.positions(lv) + 0.5) * 0.5 ** lv,
                                         steps, 0.02, u0, (L, L))
                    num += 0.25 ** lv * float(((u - ua) ** 2).sum())
                    den += 0.25 ** lv * float((ua ** 2).sum())
            errs.append(np.sqrt(num / den))
        order = -np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert order >= 0.9, (order, errs)


class TestUniformFlowExactness:
    """Constant states must cross refinement interfaces exactly (Eq. 10/11)."""

    def rest_state_change(self, dtype):
        spec = RefinementSpec((16, 16), wall_refinement((16, 16), 2, [3.0]))
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.05, dtype=dtype)
        f0 = [b.f[:, :b.n_owned].copy() for b in sim.engine.levels]
        sim.run(4)
        return max(np.abs(buf.f[:, :buf.n_owned] - ref).max()
                   for buf, ref in zip(sim.engine.levels, f0))

    def test_rest_state_fixed_point(self):
        assert self.rest_state_change("float64") < 1e-14

    def test_rest_state_fixed_point_float32(self):
        # a float32 collide rounds the rest state's moments once: the
        # state moves by an ulp at most and stays (reads 0.75 eps)
        assert self.rest_state_change("float32") <= 4 * EPS32

    def advected(self, dtype):
        region = np.zeros((16, 16), dtype=bool)
        region[5:11, 5:11] = True
        spec = RefinementSpec((16, 16), [region], bc=PERIODIC_2D)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.05, dtype=dtype)
        sim.initialize(u=np.array([0.02, 0.01]))
        sim.run(8)
        for lv in range(2):
            rho, u = sim.macroscopics(lv)
            yield max(np.abs(rho - 1.0).max(), np.abs(u[0] - 0.02).max(),
                      np.abs(u[1] - 0.01).max())

    def test_uniform_advection_exact(self):
        assert all(err < 1e-13 for err in self.advected("float64"))

    def test_uniform_advection_exact_float32(self):
        # each substep rounds the uniform state to float32 and back to the
        # same moments to within a few ulps, across the interface too
        # (reads 3.3 eps on rho of the fine level, under 2.1 on u)
        assert all(err <= 16 * EPS32 for err in self.advected("float32"))


class TestCouette:
    def make(self, H=12, nu=0.3, uw=0.05, steps=600):
        bc = DomainBC({"x-": FaceBC("periodic"), "x+": FaceBC("periodic"),
                       "y+": FaceBC("moving", velocity=(uw, 0.0))})
        region = np.zeros((H, H), dtype=bool)
        region[:, :4] = True  # refine the lower part of the channel
        spec = RefinementSpec((H, H), [region], bc=bc)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=nu)
        sim.run(steps)
        return sim

    def test_steady_linear_profile_across_interface(self):
        H, uw = 12, 0.05
        sim = self.make(H=H, uw=uw)
        for lv in range(2):
            _, u = sim.macroscopics(lv)
            centers = (sim.positions(lv) + 0.5) * 2.0 ** (-lv)
            exact = couette_profile(centers[:, 1], float(H), uw)
            assert np.abs(u[0] - exact).max() / uw < 0.05

    def test_transverse_velocity_negligible(self):
        sim = self.make()
        for lv in range(2):
            _, u = sim.macroscopics(lv)
            assert np.abs(u[1]).max() < 0.002


class TestConservation:
    @staticmethod
    def single_level_mass(dtype):
        bc = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
        spec = RefinementSpec((16, 16), bc=bc)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.05, dtype=dtype)
        m0 = sim.engine.total_mass()
        sim.run(50)
        return m0, sim.engine.total_mass()

    def test_single_level_mass_exact(self):
        m0, m = self.single_level_mass("float64")
        assert m == pytest.approx(m0, rel=1e-12)

    def test_single_level_mass_exact_float32(self):
        # each float32 collide conserves a cell's mass to a few ulps; the
        # errors do not add up over 50 steps (reads 6.2 eps; the mass is
        # summed in float64, so that is the state's drift, not the sum's)
        m0, m = self.single_level_mass("float32")
        assert m == pytest.approx(m0, rel=32 * EPS32)

    def test_multi_level_mass_drift_small(self):
        bc = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
        spec = RefinementSpec((16, 16), wall_refinement((16, 16), 2, [3.0]), bc=bc)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.05)
        m0 = sim.engine.total_mass()
        sim.run(50)
        drift = abs(sim.engine.total_mass() - m0) / m0
        assert drift < 1e-4  # homogeneous redistribution: small, bounded

    def test_periodic_multi_level_mass_drift_small(self):
        region = np.zeros((16, 16), dtype=bool)
        region[5:11, 5:11] = True
        spec = RefinementSpec((16, 16), [region], bc=PERIODIC_2D)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.05)
        sim.initialize(u=lambda c: taylor_green_2d(c, 0.0, 0.05, 0.02, (16, 16)))
        m0 = sim.engine.total_mass()
        sim.run(50)
        assert abs(sim.engine.total_mass() - m0) / m0 < 1e-4


class TestStability:
    def test_cavity_stays_stable_and_bounded(self):
        bc = DomainBC({"y+": FaceBC("moving", velocity=(0.08, 0.0))})
        spec = RefinementSpec((16, 16), wall_refinement((16, 16), 2, [3.0]), bc=bc)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.02)
        sim.run(150)
        assert sim.is_stable()
        assert sim.max_velocity() < 0.2  # bounded by the lid speed scale

    def test_kbc_stable_at_low_viscosity_3d(self):
        from repro.bench.workloads import sphere_tunnel
        wl = sphere_tunnel(scale=0.125)
        sim = Simulation.from_config(wl.spec, lattice=wl.lattice,
                                     collision=wl.collision,
                                     viscosity=wl.viscosity)
        sim.run(10)
        assert sim.is_stable()
