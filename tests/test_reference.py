"""Dense reference solver and cross-validation against the refined engine."""

import numpy as np
import pytest

from repro.core.lattice import D2Q9, D3Q19
from repro.core.units import omega_at_level, omega_from_viscosity
from repro.core.simulation import Simulation
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec
from repro.reference.dense import DenseLBM
from repro.validation.analytic import taylor_green_2d, taylor_green_decay_rate

PERIODIC_2D = DomainBC({f: FaceBC("periodic") for f in ("x-", "x+", "y-", "y+")})


class TestDenseBasics:
    def test_rest_state_fixed_point(self):
        solver = DenseLBM(D2Q9, (12, 12), omega=1.3)
        f0 = solver.f.copy()
        solver.run(5)
        assert np.abs(solver.f - f0).max() < 1e-14

    def test_mass_conservation_closed_box(self):
        solver = DenseLBM(D2Q9, (12, 12), omega=1.3,
                          bc=DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))}))
        m0 = solver.total_mass()
        solver.run(40)
        assert solver.total_mass() == pytest.approx(m0, rel=1e-12)

    def test_taylor_green_accuracy(self):
        L, nu, u0 = 32, 0.02, 0.02
        solver = DenseLBM(D2Q9, (L, L), omega=omega_from_viscosity(nu),
                          bc=PERIODIC_2D)
        solver.initialize(u=lambda c: taylor_green_2d(c, 0.0, nu, u0, (L, L)))
        solver.run(200)
        _, u = solver.macroscopics()
        from repro.grid.geometry import cell_centers
        pts = cell_centers((L, L), 0).reshape(-1, 2)
        ua = taylor_green_2d(pts, 200.0, nu, u0, (L, L)).reshape(2, L, L)
        assert np.abs(u - ua).max() / u0 < 0.015

    def test_solid_obstacle_blocks_flow(self):
        solid = np.zeros((16, 16), dtype=bool)
        solid[6:10, 6:10] = True
        solver = DenseLBM(D2Q9, (16, 16), omega=1.2, bc=PERIODIC_2D, solid=solid)
        solver.initialize(u=np.array([0.03, 0.0]))
        solver.run(30)
        assert np.isfinite(solver.f[:, solver.fluid.ravel()]).all()
        _, u = solver.macroscopics()
        # drag: average fluid speed must fall below the initial uniform value
        speed = np.sqrt((u ** 2).sum(axis=0))[solver.fluid]
        assert speed.mean() < 0.03

    def test_3d_smoke(self):
        solver = DenseLBM(D3Q19, (8, 8, 8), omega=1.0,
                          bc=DomainBC({"z+": FaceBC("moving", velocity=(0.03, 0, 0))}))
        solver.run(5)
        assert np.isfinite(solver.f).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DenseLBM(D2Q9, (8, 8, 8), omega=1.0)
        with pytest.raises(ValueError):
            DenseLBM(D2Q9, (8, 8), omega=1.0, solid=np.zeros((4, 4), dtype=bool))


class TestCrossValidation:
    """The refined engine against an independent uniform-fine solution."""

    def test_refined_cavity_matches_dense_fine(self):
        # two-level 12^2->24^2 cavity vs an independent 24^2 uniform run,
        # compared on the fine level's own cells after the same physical time
        H = 12
        lid = (0.08, 0.0)
        nu = 0.06  # coarse-lattice units
        from repro.grid.geometry import wall_refinement
        bc = DomainBC({"y+": FaceBC("moving", velocity=lid)})
        spec = RefinementSpec((H, H), wall_refinement((H, H), 2, [3.0]), bc=bc)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=nu)
        steps = 120
        sim.run(steps)

        omega_fine = omega_at_level(omega_from_viscosity(nu), 1)
        dense = DenseLBM(D2Q9, (2 * H, 2 * H), omega=omega_fine, bc=bc)
        dense.run(2 * steps)  # fine time steps
        _, u_dense = dense.macroscopics()

        _, u = sim.macroscopics(1)
        pos = sim.positions(1)
        diff = u - u_dense[:, pos[:, 0], pos[:, 1]]
        assert np.abs(diff).max() / lid[0] < 0.08

    @staticmethod
    def engine_vs_dense(shape, bc, omega, steps, dtype):
        spec = RefinementSpec(shape, bc=bc)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     omega0=omega, dtype=dtype)
        sim.run(steps)
        dense = DenseLBM(D2Q9, shape, omega=omega, bc=bc)
        dense.run(steps)
        _, u_sim = sim.macroscopics(0)
        _, u_dense = dense.macroscopics()
        pos = sim.positions(0)
        return np.abs(u_sim - u_dense[:, pos[:, 0], pos[:, 1]]).max()

    LID = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
    OUTFLOW = DomainBC({"x-": FaceBC("inlet", velocity=(0.04, 0.0)),
                        "x+": FaceBC("outflow")})

    def test_uniform_engine_matches_dense_exactly(self):
        # with one level the engine and the dense solver are two independent
        # implementations of the same discrete system: results must agree to
        # machine precision
        assert self.engine_vs_dense((10, 10), self.LID, 1.25, 20, "float64") < 1e-13

    def test_uniform_engine_matches_dense_with_outflow(self):
        assert self.engine_vs_dense((12, 10), self.OUTFLOW, 1.1, 15, "float64") < 1e-13

    @pytest.mark.parametrize("case", ["lid", "outflow"])
    def test_uniform_engine_matches_dense_float32(self, case):
        # the float32 engine against the float64 dense solver: the same
        # discrete system, the engine rounding every population to float32
        # each step (reads 1.3 and 0.7 eps of float32 on u)
        shape, bc, omega, steps = {"lid": ((10, 10), self.LID, 1.25, 20),
                                   "outflow": ((12, 10), self.OUTFLOW, 1.1, 15)}[case]
        assert self.engine_vs_dense(shape, bc, omega, steps, "float32") <= (
            8 * np.finfo(np.float32).eps)

    def test_taylor_green_decay_agreement(self):
        # independent implementations agree on the measured decay rate
        L, nu, u0 = 24, 0.03, 0.02
        dense = DenseLBM(D2Q9, (L, L), omega=omega_from_viscosity(nu),
                         bc=PERIODIC_2D)
        dense.initialize(u=lambda c: taylor_green_2d(c, 0.0, nu, u0, (L, L)))
        e0 = (dense.macroscopics()[1] ** 2).sum()
        dense.run(100)
        e1 = (dense.macroscopics()[1] ** 2).sum()
        rate = -np.log(e1 / e0) / 100.0
        assert rate == pytest.approx(taylor_green_decay_rate(nu, (L, L)), rel=0.03)
