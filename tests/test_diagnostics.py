"""Free-slip boundaries, obstacle forces and checkpointing."""

import numpy as np
import pytest

from repro.bench.workloads import SMALL_WORKLOADS, lid_cavity, sphere_tunnel
from repro.core.diagnostics import (drag_coefficient, enstrophy_2d, kinetic_energy,
                                    solid_force)
from repro.core.fusion import FUSED_FULL, MODIFIED_BASELINE, ORIGINAL_BASELINE
from repro.core.simulation import Simulation
from repro.grid.geometry import Sphere, shell_refinement, voxelize
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec
from repro.io.checkpoint import restore_checkpoint, save_checkpoint
from repro.obs.metrics import run_metrics

from .test_multigrid import ref_compile


def sphere_spec(radius=1.6):
    sphere = Sphere((6.0, 5.0, 5.0), radius)
    base = (14, 10, 10)
    regions = shell_refinement(sphere, base, 2, [3.2])
    solid = voxelize(sphere, (28, 20, 20), 1)
    bc = DomainBC({"x-": FaceBC("inlet", velocity=(0.05, 0.0, 0.0)),
                   "x+": FaceBC("outflow")})
    return RefinementSpec(base, regions, solid=solid, bc=bc), sphere


class TestSlipBoundary:
    def channel(self, top_kind, dtype="float32"):
        bc = DomainBC({"x-": FaceBC("periodic"), "x+": FaceBC("periodic"),
                       "y-": FaceBC(top_kind) if top_kind == "slip" else FaceBC("wall"),
                       "y+": FaceBC(top_kind)})
        spec = RefinementSpec((12, 12), bc=bc)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.1, dtype=dtype)
        return sim

    def test_classification_contains_slip(self):
        sim = self.channel("slip")
        lv = sim.engine.mgrid.levels[0]
        a = ref_compile(sim.mgrid.spec, sim.lattice)[0]
        assert a["sl_q"].size > 0
        # folded into the pull table: the mirrored direction is read
        assert (lv.pull_flat[a["sl_q"], a["sl_cell"]] // lv.n_owned == a["sl_src_q"]).all()

    @staticmethod
    def plug_flow_error(dtype):
        bc = DomainBC({"x-": FaceBC("periodic"), "x+": FaceBC("periodic"),
                       "y-": FaceBC("slip"), "y+": FaceBC("slip")})
        spec = RefinementSpec((12, 12), bc=bc)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.1, dtype=dtype)
        sim.initialize(u=np.array([0.04, 0.0]))
        sim.run(20)
        _, u = sim.macroscopics(0)
        return np.abs(u[0] - 0.04).max(), np.abs(u[1]).max()

    def test_plug_flow_preserved_exactly(self):
        # free-slip walls exert no tangential stress: a uniform stream
        # through a slip channel must persist to machine precision
        assert max(self.plug_flow_error("float64")) < 1e-13

    def test_plug_flow_preserved_exactly_float32(self):
        # the float32 twin: the plug persists to float32 round-off of its
        # moments (reads 0.15 eps on u_x, 0 on u_y)
        assert max(self.plug_flow_error("float32")) <= 4 * np.finfo(np.float32).eps

    def test_noslip_decays_plug_flow(self):
        sim = self.channel("wall")
        sim.initialize(u=np.array([0.04, 0.0]))
        sim.run(20)
        _, u = sim.macroscopics(0)
        assert u[0].min() < 0.035  # boundary layer developed

    def test_slip_conserves_mass(self):
        sim = self.channel("slip", dtype="float64")
        sim.initialize(u=np.array([0.03, 0.01]))
        m0 = sim.engine.total_mass()
        sim.run(30)
        assert sim.engine.total_mass() == pytest.approx(m0, rel=1e-12)

    def test_slip_conserves_mass_float32(self):
        # the slip fold is a permutation, so only the float32 collides move
        # the mass, by a few ulps a cell and step, and the errors partly
        # cancel (reads 17.6 eps after 30 steps; summed in float64)
        sim = self.channel("slip")
        sim.initialize(u=np.array([0.03, 0.01]))
        m0 = sim.engine.total_mass()
        sim.run(30)
        assert sim.engine.total_mass() == pytest.approx(
            m0, rel=64 * np.finfo(np.float32).eps)

    def test_slip_reflects_normal_momentum(self):
        # normal velocity flips at the plane: a vertical stream in a
        # slip-walled closed box keeps |u| but reverses u_y over time
        bc = DomainBC({"y-": FaceBC("slip"), "y+": FaceBC("slip"),
                       "x-": FaceBC("periodic"), "x+": FaceBC("periodic")})
        spec = RefinementSpec((8, 8), bc=bc)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.2)
        sim.initialize(u=np.array([0.0, 0.03]))
        sim.run(60)
        assert sim.is_stable()
        _, u = sim.macroscopics(0)
        assert np.abs(u[1]).max() < 0.03 + 1e-12


class TestSolidForce:
    def test_zero_without_solid(self):
        spec = RefinementSpec((8, 8, 8))
        sim = Simulation.from_config(spec, lattice="D3Q19", collision="bgk",
                                     viscosity=0.05)
        sim.run(2)
        assert np.allclose(solid_force(sim.engine), 0.0)

    def test_zero_in_still_fluid(self):
        spec, _ = sphere_spec()
        bc_still = DomainBC()  # all resting walls
        spec_still = RefinementSpec(spec.base_shape, spec.refine_regions,
                                    solid=spec.solid, bc=bc_still)
        sim = Simulation.from_config(spec_still, lattice="D3Q19",
                                     collision="bgk", viscosity=0.05)
        sim.run(3)
        assert np.abs(solid_force(sim.engine)).max() < 1e-12

    def test_drag_points_downstream(self):
        spec, sphere = sphere_spec()
        sim = Simulation.from_config(spec, lattice="D3Q19", collision="bgk",
                                     viscosity=0.02)
        sim.run(40)
        fx, fy, fz = solid_force(sim.engine)
        assert fx > 0.0                      # drag along the inlet flow
        assert abs(fy) < 0.3 * fx            # lateral symmetry
        assert abs(fz) < 0.3 * fx

    def test_drag_coefficient_plausible(self):
        spec, sphere = sphere_spec()
        sim = Simulation.from_config(spec, lattice="D3Q19", collision="bgk",
                                     viscosity=0.02)
        sim.run(60)
        fx = solid_force(sim.engine)[0]
        area = np.pi * (2 * sphere.radius) ** 2  # frontal area, fine units R*2
        cd = drag_coefficient(fx, 1.0, 0.05, area)
        assert 0.1 < cd < 30.0  # moderate-Re sphere: O(1-10)

    def test_the_bounced_populations_sit_in_f(self):
        # the bounce-back pull puts the post-collision value of opp q at
        # each solid link's cell into f[q] (shown by streaming one level
        # once more), so solid_force reads f on every level and config
        from .test_engine import run_op
        wl = sphere_tunnel(scale=0.25)
        forces = {}
        for cfg in (ORIGINAL_BASELINE, MODIFIED_BASELINE, FUSED_FULL):
            with Simulation.from_config(wl.spec, wl.sim_config(fusion=cfg)) as sim:
                sim.run(5)
                forces[cfg.name] = solid_force(sim.engine)
        opp = sim.lattice.opp
        links = 0
        for lv, (cl, buf) in enumerate(zip(sim.mgrid.levels, sim.engine.levels)):
            links += cl.sb_q.size
            post = buf.f.copy()
            run_op(sim.engine.op_stream, lv)
            assert np.array_equal(buf.f[cl.sb_q, cl.sb_cell],
                                  post[opp[cl.sb_q], cl.sb_cell])
        assert links > 0
        assert np.abs(forces["baseline-4b"]).max() > 0
        for force in forces.values():
            assert np.array_equal(force, forces["baseline-4b"])

    def test_drag_coefficient_validation(self):
        with pytest.raises(ValueError):
            drag_coefficient(1.0, 1.0, 0.0, 1.0)


class TestEnergyDiagnostics:
    def test_kinetic_energy_of_uniform_flow(self):
        spec = RefinementSpec((8, 8))
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.1)
        sim.initialize(u=np.array([0.02, 0.0]))
        e = kinetic_energy(sim.engine)
        assert e == pytest.approx(0.5 * 64 * 0.02 ** 2, rel=1e-3)

    def test_enstrophy_positive_for_shear(self):
        bc = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
        spec = RefinementSpec((12, 12), bc=bc)
        sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                     viscosity=0.1)
        sim.run(30)
        assert enstrophy_2d(sim) > 0.0

    def test_enstrophy_needs_2d(self):
        spec = RefinementSpec((6, 6, 6))
        sim = Simulation.from_config(spec, lattice="D3Q19", collision="bgk",
                                     viscosity=0.1)
        with pytest.raises(ValueError):
            enstrophy_2d(sim)


class TestCheckpoint:
    def make(self):
        spec, _ = sphere_spec()
        return Simulation.from_config(spec, lattice="D3Q19", collision="bgk",
                                      viscosity=0.03)

    def test_bitwise_resume(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        a = self.make()
        a.run(4)
        save_checkpoint(a, path)
        a.run(3)

        b = self.make()
        restore_checkpoint(b, path)
        assert b.steps_done == 4
        b.run(3)
        for la, lb in zip(a.engine.levels, b.engine.levels):
            assert np.array_equal(la.f, lb.f)

    def test_restore_rebases_the_wall_clock(self, tmp_path):
        # the wall MLUPS after a restore is the rate of the steps run since
        wl = lid_cavity(**SMALL_WORKLOADS["cavity2d-2lvl"])
        path = str(tmp_path / "ck.npz")
        with Simulation.from_config(wl.spec, wl.sim_config(
                backend="compiled")) as sim:
            sim.run(2)
            save_checkpoint(sim, path)
            sim.run(20)
            restore_checkpoint(sim, path)
            run = sim.run(5)
            assert run_metrics(sim)["wall_mlups"] == pytest.approx(run.mlups)

    def test_structural_validation(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        a = self.make()
        save_checkpoint(a, path)
        other = Simulation.from_config(RefinementSpec((8, 8, 8)),
                                       lattice="D3Q19", collision="bgk",
                                       viscosity=0.03)
        with pytest.raises(ValueError):
            restore_checkpoint(other, path)

    def test_lattice_validation(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        spec = RefinementSpec((8, 8, 8))
        a = Simulation.from_config(spec, lattice="D3Q19", collision="bgk",
                                   viscosity=0.03)
        save_checkpoint(a, path)
        b = Simulation.from_config(spec, lattice="D3Q27", collision="bgk",
                                   viscosity=0.03)
        with pytest.raises(ValueError, match="lattice"):
            restore_checkpoint(b, path)

    def test_base_shape_validation(self, tmp_path):
        # A transposed domain has identical per-level cell counts and
        # buffer shapes, so it used to restore silently — the stored
        # base_shape must be checked, not just the derived censuses.
        path = str(tmp_path / "ck.npz")
        a = Simulation.from_config(RefinementSpec((8, 12)), lattice="D2Q9",
                                   collision="bgk", viscosity=0.05)
        a.run(2)
        save_checkpoint(a, path)
        b = Simulation.from_config(RefinementSpec((12, 8)), lattice="D2Q9",
                                   collision="bgk", viscosity=0.05)
        assert b.mgrid.active_per_level() == a.mgrid.active_per_level()
        with pytest.raises(ValueError, match="base shape"):
            restore_checkpoint(b, path)

    def test_restore_rebases_metrics(self, tmp_path):
        from repro.obs.metrics import run_metrics

        path = str(tmp_path / "ck.npz")
        a = self.make()
        a.run(4)
        save_checkpoint(a, path)

        b = self.make()
        restore_checkpoint(b, path)
        # The 4 restored steps happened outside this runtime's trace:
        # metrics must report 0 traced steps, not inherit steps_done.
        assert run_metrics(b)["steps_total"] == 0
        assert b.runtime.steps_base == 4
        b.run(3)
        assert run_metrics(b)["steps_total"] == 3
