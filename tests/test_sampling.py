"""Field sampling, composite resampling, probes and snapshots."""

import numpy as np
import pytest

from repro.core.simulation import Simulation
from repro.grid.geometry import Sphere, shell_refinement, voxelize, wall_refinement
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec
from repro.io.sampling import (centerline_profile, composite_fields, level_dense,
                               load_snapshot, plane_slice, save_snapshot)
from repro.io.tables import format_table


@pytest.fixture(scope="module")
def sim():
    bc = DomainBC({"y+": FaceBC("moving", velocity=(0.06, 0.0))})
    spec = RefinementSpec((16, 16), wall_refinement((16, 16), 2, [3.0]), bc=bc)
    s = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                               viscosity=0.05)
    s.run(30)
    return s


class TestLevelDense:
    def test_nan_outside_owned(self, sim):
        rho0, u0 = level_dense(sim, 0)
        assert rho0.shape == (16, 16)
        assert u0.shape == (2, 16, 16)
        # the coarse level owns the centre, not the wall band
        assert np.isnan(rho0[0, 0])
        assert not np.isnan(rho0[8, 8])

    def test_values_match_macroscopics(self, sim):
        rho1, _ = level_dense(sim, 1)
        rho, _ = sim.macroscopics(1)
        pos = sim.positions(1)
        assert np.allclose(rho1[tuple(pos.T)], rho)


class TestComposite:
    def test_full_coverage(self, sim):
        rho, u = composite_fields(sim)
        assert rho.shape == (32, 32)
        assert not np.isnan(rho).any()
        assert not np.isnan(u).any()

    def test_coarse_cells_become_constant_blocks(self, sim):
        rho, _ = composite_fields(sim)
        # centre of the domain is coarse-owned: 2x2 fine blocks are constant
        block = rho[16:18, 16:18]
        assert np.ptp(block) == 0.0

    def test_solid_cells_remain_nan(self):
        sphere = Sphere((8.0, 8.0), 2.0)
        base = (16, 16)
        spec = RefinementSpec(base, shell_refinement(sphere, base, 2, [4.0]),
                              solid=voxelize(sphere, (32, 32), 1))
        s = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                   viscosity=0.05)
        rho, _ = composite_fields(s)
        assert np.isnan(rho[16, 16])       # sphere centre
        assert not np.isnan(rho[2, 2])     # far-field fluid


class TestProbes:
    def test_centerline_profile_shape(self, sim):
        y, u = centerline_profile(sim, axis=1, component=0)
        assert y.shape == u.shape == (32,)
        assert y[0] == pytest.approx(0.5 / 32)
        assert y[-1] == pytest.approx(31.5 / 32)

    def test_lid_drives_positive_u_near_top(self, sim):
        y, u = centerline_profile(sim, axis=1, component=0)
        assert u[-1] > 0.0
        assert abs(u[0]) < u[-1]

    def test_plane_slice(self, sim):
        rho, speed = plane_slice(sim, axis=0, position=0.5)
        assert rho.shape == (32,)
        assert (speed >= 0).all()

    def test_plane_slice_clamps_position(self, sim):
        rho, _ = plane_slice(sim, axis=1, position=1.5)
        assert rho.shape == (32,)


class TestSnapshots:
    def test_roundtrip(self, sim, tmp_path):
        path = str(tmp_path / "snap.npz")
        save_snapshot(sim, path)
        data = load_snapshot(path)
        assert data["steps"] == sim.steps_done
        assert data["rho"].shape == (32, 32)
        assert data["u"].shape == (2, 32, 32)
        assert data["active_per_level"].tolist() == sim.mgrid.active_per_level()
        rho, _ = composite_fields(sim)
        assert np.allclose(data["rho"], rho)


class TestTables:
    def test_format_alignment(self):
        out = format_table(["name", "mlups"], [["ours", 1805.03], ["base", 1299.7]],
                           title="Table I")
        lines = out.splitlines()
        assert lines[0] == "Table I"
        assert "1805.03" in out and "1299.70" in out

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out

    def test_floatfmt(self):
        out = format_table(["x"], [[1.23456]], floatfmt="{:.4f}")
        assert "1.2346" in out
