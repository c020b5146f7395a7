"""Workload builders, the measurement harness and trace extrapolation."""

import pytest

from repro.bench.harness import default_concurrency, full_scale_mlups, measure
from repro.bench.model import level_factors, scale_trace
from repro.bench.workloads import (TABLE1_DISTRIBUTIONS, TABLE1_SIZES,
                                   airplane_tunnel, lid_cavity, sphere_tunnel)
from repro.core.fusion import FUSED_FULL, MODIFIED_BASELINE, ORIGINAL_BASELINE
from repro.core.simulation import Simulation
from repro.neon.runtime import KernelRecord


class TestWorkloads:
    def test_cavity_builds_and_runs(self):
        wl = lid_cavity(base=(12, 12), num_levels=2, lattice="D2Q9")
        sim = Simulation.from_config(wl.spec, lattice=wl.lattice,
                                     collision=wl.collision,
                                     viscosity=wl.viscosity)
        sim.run(2)
        assert sim.is_stable()

    def test_cavity_reynolds(self):
        wl = lid_cavity(base=(24, 24, 24), num_levels=3)
        assert wl.viscosity == pytest.approx(wl.char_velocity * 24 / 100.0)

    def test_cavity_finest_shape(self):
        wl = lid_cavity(base=(24, 24, 24), num_levels=3)
        assert wl.finest_shape() == (96, 96, 96)

    def test_sphere_tunnel_scaled(self):
        wl = sphere_tunnel(scale=0.125)
        sim = Simulation.from_config(wl.spec, lattice=wl.lattice,
                                     collision=wl.collision,
                                     viscosity=wl.viscosity)
        sim.run(2)
        assert sim.is_stable()
        assert sim.num_levels == 3
        assert wl.spec.solid.any()

    def test_sphere_tunnel_has_inlet_outflow(self):
        wl = sphere_tunnel(scale=0.125)
        assert wl.spec.bc.face("x-").kind == "inlet"
        assert wl.spec.bc.face("x+").kind == "outflow"

    def test_airplane_tunnel_scaled(self):
        wl = airplane_tunnel(scale=0.06, num_levels=3)
        sim = Simulation.from_config(wl.spec, lattice=wl.lattice,
                                     collision=wl.collision,
                                     viscosity=wl.viscosity)
        sim.run(1)
        assert sim.is_stable()

    def test_table1_constants(self):
        assert len(TABLE1_SIZES) == len(TABLE1_DISTRIBUTIONS) == 3
        for dist in TABLE1_DISTRIBUTIONS:
            assert dist[0] > dist[1] > dist[2]  # finest level dominates


class TestMeasure:
    @pytest.fixture(scope="class")
    def wl(self):
        return sphere_tunnel(scale=0.125)

    def test_measurement_fields(self, wl):
        m = measure(wl, MODIFIED_BASELINE, steps=2, warmup=1)
        assert m.steps == 2
        assert m.metrics["wall_mlups"] > 0
        assert m.metrics["sim_mlups"] > 0
        assert m.metrics["kernels_per_step"] == m.cost.kernels / m.steps > 0
        assert len(m.trace) == m.cost.kernels

    def test_fused_beats_baseline_in_model(self, wl):
        mb = measure(wl, MODIFIED_BASELINE, steps=2)
        mo = measure(wl, FUSED_FULL, steps=2)
        for name in ("kernels_per_step", "bytes_per_step"):
            assert mo.metrics[name] < mb.metrics[name]
        assert mo.metrics["sim_mlups"] > mb.metrics["sim_mlups"]

    def test_default_concurrency_policy(self):
        assert not default_concurrency(MODIFIED_BASELINE)
        assert not default_concurrency(ORIGINAL_BASELINE)
        assert default_concurrency(FUSED_FULL)

    def test_table1_shape_reproduced(self, wl):
        """The headline Table-I result: 1.3-2.3x speedup, decaying with size."""
        mb = measure(wl, MODIFIED_BASELINE, steps=2)
        mo = measure(wl, FUSED_FULL, steps=2)
        speedups = []
        for dist in TABLE1_DISTRIBUTIONS:
            fb, _ = full_scale_mlups(mb, list(dist))
            fo, _ = full_scale_mlups(mo, list(dist))
            speedups.append(fo / fb)
        assert 1.8 <= speedups[0] <= 2.6    # paper: 2.20 on 272x192x272
        assert 1.2 <= speedups[2] <= 1.7    # paper: 1.30 on 816x576x816
        assert speedups[0] > speedups[1] > speedups[2]

    def test_full_scale_level_mismatch(self, wl):
        m = measure(wl, FUSED_FULL, steps=1)
        with pytest.raises(ValueError):
            full_scale_mlups(m, [1e6, 2e6])


class TestScaleTrace:
    def test_level_factors(self):
        vol, area = level_factors([100, 800], [800.0, 6400.0], d=3)
        assert vol == [8.0, 8.0]
        assert area[0] == pytest.approx(4.0)

    def test_bulk_scales_by_volume(self):
        rec = KernelRecord("C", 0, 100, 1000, 1000, (), ())
        out = scale_trace([rec], [8.0], [4.0])[0]
        assert out.n_cells == 800
        assert out.bytes_read == 8000

    def test_interface_scales_by_area(self):
        rec = KernelRecord("E", 1, 100, 1000, 1000, (), ())
        out = scale_trace([rec], [8.0, 8.0], [4.0, 4.0])[0]
        assert out.n_cells == 400

    def test_atomic_bytes_scale_by_area_inside_bulk(self):
        rec = KernelRecord("CA", 1, 100, 1000, 1100, (), (), atomic_bytes=100)
        out = scale_trace([rec], [8.0, 8.0], [4.0, 4.0])[0]
        assert out.atomic_bytes == 400
        assert out.bytes_written == 1000 * 8 + 400

    def test_unknown_kernel_rejected(self):
        rec = KernelRecord("Z", 0, 1, 1, 1, (), ())
        with pytest.raises(KeyError):
            scale_trace([rec], [1.0], [1.0])

    def test_launch_count_preserved(self):
        recs = [KernelRecord("C", 0, 10, 10, 10, (), ()) for _ in range(5)]
        assert len(scale_trace(recs, [2.0], [2.0])) == 5
