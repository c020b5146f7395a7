"""The central correctness claim: every fusion variant of Fig. 4 computes
bit-identical physics; only the kernel schedule changes (Section IV)."""

import numpy as np
import pytest

from repro.core.fusion import (ABLATION_CONFIGS, FUSE_CA, FUSED_FULL,
                               MODIFIED_BASELINE, ORIGINAL_BASELINE, FusionConfig,
                               get_config)
from repro.core.simulation import Simulation
from repro.grid.geometry import Sphere, shell_refinement, voxelize, wall_refinement
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec

ALL_CONFIGS = (ORIGINAL_BASELINE,) + tuple(ABLATION_CONFIGS)


def state_vector(sim):
    return np.concatenate([b.f[:, :b.n_owned].ravel() for b in sim.engine.levels])


def cavity_2d():
    base = (16, 16)
    bc = DomainBC({"y+": FaceBC("moving", velocity=(0.06, 0.0))})
    return RefinementSpec(base, wall_refinement(base, 2, [3.0]), bc=bc), "D2Q9", "bgk"


def cavity_2d_three_levels():
    base = (24, 24)
    bc = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
    return (RefinementSpec(base, wall_refinement(base, 3, [7.0, 2.0]), bc=bc),
            "D2Q9", "bgk")


def sphere_3d():
    sphere = Sphere((6.0, 5.0, 5.0), 1.3)
    base = (14, 10, 10)
    regions = shell_refinement(sphere, base, 2, [3.0])
    solid = voxelize(sphere, (28, 20, 20), 1)
    bc = DomainBC({"x-": FaceBC("inlet", velocity=(0.04, 0.0, 0.0)),
                   "x+": FaceBC("outflow")})
    return (RefinementSpec(base, regions, solid=solid, bc=bc), "D3Q27", "kbc")


@pytest.mark.parametrize("setup", [cavity_2d, cavity_2d_three_levels, sphere_3d],
                         ids=["cavity2d", "cavity2d-3lvl", "sphere3d-kbc"])
def test_all_variants_bitwise_identical(setup):
    spec, lattice, collision = setup()
    ref = None
    for cfg in ALL_CONFIGS:
        sim = Simulation.from_config(spec, lattice=lattice,
                                     collision=collision, viscosity=0.04,
                                     fusion=cfg)
        sim.run(6)
        state = state_vector(sim)
        assert np.isfinite(state).all(), cfg.name
        if ref is None:
            ref = state
        else:
            assert np.array_equal(state, ref), f"{cfg.name} diverged from reference"


def test_kernel_count_reduction_matches_fig2():
    # Paper: "around three times fewer kernels" for the fully fused variant.
    spec, lattice, collision = cavity_2d_three_levels()
    counts = {}
    for cfg in (MODIFIED_BASELINE, FUSED_FULL):
        sim = Simulation.from_config(spec, lattice=lattice,
                                     collision=collision, viscosity=0.04,
                                     fusion=cfg)
        sim.run(1)
        counts[cfg.name] = sim.runtime.launches()
    ratio = counts["baseline-4b"] / counts["ours-4f"]
    assert 2.5 <= ratio <= 3.5


def test_launch_counts_strictly_ordered():
    spec, lattice, collision = cavity_2d()
    launches = []
    for cfg in (ORIGINAL_BASELINE, MODIFIED_BASELINE, FUSE_CA, FUSED_FULL):
        sim = Simulation.from_config(spec, lattice=lattice,
                                     collision=collision, viscosity=0.04,
                                     fusion=cfg)
        sim.run(1)
        launches.append(sim.runtime.launches())
    assert launches == sorted(launches, reverse=True)
    assert len(set(launches)) == len(launches)


def test_fused_full_uses_case_kernel_on_finest_only():
    spec, lattice, collision = cavity_2d_three_levels()
    sim = Simulation.from_config(spec, lattice=lattice, collision=collision,
                                 viscosity=0.04, fusion=FUSED_FULL)
    sim.run(1)
    case = [r for r in sim.runtime.records if r.name == "CASE"]
    assert case and all(r.level == 2 for r in case)
    assert len(case) == 4  # finest level runs 2^2 substeps per coarse step


def test_original_baseline_uses_gather_accumulate_and_ghost_explosion():
    spec, lattice, collision = cavity_2d()
    sim = Simulation.from_config(spec, lattice=lattice, collision=collision,
                                 viscosity=0.04, fusion=ORIGINAL_BASELINE)
    sim.run(1)
    names = [r.name for r in sim.runtime.records]
    assert names.count("A") == 2      # gather per fine collision
    assert names.count("E") == 4      # ghost copy + explosion patch, per substep
    a_recs = [r for r in sim.runtime.records if r.name == "A"]
    assert all(r.atomic_bytes == 0 for r in a_recs)  # gather needs no atomics


def test_modified_baseline_accumulate_uses_atomics():
    spec, lattice, collision = cavity_2d()
    sim = Simulation.from_config(spec, lattice=lattice, collision=collision,
                                 viscosity=0.04, fusion=MODIFIED_BASELINE)
    sim.run(1)
    a_recs = [r for r in sim.runtime.records if r.name == "A"]
    assert a_recs and all(r.atomic_bytes > 0 for r in a_recs)


def test_bytes_per_step_decrease_with_fusion():
    spec, lattice, collision = cavity_2d_three_levels()
    totals = {}
    for cfg in (MODIFIED_BASELINE, FUSED_FULL):
        sim = Simulation.from_config(spec, lattice=lattice,
                                     collision=collision, viscosity=0.04,
                                     fusion=cfg)
        sim.run(2)
        totals[cfg.name] = sim.runtime.total_bytes()
    assert totals["ours-4f"] < 0.8 * totals["baseline-4b"]


class TestFusionConfigValidation:
    def test_original_cannot_fuse(self):
        with pytest.raises(ValueError, match="cannot fuse"):
            FusionConfig("bad", original_layout=True, fuse_ca=True)

    def test_case_requires_ca(self):
        with pytest.raises(ValueError, match="fuse_ca"):
            FusionConfig("bad", fuse_cs_finest=True)

    def test_get_config(self):
        assert get_config("ours-4f") is FUSED_FULL
        with pytest.raises(KeyError):
            get_config("nope")

    def test_ablation_order_baseline_first(self):
        assert ABLATION_CONFIGS[0] is MODIFIED_BASELINE
        assert ABLATION_CONFIGS[-1] is FUSED_FULL


def test_uniform_grid_supports_fused_cs():
    # single-level grids accept the CASE path too (plain fused collide-stream)
    spec = RefinementSpec((12, 12))
    a = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                               viscosity=0.04, fusion=MODIFIED_BASELINE)
    b = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                               viscosity=0.04, fusion=FUSED_FULL)
    for sim in (a, b):
        sim.initialize(u=lambda c: 0.01 * np.stack([np.sin(2 * np.pi * c[:, 1] / 12),
                                                    np.cos(2 * np.pi * c[:, 0] / 12)]))
        sim.run(4)
    assert np.array_equal(state_vector(a), state_vector(b))
    assert [r.name for r in b.runtime.records].count("CASE") == 4
