"""The central correctness claim: every fusion variant of Fig. 4 computes
bit-identical physics; only the kernel schedule changes (Section IV)."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.collision as collision_mod
import repro.core.engine as engine_mod
from repro.core.fusion import (ABLATION_CONFIGS, FUSE_CA, FUSED_FULL,
                               MODIFIED_BASELINE, ORIGINAL_BASELINE, FusionConfig,
                               get_config)
from repro.core.lattice import D2Q9
from repro.core.simulation import Simulation
from repro.grid.geometry import Sphere, shell_refinement, voxelize, wall_refinement
from repro.grid.multigrid import (DomainBC, FaceBC, RefinementSpec,
                                  _face_names, _validate_spec, build_multigrid)

from .test_multigrid import random_specs

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


# -- executors x fusion configs over random topologies ---------------------------

#: How a step is executed; every config must agree across all three.
EXECUTORS = {"interpreted": dict(backend="interpreted", threaded=False),
             "compiled": dict(backend="compiled", threaded=False),
             "threaded": dict(backend="compiled", threaded=True)}

#: Cell-range parts of each collide / stream body, the size floor removed
#: (DESIGN.md, "Cell-range split"): unsplit, and up to three parts.
SPLITS = (1, 3)

#: 10 random topologies locally; ``--hypothesis-profile ci`` spends its 200.
executor_budget = (settings.get_profile("ci")
                   if settings.get_current_profile_name() == "ci"
                   else settings(max_examples=10, deadline=None))


def swirl(base, amplitude=5e-4):
    """A smooth, divergence-free start, so no example idles at rest.

    Small on purpose: the volume-based interface conserves mass only up
    to the density variation it averages over, and at this amplitude a
    correct step drifts by at most a few 1e-6 of the total.
    """
    def u(centers):
        x = 2 * np.pi * centers / np.asarray(base)
        out = np.zeros((len(base), len(centers)))
        out[0] = amplitude * np.sin(x[:, 0]) * np.cos(x[:, 1])
        out[1] = -amplitude * np.cos(x[:, 0]) * np.sin(x[:, 1])
        return out
    return u


#: Relative mass change per step a closed single-level domain may show:
#: none but round-off.  float64 reads well under 1e-12; float32 collides
#: conserve a cell's mass to a few ulps and the cells' errors partly cancel
#: (the mass is summed in float64, so the reading is the state's).
SINGLE_LEVEL_DRIFT = {"float64": 1e-12, "float32": 16 * np.finfo(np.float32).eps}


def assert_executors_and_configs_agree(spec, lattice, steps=3, dtype="float64"):
    closed = all(spec.bc.face(name).kind in ("wall", "slip", "periodic")
                 for name in _face_names(spec.d))
    state = None
    for cfg in (ORIGINAL_BASELINE, MODIFIED_BASELINE, FUSED_FULL):
        trace = None
        for (executor, how), parts in itertools.product(EXECUTORS.items(), SPLITS):
            # the split on 64-column tiles, so small levels split too
            with mock.patch.object(engine_mod, "SPLIT_MIN_BYTES", 0), \
                    mock.patch.object(collision_mod, "TILE_BUDGET_BYTES", 0), \
                    mock.patch.object(engine_mod, "usable_cpus", lambda: parts), \
                    Simulation.from_config(spec, lattice=lattice, viscosity=0.05,
                                           fusion=cfg, dtype=dtype, **how) as sim:
                sim.initialize(u=swirl(spec.base_shape))
                mass = [sim.engine.total_mass()]
                for _ in range(steps):
                    sim.run(1)
                    mass.append(sim.engine.total_mass())
                got = [a.copy() for b in sim.engine.levels
                       for a in (b.f, b.ghost_acc)]
                ran = (list(sim.runtime.records), list(sim.runtime.markers))
            where = f"{cfg.name} / {executor} / {parts} part(s)"
            state = state or got
            assert all(np.array_equal(a, b) for a, b in zip(state, got)), where
            trace = trace or ran
            assert ran == trace, where
            if closed:
                drift = max(abs(b - a) / a for a, b in zip(mass, mass[1:]))
                assert drift <= (1e-5 if spec.num_levels > 1
                                 else SINGLE_LEVEL_DRIFT[dtype]), where


@executor_budget
@given(random_specs(), st.sampled_from(sorted(SINGLE_LEVEL_DRIFT)))
def test_random_topologies_agree_across_executors_and_configs(spec, dtype):
    lattice = "D2Q9" if spec.d == 2 else "D3Q19"
    try:
        _validate_spec(spec)
    except ValueError:
        assume(False)
    assert_executors_and_configs_agree(spec, lattice, dtype=dtype)


def test_solid_among_a_ghost_cells_children_is_refused():
    # Shrunk by the property above.  Through the periodic seam the coarse
    # column y=0 is a ghost layer, and one of its children is solid:
    # Accumulate would sum a cell that does not exist.  Validation names
    # the cell (the engine used to die linking the levels).
    region = np.zeros((5, 5), dtype=bool)
    region[:, :4] = True
    solid = np.zeros((10, 10), dtype=bool)
    solid[0, 1] = True
    bc = DomainBC({"y-": FaceBC("periodic"), "y+": FaceBC("periodic")})
    spec = RefinementSpec((5, 5), [region], solid=solid, bc=bc, block_size=2)
    with pytest.raises(ValueError, match=r"solid cell \(0, 1\) is a child of "
                                         r"level 0's coarse ghost cell \(0, 0\)"):
        build_multigrid(spec, D2Q9)
