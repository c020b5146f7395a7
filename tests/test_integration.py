"""Cross-cutting integration matrix: every lattice x collision x config
combination drives a real multi-level simulation end-to-end."""

import dataclasses

import numpy as np
import pytest

from repro.core.fusion import FUSED_FULL, MODIFIED_BASELINE, ORIGINAL_BASELINE
from repro.core.simulation import Simulation
from repro.grid.geometry import wall_refinement
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec


def cavity_spec(d, base=16, levels=2):
    shape = (base,) * d
    lid_axis = f"{'xyz'[d - 1]}+"
    vel = tuple([0.05] + [0.0] * (d - 1))
    widths = [3.0] if levels == 2 else [5.0, 1.8]
    return RefinementSpec(shape, wall_refinement(shape, levels, widths),
                          bc=DomainBC({lid_axis: FaceBC("moving", velocity=vel)}))


MATRIX = [
    ("D2Q9", "bgk"), ("D2Q9", "trt"), ("D2Q9", "kbc"),
    ("D3Q19", "bgk"), ("D3Q19", "trt"),
    ("D3Q27", "bgk"), ("D3Q27", "trt"), ("D3Q27", "kbc"),
]


@pytest.mark.parametrize("lattice,collision", MATRIX)
def test_lattice_collision_matrix(lattice, collision):
    d = 2 if lattice == "D2Q9" else 3
    sim = Simulation.from_config(cavity_spec(d, base=12 if d == 3 else 16),
                                 lattice=lattice, collision=collision,
                                 viscosity=0.05)
    m0 = sim.engine.total_mass()
    sim.run(4)
    assert sim.is_stable()
    assert abs(sim.engine.total_mass() - m0) / m0 < 1e-4
    assert 0.0 < sim.max_velocity() < 0.2


@pytest.mark.parametrize("lattice,collision", [("D2Q9", "trt"), ("D3Q19", "bgk")])
def test_variant_equivalence_holds_for_every_collision(lattice, collision):
    d = 2 if lattice == "D2Q9" else 3
    spec = cavity_spec(d, base=12 if d == 3 else 16)
    states = []
    for cfg in (ORIGINAL_BASELINE, MODIFIED_BASELINE, FUSED_FULL):
        sim = Simulation.from_config(spec, lattice=lattice,
                                     collision=collision, viscosity=0.05,
                                     fusion=cfg)
        sim.run(3)
        states.append(np.concatenate([b.f[:, :b.n_owned].ravel()
                                      for b in sim.engine.levels]))
    assert np.array_equal(states[0], states[1])
    assert np.array_equal(states[1], states[2])


def test_four_level_stack():
    """Deep hierarchies exercise the recursion: 2^3 = 8 finest substeps."""
    spec = cavity_spec(2, base=24, levels=2)
    regions = wall_refinement((24, 24), 4, [9.0, 4.0, 1.6])
    spec = dataclasses.replace(spec, refine_regions=regions)
    sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                 viscosity=0.05)
    assert sim.num_levels == 4
    sim.run(2)
    assert sim.is_stable()
    # finest level ran 8 substeps per coarse step: count CASE launches
    case = [r for r in sim.runtime.records if r.name == "CASE"]
    assert len(case) == 2 * 8


@pytest.mark.parametrize("block_size", [2, 4, 8])
def test_block_size_invariance(block_size):
    """Physics must not depend on the memory-block size (Section V-B)."""
    spec = dataclasses.replace(cavity_spec(2), block_size=block_size)
    sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                 viscosity=0.05)
    sim.run(5)
    rho, u = sim.macroscopics(1)
    key = (float(rho.sum()), float(np.abs(u).sum()))
    spec4 = dataclasses.replace(cavity_spec(2), block_size=4)
    ref = Simulation.from_config(spec4, lattice="D2Q9", collision="bgk",
                                 viscosity=0.05)
    ref.run(5)
    rho_r, u_r = ref.macroscopics(1)
    assert key[0] == pytest.approx(float(rho_r.sum()), rel=1e-12)
    assert key[1] == pytest.approx(float(np.abs(u_r).sum()), rel=1e-12)


@pytest.mark.parametrize("curve", ["sweep", "morton", "hilbert"])
def test_curve_invariance(curve):
    """Physics must not depend on the block ordering (Section V-A)."""
    spec = dataclasses.replace(cavity_spec(2), curve=curve)
    sim = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                 viscosity=0.05)
    sim.run(5)
    rho, _ = sim.macroscopics(0)
    assert rho.sum() == pytest.approx(sim.mgrid.levels[0].n_owned, rel=1e-3)
    pos = sim.positions(0)
    order = np.lexsort(pos.T)
    spec_ref = dataclasses.replace(cavity_spec(2), curve="morton")
    ref = Simulation.from_config(spec_ref, lattice="D2Q9", collision="bgk",
                                 viscosity=0.05)
    ref.run(5)
    rho_ref, _ = ref.macroscopics(0)
    order_ref = np.lexsort(ref.positions(0).T)
    assert np.allclose(rho[order], rho_ref[order_ref], atol=1e-13)


def test_mixed_bc_wind_tunnel_with_slip_walls():
    """Half-model tunnel: inlet, outflow, slip sides — a realistic setup."""
    _slip_wind_tunnel("float64", 1e-10)


def test_mixed_bc_wind_tunnel_with_slip_walls_float32():
    # the uniform stream survives the slip sides, the inlet and the
    # interface to float32 round-off of its moments (reads 0.45 eps)
    _slip_wind_tunnel("float32", 4 * np.finfo(np.float32).eps)


def _slip_wind_tunnel(dtype, bound):
    bc = DomainBC({"x-": FaceBC("inlet", velocity=(0.04, 0.0, 0.0)),
                   "x+": FaceBC("outflow"),
                   "y-": FaceBC("slip"), "y+": FaceBC("slip"),
                   "z-": FaceBC("slip"), "z+": FaceBC("slip")})
    region = np.zeros((16, 8, 8), dtype=bool)
    region[4:10, 2:6, 2:6] = True
    spec = RefinementSpec((16, 8, 8), [region], bc=bc)
    sim = Simulation.from_config(spec, lattice="D3Q19", collision="bgk",
                                 viscosity=0.03, dtype=dtype)
    sim.initialize(u=np.array([0.04, 0.0, 0.0]))
    sim.run(2)
    assert sim.is_stable()
    # slip sides and the matched inlet are exact for a uniform stream; the
    # paper's weights-based outflow launches a pressure wave, which after
    # two steps has reached at most ~2 cells upstream of the outlet
    for lv in range(2):
        _, u = sim.macroscopics(lv)
        pos = sim.positions(lv)
        interior = pos[:, 0] < 12 * 2 ** lv
        assert np.abs(u[0, interior] - 0.04).max() < bound
        assert np.abs(u[1:, interior]).max() < bound
    sim.run(20)  # and the perturbed flow stays stable long-term
    assert sim.is_stable()


def test_long_run_remains_bounded():
    sim = Simulation.from_config(cavity_spec(2), lattice="D2Q9",
                                 collision="bgk", viscosity=0.02)
    sim.run(300)
    assert sim.is_stable()
    assert sim.max_velocity() < 0.15
    rho, _ = sim.macroscopics(0)
    assert abs(rho.mean() - 1.0) < 0.01
