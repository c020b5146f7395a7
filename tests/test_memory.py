"""Memory footprint model (Section IV-A, Section VI-B, Fig. 1)."""

import pytest

from repro.core.lattice import D3Q19, D3Q27
from repro.grid.geometry import Sphere, shell_refinement, voxelize, wall_refinement
from repro.grid.multigrid import RefinementSpec, build_multigrid
from repro.gpu.device import A100_40GB
from repro.gpu.memory import (MemoryReport, grid_memory_report,
                              mc_level_counts, refined_memory_bytes,
                              uniform_aa_max_cube, uniform_memory_bytes)


@pytest.fixture(scope="module")
def mg():
    base = (16, 16, 16)
    spec = RefinementSpec(base, wall_refinement(base, 2, [3.0]))
    return build_multigrid(spec, D3Q19)


class TestGridReport:
    def test_population_bytes(self, mg):
        rep = grid_memory_report(mg, itemsize=8, scheme="optimized")
        expected = sum(lv.n_owned for lv in mg.levels) * 19 * 8 * 2
        assert rep.populations == expected

    def test_optimized_ghost_is_accumulator_only(self, mg):
        rep = grid_memory_report(mg, scheme="optimized")
        assert rep.ghost_populations == 0
        assert rep.ghost_accumulators == mg.levels[0].n_ghost * 19 * 8

    def test_original_ghost_is_population_copies(self, mg):
        rep = grid_memory_report(mg, scheme="original")
        assert rep.ghost_accumulators == 0
        assert rep.ghost_populations == mg.levels[1].fine_ghost_slots.size * 19 * 8 * 2

    def test_optimized_ghost_much_smaller(self, mg):
        # Section IV-A: the coarse-side ghost layer shrinks ghost storage by
        # a large factor (the paper quotes 3x counted in overlapped coarse
        # layers; exact cell-count accounting gives far more).
        optimized, original = (grid_memory_report(mg, scheme=s)
                               for s in ("optimized", "original"))
        assert optimized.ghost_accumulators * 3 <= original.ghost_populations

    def test_total_and_fits(self, mg):
        rep = grid_memory_report(mg)
        assert rep.total == (rep.populations + rep.ghost_accumulators
                             + rep.ghost_populations + rep.metadata)
        assert rep.fits(A100_40GB)

    def test_unknown_scheme(self, mg):
        with pytest.raises(ValueError):
            grid_memory_report(mg, scheme="aa")


class TestUniform:
    def test_uniform_bytes(self):
        assert uniform_memory_bytes((10, 10, 10), 19, 8, buffers=2) == 1000 * 19 * 16

    def test_aa_max_cube_matches_paper(self):
        # Section VI-B: "the largest feasible domain ... approximately 794^3"
        n = uniform_aa_max_cube(A100_40GB, q=19, itemsize=4)
        assert 780 <= n <= 810

    def test_aa_max_cube_double_precision(self):
        n = uniform_aa_max_cube(A100_40GB, q=19, itemsize=8)
        assert 600 <= n <= 660


class TestMonteCarloCounts:
    def test_matches_exact_voxelisation(self):
        sphere = Sphere((8.0, 8.0, 8.0), 2.0)
        base = (16, 16, 16)
        widths = [4.0]
        counts = mc_level_counts(sphere, base, widths, samples=400_000, seed=1)
        spec = RefinementSpec(base, shell_refinement(sphere, base, 2, widths),
                              solid=voxelize(sphere, (32, 32, 32), 1))
        mgrid = build_multigrid(spec, D3Q27)
        exact = mgrid.active_per_level()
        for lv in range(2):
            assert counts["owned"][lv] == pytest.approx(exact[lv], rel=0.08)

    def test_counts_structure(self):
        sphere = Sphere((8.0, 8.0, 8.0), 2.0)
        counts = mc_level_counts(sphere, (16, 16, 16), [5.0, 2.0], samples=100_000)
        assert len(counts["owned"]) == 3
        assert counts["ghost"][-1] == 0        # finest has no finer interface
        assert counts["fine_ghost"][0] == 0    # coarsest has no parent

    def test_deterministic_with_seed(self):
        sphere = Sphere((8.0, 8.0, 8.0), 2.0)
        a = mc_level_counts(sphere, (16, 16, 16), [4.0], samples=50_000, seed=3)
        b = mc_level_counts(sphere, (16, 16, 16), [4.0], samples=50_000, seed=3)
        assert a == b


class TestRefinedMemoryBytes:
    def test_fig1_airplane_capability(self):
        # The headline claim: 1596x840x840 with refinement fits in 40 GB
        # while the uniform grid cannot represent it at all.
        from repro.grid.geometry import AirplaneProxy
        finest = (1596, 840, 840)
        base = tuple(s // 8 for s in finest)  # 4 levels
        plane = AirplaneProxy((base[0] / 2.2, base[1] / 2.0, base[2] / 2.0),
                              0.45 * base[0])
        widths = [16.0, 6.0, 2.2]
        counts = mc_level_counts(plane, base, widths, samples=300_000)
        rep = refined_memory_bytes(counts, q=27, itemsize=8, scheme="optimized")
        assert rep.fits(A100_40GB)
        uniform = uniform_memory_bytes(finest, 27, 8, buffers=1)
        assert uniform > A100_40GB.capacity_bytes

    def test_original_scheme_needs_more(self):
        sphere = Sphere((8.0, 8.0, 8.0), 2.0)
        counts = mc_level_counts(sphere, (16, 16, 16), [4.0], samples=100_000)
        opt = refined_memory_bytes(counts, 19, scheme="optimized")
        orig = refined_memory_bytes(counts, 19, scheme="original")
        assert orig.total > opt.total

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            refined_memory_bytes({"owned": [1], "ghost": [0], "fine_ghost": [0]},
                                 19, scheme="x")

    def test_report_arithmetic(self):
        rep = MemoryReport(populations=100, ghost_accumulators=10,
                           ghost_populations=5, metadata=1)
        assert rep.total == 116
