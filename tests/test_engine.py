"""Engine state, kernel bodies and launch records."""

import numpy as np
import pytest

import repro.core.collision as collision_mod
import repro.core.engine as engine_mod
from repro.analysis.capture import AccessTracer
from repro.backend.plan import StepPlan
from repro.core.engine import Engine
from repro.core.fusion import FUSED_FULL, MODIFIED_BASELINE, ORIGINAL_BASELINE
from repro.core.lattice import D2Q9, D3Q19
from repro.core.stepper import NonUniformStepper
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec, build_multigrid
from repro.grid.geometry import wall_refinement
from repro.neon.runtime import FieldRef

from .test_multigrid import (assert_same_map, compiled_form, nested_box_spec, ref_compile,
                             table_groups)


def capture(rt, drive):
    """The records, bodies and access map of the kernels ``drive`` launches."""
    return rt.capture_plan(drive, AccessTracer())


def run_op(op, *args, **kwargs):
    """Capture the engine op ``op(*args, **kwargs)``, then run its body:
    the interpreted backend's capture / loop, one op at a time."""
    rt = op.__self__.rt
    StepPlan(*capture(rt, lambda: op(*args, **kwargs))[:2]).execute(rt)


def make_engine(bc=None, base=(16, 16), omega0=1.2, cfg=MODIFIED_BASELINE):
    """A two-level engine holding the buffers ``cfg``'s stream addresses
    (4a's ``fghost`` besides every level's ``f`` and ``ghost_acc``)."""
    regions = wall_refinement(base, 2, [3.0])
    spec = RefinementSpec(base_shape=base, refine_regions=regions,
                          bc=bc or DomainBC())
    mg = build_multigrid(spec, D2Q9)
    eng = Engine(mg, "bgk", omega0=omega0)
    eng.allocate(cfg)
    eng.initialize()
    return eng


class TestConstruction:
    @pytest.mark.parametrize("cfg", [ORIGINAL_BASELINE, MODIFIED_BASELINE,
                                     FUSED_FULL], ids=lambda c: c.name)
    def test_fresh_engine_declares_the_initialised_step(self, cfg):
        # cross-level rows are linked at construction, so the stream does
        # not depend on initialize() having run (a built 4a body needs
        # the fghost that allocate() gives)
        ready = make_engine(cfg=cfg)
        fresh = Engine(ready.mgrid, "bgk", omega0=1.2)
        fresh.allocate(cfg)
        streams = [capture(eng.rt, lambda eng=eng: NonUniformStepper(eng, cfg)._advance(0))[0]
                   for eng in (fresh, ready)]
        assert streams[0] == streams[1]
        # ... and it includes the Accumulate into level 0's ghosts
        assert any(FieldRef("gacc", 0) in r.writes and r.level == 1
                   for r in streams[0])

    def test_capture_runs_no_body(self):
        # a capture builds each kernel's body and evaluates its report;
        # it runs none, and the trace records no kernel
        eng = make_engine()
        eng.initialize(u=np.array([0.02, 0.01]))
        eng.levels[0].ghost_acc[:] = 0.5
        before = [(b.f.copy(), b.ghost_acc.copy()) for b in eng.levels]
        stepper = NonUniformStepper(eng, FUSED_FULL)
        records, bodies, accesses = capture(eng.rt, lambda: stepper._advance(0))
        assert len(records) == len(bodies) == len(accesses) > 0
        assert eng.rt.records == [] and eng.rt.markers == []
        for b, (f, acc) in zip(eng.levels, before):
            assert np.array_equal(b.f, f) and np.array_equal(b.ghost_acc, acc)

    def test_the_pull_table_is_the_grids(self):
        # one table per level, frozen from birth: the engine neither
        # translates nor copies it, and the one population buffer has no
        # fine-ghost rows
        eng = make_engine()
        for cl, b in zip(eng.mgrid.levels, eng.levels):
            assert b.pull_flat is cl.pull_flat
            assert b.pull_flat.dtype == np.int32
            assert not b.pull_flat.flags.writeable
            assert b.f.shape == (eng.lat.q, b.n_owned)
            assert not hasattr(b, "fstar")
            assert b.pull_flat.max() < eng.lat.q * b.n_owned
        assert eng.levels[1].n_used > eng.levels[1].n_owned

    @pytest.mark.parametrize("cfg", [ORIGINAL_BASELINE, MODIFIED_BASELINE,
                                     FUSED_FULL], ids=lambda c: c.name)
    def test_only_the_4a_layout_allocates_fine_ghosts(self, cfg):
        eng = make_engine(cfg=cfg)
        NonUniformStepper(eng, cfg).run(1)
        for b in eng.levels:
            if cfg.original_layout and b.n_used > b.n_owned:
                assert b.fghost.shape == (eng.lat.q, b.n_used - b.n_owned)
            else:
                assert b.fghost is None
        if not cfg.original_layout:         # and no body makes do without it
            with pytest.raises(RuntimeError, match="level 1 has no fghost"):
                eng._explosion_copy(1)

    def test_a_table_replaced_after_the_proof_is_proven_again(self):
        # the bounds proof is per array, not per level (tests/test_backend.py
        # has the table replaced before any bind, both ends of the range)
        eng = make_engine()
        b = eng.levels[1]
        eng._stream(1)                      # proves the grid's own table
        b.pull_flat = b.pull_flat.copy()    # a writeable stand-in ...
        b.pull_flat[3, 7] = eng.lat.q * b.n_owned
        with pytest.raises(IndexError, match="level 1: pull table entries leave"):
            eng._stream(1)                  # ... is not taken on trust
        b.pull_flat[3, 7] -= 1              # the last entry of the flat source
        eng._stream(1)
        assert not b.pull_flat.flags.writeable


class TestInitialize:
    @pytest.mark.parametrize("lattice,base", [("D2Q9", (16, 16)),
                                              ("D3Q19", (8, 8, 8)),
                                              ("D3Q27", (8, 8, 8))])
    @pytest.mark.parametrize("rho, dtype", [
        pytest.param(rho, dtype, id=f"{rho}{suffix}")
        for dtype, suffix in (("float64", ""), ("float32", "-float32"))
        for rho in (1.0, 0.9731)])
    def test_rest_state_is_the_equilibrium_bit_for_bit(self, lattice, base, rho,
                                                        dtype):
        # at rest with a scalar density initialize writes w * rho without
        # the equilibrium's GEMMs: the same bits (a float64 round-off
        # property, so at float64); the float32 twin holds the float64
        # equilibrium rounded once to float32 -- within 0 eps of float32
        from repro.bench.workloads import lid_cavity
        from repro.core.collision import equilibrium
        from repro.core.lattice import get_lattice
        lat = get_lattice(lattice)
        eng = Engine(build_multigrid(lid_cavity(base=base, num_levels=2,
                                                lattice=lattice).spec, lat),
                     dtype=dtype)
        eng.initialize(rho)
        for buf in eng.levels:
            want = equilibrium(lat, np.full(buf.n_owned, rho),
                               np.zeros((lat.d, buf.n_owned)))
            assert want.astype(dtype).tobytes() == buf.f.tobytes()
            assert not buf.ghost_acc.any()

    def test_rest_equilibrium(self):
        eng = make_engine()
        lat = eng.lat
        for buf in eng.levels:
            assert np.allclose(buf.f[:, :buf.n_owned], lat.w[:, None])

    def test_velocity_vector_init(self):
        eng = make_engine()
        eng.initialize(u=np.array([0.02, 0.0]))
        for lv in range(2):
            _, u = eng.macroscopics(lv)
            assert np.allclose(u[0], 0.02, atol=1e-12)
            assert np.allclose(u[1], 0.0, atol=1e-12)

    def test_callable_init_uses_coarse_units(self):
        eng = make_engine()
        seen = {}

        def u_field(centers):
            seen[id(centers)] = centers
            return 0.01 * np.ones((2, centers.shape[0]))

        eng.initialize(u=u_field)
        # both levels were sampled; fine-level centres must lie within the
        # coarse-unit domain box
        all_centers = np.concatenate(list(seen.values()))
        assert all_centers.max() <= 16.0
        assert all_centers.min() >= 0.0

    def test_total_mass_volume_weighted(self):
        eng = make_engine()
        expected = sum((0.25 ** lv.level if False else (0.5 ** lv.level) ** 2) * lv.n_owned
                       for lv in eng.mgrid.levels)
        assert eng.total_mass() == pytest.approx(expected)

    def test_total_momentum_zero_at_rest(self):
        eng = make_engine()
        assert np.allclose(eng.total_momentum(), 0.0, atol=1e-12)


class TestOmegaPerLevel:
    def test_eq9_applied(self):
        eng = make_engine(omega0=1.5)
        from repro.core.units import omega_at_level
        assert eng.omega[0] == pytest.approx(1.5)
        assert eng.omega[1] == pytest.approx(omega_at_level(1.5, 1))


class TestKernelRecords:
    def test_collide_record(self):
        eng = make_engine()
        run_op(eng.op_collide, 0)
        rec = eng.rt.records[-1]
        assert rec.name == "C" and rec.level == 0
        assert rec.n_cells == eng.levels[0].n_owned
        assert rec.bytes_read == 9 * 8 * rec.n_cells

    def test_fused_collide_accumulate_record(self):
        eng = make_engine()
        run_op(eng.op_collide, 1, fuse_accumulate=True)
        rec = eng.rt.records[-1]
        assert rec.name == "CA"
        assert rec.atomic_bytes > 0

    def test_stream_fusion_names(self):
        eng = make_engine()
        run_op(eng.op_collide, 0)
        run_op(eng.op_collide, 1, fuse_accumulate=True)
        run_op(eng.op_stream, 1, fuse_explosion=True)
        assert eng.rt.records[-1].name == "SE"
        run_op(eng.op_stream, 0, fuse_coalescence=True)
        assert eng.rt.records[-1].name == "SO"
        run_op(eng.op_stream, 1, fuse_explosion=True, fuse_coalescence=True)
        assert eng.rt.records[-1].name == "SE"  # finest has no coalescence

    def test_case_record_traffic_is_two_passes(self):
        eng = make_engine()
        run_op(eng.op_collide, 0)
        run_op(eng.op_fused_case, 1)
        rec = eng.rt.records[-1]
        n = eng.levels[1].n_owned
        assert rec.name == "CASE"
        # one read + one write of the f field, plus interface extras
        assert rec.bytes_read >= 9 * 8 * n
        assert rec.bytes_read < 1.5 * 9 * 8 * n
        assert rec.bytes_written - rec.atomic_bytes == 9 * 8 * n

    def test_separate_interface_kernels(self):
        eng = make_engine()
        run_op(eng.op_collide, 0)
        run_op(eng.op_collide, 1)
        run_op(eng.op_accumulate, 1)
        assert eng.rt.records[-1].name == "A"
        run_op(eng.op_stream, 1)
        run_op(eng.op_explode, 1)
        assert eng.rt.records[-1].name == "E"
        run_op(eng.op_stream, 0)
        run_op(eng.op_coalesce, 0)
        assert eng.rt.records[-1].name == "O"

    def test_interface_kernels_declare_distinct_cells(self):
        # E / O declare the owned cells they touch, not their (q, cell)
        # entries; the count is taken once at build, not per launch
        base = (16, 16)
        spec = RefinementSpec(base, wall_refinement(base, 3, [4.0, 1.5]))
        eng = Engine(build_multigrid(spec, D2Q9), "bgk", omega0=1.2)
        eng.initialize()
        seen = set()
        for lv, cl in enumerate(eng.mgrid.levels):
            for op, name, cells in ((eng.op_explode, "E", cl.exp_dst % cl.n_owned),
                                    (eng.op_coalesce, "O", cl.coal_dst % cl.n_owned)):
                if cells.size:
                    run_op(op, lv)
                    rec = eng.rt.records[-1]
                    assert (rec.name, rec.level) == (name, lv)
                    assert rec.n_cells == np.unique(cells).size < cells.size
                    seen.add((name, lv))
        assert seen == {("E", 1), ("E", 2), ("O", 0), ("O", 1)}

    def test_accumulate_level0_rejected(self):
        eng = make_engine()
        with pytest.raises(ValueError):
            run_op(eng.op_accumulate, 0)


class TestStreamingSemantics:
    def test_explosion_is_homogeneous_copy(self):
        # after one coarse collide, fine explosion entries equal the coarse
        # post-collision value of the parent cell, verbatim (Eq. 10)
        eng = make_engine()
        eng.initialize(u=np.array([0.01, 0.005]))
        run_op(eng.op_collide, 0)
        run_op(eng.op_collide, 1)
        run_op(eng.op_stream, 1, fuse_explosion=True)
        fine = eng.levels[1]
        coarse = eng.levels[0]
        cl = eng.mgrid.levels[1]
        got = fine.f.reshape(-1)[cl.exp_dst]
        expected = coarse.f.reshape(-1)[cl.exp_src]     # collided in place
        assert np.array_equal(got, expected)

    def test_coalescence_is_scaled_average(self):
        eng = make_engine()
        eng.initialize(u=np.array([0.01, 0.0]))
        # run the full two-substep fine cycle so each slot holds 2 x n_e
        # samples, n_e the fine cells that stream into its coarse cell
        stepper = NonUniformStepper(eng)
        run_op(eng.op_collide, 0)
        run_op(eng.op_collide, 1, fuse_accumulate=True)
        run_op(eng.op_stream, 1, fuse_explosion=True)
        run_op(eng.op_collide, 1, fuse_accumulate=True)
        run_op(eng.op_stream, 1, fuse_explosion=True)
        coarse = eng.levels[0]
        acc = coarse.ghost_acc.copy()
        run_op(eng.op_stream, 0, fuse_coalescence=True)
        cl = eng.mgrid.levels[0]
        got = coarse.f.reshape(-1)[cl.coal_dst]
        n_src = sum(np.arange(acc.size) < r.size for r in cl.acc_sources)
        expected = acc / (2 * n_src).astype(acc.dtype)  # slot e is the bin entry e reads
        assert np.allclose(got, expected, atol=1e-15)

    def test_ghost_reset_after_coalescence(self):
        eng = make_engine()
        run_op(eng.op_collide, 0)
        run_op(eng.op_collide, 1, fuse_accumulate=True)
        assert np.abs(eng.levels[0].ghost_acc).max() > 0
        run_op(eng.op_stream, 0, fuse_coalescence=True)
        assert (eng.levels[0].ghost_acc == 0).all()

    def test_accumulate_gather_equals_scatter(self):
        eng1 = make_engine()
        eng2 = make_engine()
        for eng, gather in ((eng1, False), (eng2, True)):
            eng.initialize(u=np.array([0.02, -0.01]))
            run_op(eng.op_collide, 1)
            run_op(eng.op_accumulate, 1, gather=gather)
        assert np.allclose(eng1.levels[0].ghost_acc, eng2.levels[0].ghost_acc)

    def test_explosion_copy_mirrors_coarse(self):
        eng = make_engine(cfg=ORIGINAL_BASELINE)
        eng.initialize(u=np.array([0.01, 0.02]))
        run_op(eng.op_collide, 0)
        run_op(eng.op_explosion_copy, 1)
        fine = eng.levels[1]
        coarse = eng.levels[0]
        assert np.array_equal(fine.fghost, coarse.f[:, eng.mgrid.levels[1].fg_coarse_rows])

    def test_stream_from_ghost_equals_direct(self):
        # 4a explosion path (via ghost copies) gives identical pull values
        eng_a = make_engine(cfg=ORIGINAL_BASELINE)
        eng_b = make_engine()
        for eng in (eng_a, eng_b):
            eng.initialize(u=np.array([0.015, 0.0]))
            run_op(eng.op_collide, 0)
            run_op(eng.op_collide, 1)
        run_op(eng_a.op_explosion_copy, 1)
        run_op(eng_a.op_stream, 1, fuse_explosion=True, exp_from_ghost=True)
        run_op(eng_b.op_stream, 1, fuse_explosion=True, exp_from_ghost=False)
        a, b = eng_a.levels[1], eng_b.levels[1]
        assert np.array_equal(a.f, b.f)


class TestBoundaryPhysics:
    def test_moving_lid_injects_x_momentum(self):
        bc = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
        eng = make_engine(bc=bc)
        stepper = NonUniformStepper(eng)
        stepper.step()
        mom = eng.total_momentum()
        assert mom[0] > 0.0
        assert abs(mom[1]) < abs(mom[0]) * 0.2

    def test_resting_walls_keep_rest_state(self):
        eng = make_engine()
        stepper = NonUniformStepper(eng)
        f0 = [b.f[:, :b.n_owned].copy() for b in eng.levels]
        stepper.run(3)
        for buf, ref in zip(eng.levels, f0):
            assert np.allclose(buf.f[:, :buf.n_owned], ref, atol=1e-14)

    def test_outflow_sets_weights(self):
        bc = DomainBC({"x+": FaceBC("outflow")})
        eng = make_engine(bc=bc)
        eng.initialize(u=np.array([0.03, 0.0]))
        run_op(eng.op_collide, 1)
        run_op(eng.op_stream, 1)
        fine, cl = eng.levels[1], eng.mgrid.levels[1]
        got = fine.f.reshape(-1)[cl.out_dst]
        assert np.allclose(got, eng.lat.w[cl.out_dst // fine.n_owned])


# -- every body against a textbook copy ------------------------------------------
# Per-q loops and 2-D (q, row) indexing, straight off the algorithm, with
# the paper's two buffers: Collision and Streaming write a fresh array
# (``fstar`` / the new ``f``) from a whole copy of their input, and the
# level's ``f`` holds the result.  The engine's in-place bodies (flat
# index maps, one take per row through a table that has the boundary
# links folded in, streamed one direction group at a time, ragged rows of
# the populations that stream out of a level) must reproduce them bit for
# bit.  The textbook sums into the device kernel's dense ``(Q, n_ghost)``
# accumulator (``eng.dense_acc``, see ``textbook``); the engine keeps one
# slot per bin that Coalescence reads, compared with that bin.

def ref_collide(eng, lv):
    b = eng.levels[lv]
    fstar = np.empty_like(b.f)
    eng.collision.collide(b.f, eng.omega[lv], out=fstar, force=eng.force[lv])
    b.f[...] = fstar


def ref_accumulate(eng, lv):
    """Coalescence entry ``(q, x)`` of level ``lv - 1`` reads bin ``(q, x -
    e_q)``: into it go the post-collision ``f_q`` of the level-``lv`` cells
    whose pull leaves the level into ``x``, summed in float64 in child
    order (the reference's ``acc_src_rows``)."""
    parent, fine, acc = eng.ref[lv - 1], eng.levels[lv], eng.dense_acc[lv - 1]
    q = parent["coal_q"]
    sums = np.zeros(q.size)
    for rows in parent["acc_src_rows"]:
        owned = rows >= 0
        sums[owned] += fine.f[q[owned], rows[owned]]
    acc[q, parent["coal_src"]] += sums


def ref_stream(eng, lv):
    """The row pull of the reference compile, then its four kind lists —
    disjoint sets (tests/test_multigrid.py), so in any order — all from a
    copy of the post-collision values.  Nothing here reads the grid."""
    b, a, opp = eng.levels[lv], eng.ref[lv], eng.lat.opp
    fstar = b.f.copy()
    for q in range(eng.lat.q):
        b.f[q] = fstar[q, a["pull_rows"][q]]
    b.f[a["bb_q"], a["bb_cell"]] = fstar[opp[a["bb_q"]], a["bb_cell"]]
    b.f[a["mov_q"], a["mov_cell"]] = fstar[opp[a["mov_q"]], a["mov_cell"]] + a["mov_term"]
    b.f[a["out_q"], a["out_cell"]] = a["out_val"]
    b.f[a["sl_q"], a["sl_cell"]] = fstar[a["sl_src_q"],
                                         eng.mgrid.levels[lv].row_of_slot()[a["sl_src"]]]


def ref_explode(eng, lv, from_ghost):
    b, a = eng.levels[lv], eng.ref[lv]
    q, cell = a["exp_q"], a["exp_cell"]
    if from_ghost:
        b.f[q, cell] = b.fghost[q, a["exp_ghost_rows"] - b.n_owned]
    else:
        b.f[q, cell] = eng.levels[lv - 1].f[q, a["exp_rows"]]


def ref_coalesce(eng, lv):
    """Each entry takes the mean of what streamed into its cell over two
    substeps: its bin over twice the number of its sources."""
    b, a, acc = eng.levels[lv], eng.ref[lv], eng.dense_acc[lv]
    landed = 2 * (a["acc_src_rows"] >= 0).sum(axis=0)
    b.f[a["coal_q"], a["coal_cell"]] = (acc[a["coal_q"], a["coal_src"]]
                                        / landed.astype(acc.dtype))
    acc[:] = 0.0


def textbook(eng, lv, refs):
    """Run the textbook bodies ``refs`` at level ``lv`` on ``eng``'s state:
    each level's slots go into their bins of a dense ``(Q, n_ghost)``
    accumulator (the bins nobody reads start at 0), the bodies run, and
    the slots read their bins back."""
    eng.dense_acc = []
    for b, cl in zip(eng.levels, eng.mgrid.levels):
        acc = np.zeros((eng.lat.q, b.n_ghost), b.ghost_acc.dtype)
        acc.reshape(-1)[cl.coal_bin] = b.ghost_acc
        eng.dense_acc.append(acc)
    for ref in refs:
        ref(eng, lv)
    for b, cl, acc in zip(eng.levels, eng.mgrid.levels, eng.dense_acc):
        b.ghost_acc[...] = acc.reshape(-1)[cl.coal_bin]


def ref_explosion_copy(eng, lv):
    b, cl = eng.levels[lv], eng.mgrid.levels[lv]
    # fghost column k holds fine ghost k, row n_owned + k
    cols = cl.row_of_slot()[cl.fine_ghost_slots] - b.n_owned
    b.fghost[:, cols] = eng.levels[lv - 1].f[:, eng.ref[lv]["fg_coarse_rows"]]


def ref_explode_direct(eng, lv):
    ref_explode(eng, lv, from_ghost=False)


def ref_explode_ghost(eng, lv):
    ref_explode(eng, lv, from_ghost=True)


def ref_accumulate_twice_then_coalesce(eng, lv):
    ref_accumulate(eng, lv)
    eng.levels[lv].f[...] = eng.levels[lv].f[::-1].copy()  # a second substep
    ref_accumulate(eng, lv)
    ref_coalesce(eng, lv - 1)


def accumulate_twice_then_coalesce(eng, lv):
    run_op(eng.op_accumulate, lv)
    eng.levels[lv].f[...] = eng.levels[lv].f[::-1].copy()
    run_op(eng.op_accumulate, lv)
    run_op(eng.op_coalesce, lv - 1)


#: kernel -> (coarsest level it runs on, its launch, the textbook sequence)
KERNELS = {
    "C": (0, lambda e, lv: run_op(e.op_collide, lv), [ref_collide]),
    "A-scatter": (1, lambda e, lv: run_op(e.op_accumulate, lv), [ref_accumulate]),
    "A-gather": (1, lambda e, lv: run_op(e.op_accumulate, lv, gather=True),
                 [ref_accumulate]),
    "S": (0, lambda e, lv: run_op(e.op_stream, lv), [ref_stream]),
    "E": (1, lambda e, lv: run_op(e.op_explode, lv), [ref_explode_direct]),
    "E-ghost": (1, lambda e, lv: run_op(e.op_explode, lv, exp_from_ghost=True),
                [ref_explode_ghost]),
    "O": (0, lambda e, lv: run_op(e.op_coalesce, lv), [ref_coalesce]),
    "E-copy": (1, lambda e, lv: run_op(e.op_explosion_copy, lv), [ref_explosion_copy]),
    "CA": (1, lambda e, lv: run_op(e.op_collide, lv, fuse_accumulate=True),
           [ref_collide, ref_accumulate]),
    "SEO": (0, lambda e, lv: run_op(e.op_stream, lv, fuse_explosion=True,
                                         fuse_coalescence=True),
            [ref_stream, ref_explode_direct, ref_coalesce]),
    "SE-ghost": (1, lambda e, lv: run_op(e.op_stream, lv, fuse_explosion=True,
                                              exp_from_ghost=True),
                 [ref_stream, ref_explode_ghost]),
    "CASE": (1, lambda e, lv: run_op(e.op_fused_case, lv),
             [ref_collide, ref_accumulate, ref_stream, ref_explode_direct]),
    "A-A-O": (1, accumulate_twice_then_coalesce,
              [ref_accumulate_twice_then_coalesce]),
}


def mixed_engine(d, cfg=ORIGINAL_BASELINE):
    """Three levels, a solid, and every face kind between the two grids;
    by default every buffer allocated (4a's ``fghost`` too)."""
    vel = (0.04,) + (0.0,) * (d - 1)
    if d == 2:
        base, lat = (15, 13), D2Q9
        faces = {"x-": FaceBC("inlet", velocity=vel), "x+": FaceBC("outflow"),
                 "y-": FaceBC("slip"), "y+": FaceBC("moving", velocity=vel)}
    else:
        base, lat = (11, 11, 13), D3Q19     # y+ stays a resting wall
        faces = {"x-": FaceBC("periodic"), "x+": FaceBC("periodic"),
                 "y-": FaceBC("slip"), "z-": FaceBC("outflow"),
                 "z+": FaceBC("moving", velocity=vel)}
    spec = nested_box_spec(base, 3, DomainBC(faces), solid=True)
    eng = Engine(build_multigrid(spec, lat), "bgk", omega0=1.3)
    eng.allocate(cfg)
    #: the reference compile's kind lists and row-space pull, for the textbook
    eng.ref = ref_compile(spec, lat)
    return eng


class TestKernelBodies:
    FIELDS = ("f", "fghost", "ghost_acc")

    @pytest.fixture(scope="class", params=[2, 3], ids=["2d", "3d"])
    def engine(self, request):
        return mixed_engine(request.param)

    def test_grids_reach_every_index_map(self, engine):
        for name in ("sb_q", "mov_dst", "out_dst", "exp_dst", "coal_dst",
                     "fg_coarse_rows", "exp_ghost_rows"):
            assert any(getattr(cl, name).size for cl in engine.mgrid.levels), name
        assert any(cl.acc_sources for cl in engine.mgrid.levels)
        for name in ("bb_q", "sl_q"):       # in the pull table only
            assert any(a[name].size for a in engine.ref.values()), name
        for cl, b in zip(engine.mgrid.levels, engine.levels):
            assert b.pull_flat is cl.pull_flat      # the table is the grid's
        # ... and each map is the reference's lists in flat form
        for lv, cl in enumerate(engine.mgrid.levels):
            for name, want in compiled_form(engine.ref, lv, engine.lat)[0].items():
                assert_same_map(getattr(cl, name), want, (lv, name))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matches_textbook_body(self, engine, kernel):
        first, launch, reference = KERNELS[kernel]
        rng = np.random.default_rng(sum(map(ord, kernel)))
        for lv in range(first, len(engine.levels)):
            start = [{k: rng.uniform(0.2, 1.0, getattr(b, k).shape).astype(b.f.dtype)
                      for k in self.FIELDS if getattr(b, k) is not None}
                     for b in engine.levels]
            results = []
            for run in (lambda: launch(engine, lv),
                        lambda: textbook(engine, lv, reference)):
                for b, saved in zip(engine.levels, start):
                    for k, values in saved.items():
                        getattr(b, k)[...] = values
                run()
                results.append([{k: getattr(b, k).copy() for k in saved}
                                for b, saved in zip(engine.levels, start)])
            got, want = results
            for g, w in zip(got, want):
                assert g.keys() == w.keys()
                for k in g:
                    assert np.array_equal(g[k], w[k]), (kernel, lv, k)

    def test_accumulate_keeps_a_subsequence_of_the_entries(self, engine):
        # each slot gathers the textbook's sources of its entry, in child
        # order; the slots are the entries sorted by how many sources they
        # have, most first, and their bins are the ones Coalescence reads
        Q = engine.lat.q
        for lv in range(1, len(engine.levels)):
            a, up, fine = engine.ref[lv - 1], engine.mgrid.levels[lv - 1], engine.levels[lv]
            src = a["acc_src_rows"]
            owned = src >= 0
            n_src = owned.sum(axis=0)
            assert 1 <= n_src.min() and n_src.max() < 2 ** engine.mgrid.d
            slots = up.coal_bin.size
            assert slots == n_src.size == engine.levels[lv - 1].ghost_acc.size
            assert np.unique(up.coal_bin).size == slots < Q * up.n_ghost
            ref_bin = a["coal_q"] * up.n_ghost + a["coal_src"]
            entry = np.argsort(ref_bin)[np.searchsorted(np.sort(ref_bin), up.coal_bin)]
            assert np.array_equal(ref_bin[entry], up.coal_bin)
            assert (np.diff(n_src[entry]) <= 0).all()
            for j, row in enumerate(up.acc_sources):
                e = entry[:row.size]
                assert (n_src[e] > j).all() and (n_src[entry[row.size:]] <= j).all()
                # the (j + 1)-th owned source of each entry
                pick = (np.cumsum(owned[:, e], axis=0) == j + 1) & owned[:, e]
                assert np.array_equal(row, a["coal_q"][e] * fine.n_owned + src[:, e].T[pick.T])
            assert up.n_acc_sources == n_src.sum()
            # ... and the records count exactly those entries
            for launch in (lambda: engine.op_accumulate(lv),
                           lambda: engine.op_collide(lv, fuse_accumulate=True),
                           lambda: engine.op_fused_case(lv)):
                rec, = capture(engine.rt, launch)[0]
                assert rec.atomic_bytes == engine.itemsize * n_src.sum()


#: kernel sequences of the configs on a level below the coarsest, all
#: equal to the textbook collide, accumulate, stream, explode
IN_PLACE = {
    "CASE": lambda e, lv: run_op(e.op_fused_case, lv),
    "C-A-S-E": lambda e, lv: [run_op(e.op_collide, lv), run_op(e.op_accumulate, lv),
                              run_op(e.op_stream, lv), run_op(e.op_explode, lv)],
    "CA-SE": lambda e, lv: [run_op(e.op_collide, lv, fuse_accumulate=True),
                            run_op(e.op_stream, lv, fuse_explosion=True)],
}


class TestInPlace:
    """Every level holds one population buffer: Collide writes over
    ``f``, Accumulate and the finer level's Explosion read ``f`` and
    Streaming runs in place one direction group at a time, through a
    scratch per split part — the values the textbook computes through a
    second buffer."""

    @pytest.fixture(scope="class", params=[2, 3], ids=["2d", "3d"])
    def engine(self, request):
        return mixed_engine(request.param)

    def test_groups_are_closed_under_the_rows_sources(self, engine):
        merged = False
        for cl, b in zip(engine.mgrid.levels, engine.levels):
            groups = cl.groups
            assert sorted(map(sorted, groups)) == table_groups(b.pull_flat, b.n_owned)
            merged |= max(map(len, groups)) > 2
        assert merged                       # a slip face joins two pairs

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("sequence", IN_PLACE)
    def test_matches_textbook_body(self, engine, sequence, width, monkeypatch):
        # 64-column tiles and no part floor: every level runs split
        monkeypatch.setattr(collision_mod, "TILE_BUDGET_BYTES", 0)
        monkeypatch.setattr(engine_mod, "SPLIT_MIN_BYTES", 0)
        monkeypatch.setattr(engine, "split_width", width)
        monkeypatch.setattr(engine, "scratch", [{} for _ in engine.levels])
        rng = np.random.default_rng(width)
        for lv in range(1, len(engine.levels)):
            start = [{k: rng.uniform(0.2, 1.0, getattr(b, k).shape).astype(b.f.dtype)
                      for k in ("f", "ghost_acc")} for b in engine.levels]
            results = []
            for run in (lambda: IN_PLACE[sequence](engine, lv),
                        lambda: textbook(engine, lv, (
                            ref_collide, ref_accumulate, ref_stream,
                            ref_explode_direct))):
                for b, saved in zip(engine.levels, start):
                    for k, values in saved.items():
                        getattr(b, k)[...] = values
                run()
                results.append([(b.f.copy(), b.ghost_acc.copy())
                                for b in engine.levels])
            got, want = results
            for (gf, gacc), (wf, wacc) in zip(got, want):
                assert np.array_equal(gf, wf), (sequence, lv)
                assert np.array_equal(gacc, wacc), (sequence, lv)
            # the collide ran in ``width`` tile-aligned calls, the stream
            # in ``width`` parts through the one scratch it bound
            groups = engine.mgrid.levels[lv].groups
            assert len(engine.split_cuts(lv)) - 1 == width
            assert engine.split_parts(lv) == width < len(groups)
            bound = [k for k in engine.scratch[lv] if isinstance(k, int)]
            assert bound == [width]
            assert engine.scratch[lv][width].shape == (
                width, max(map(len, groups)), engine.levels[lv].n_owned)
