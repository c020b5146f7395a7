"""Multi-resolution stack construction, validation and interface maps."""

import dataclasses
import gc
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.bench.workloads import lid_cavity, sphere_tunnel
from repro.core.lattice import D2Q9, D3Q19, D3Q27
from repro.gpu.memory import memory_arrays, memory_ledger
from repro.grid.geometry import Sphere, shell_refinement, voxelize, wall_refinement
from repro.grid.multigrid import (_FACE_KINDS, _PRECEDENCE, DomainBC, FaceBC,
                                  RefinementSpec, _dilate, _face_names, _validate_spec,
                                  build_multigrid, compile_arrays, grid_arrays_digest,
                                  spec_digest)
from repro.grid.sparse_grid import BlockSparseGrid


def two_level_2d(base=(16, 16), width=3.0, bc=None):
    regions = wall_refinement(base, 2, [width])
    return RefinementSpec(base_shape=base, refine_regions=regions,
                          bc=bc or DomainBC())


def center_patch_spec(base=(16, 16), lo=5, hi=11):
    region = np.zeros(base, dtype=bool)
    region[lo:hi, lo:hi] = True
    return RefinementSpec(base_shape=base, refine_regions=[region])


class TestValidation:
    def test_shape_mismatch(self):
        spec = RefinementSpec((16, 16), [np.zeros((8, 8), dtype=bool)])
        with pytest.raises(ValueError, match="shape"):
            build_multigrid(spec, D2Q9)

    def test_empty_region(self):
        spec = RefinementSpec((16, 16), [np.zeros((16, 16), dtype=bool)])
        with pytest.raises(ValueError, match="refines nothing"):
            build_multigrid(spec, D2Q9)

    def test_level_left_without_cells(self):
        # a region covering every level-0 cell used to pass validation and
        # die in BlockSparseGrid.from_mask with "mask selects no cells"
        spec = RefinementSpec((8, 8), [np.ones((8, 8), dtype=bool)])
        with pytest.raises(ValueError, match="level 0 would own no cells"):
            build_multigrid(spec, D2Q9)

    def test_nesting_violation(self):
        r0 = np.zeros((8, 8), dtype=bool)
        r0[2:6, 2:6] = True
        r1 = np.zeros((16, 16), dtype=bool)
        r1[0:4, 0:4] = True  # outside the level-1 covered region
        spec = RefinementSpec((8, 8), [r0, r1])
        with pytest.raises(ValueError, match="nest"):
            build_multigrid(spec, D2Q9)

    def test_refined_cell_outside_the_window(self):
        # level 1's build window hugs the children of r0; a level-1 region
        # cell far outside it is refused like one next to it
        r0 = np.zeros((32, 32), dtype=bool)
        r0[12:20, 12:20] = True
        r1 = np.zeros((64, 64), dtype=bool)
        r1[30:34, 30:34] = True
        assert build_multigrid(RefinementSpec((32, 32), [r0, r1]), D2Q9).num_levels == 3
        r1[0, 63] = True
        with pytest.raises(ValueError, match="nest"):
            build_multigrid(RefinementSpec((32, 32), [r0, r1]), D2Q9)

    def test_solid_outside_the_window(self):
        r0 = np.zeros((32, 32), dtype=bool)
        r0[12:20, 12:20] = True
        solid = np.zeros((64, 64), dtype=bool)
        solid[63, 0] = True
        with pytest.raises(ValueError, match="surrounded by finest-level cells"):
            build_multigrid(RefinementSpec((32, 32), [r0], solid=solid), D2Q9)

    def test_level_jump_violation(self):
        r0 = np.zeros((8, 8), dtype=bool)
        r0[2:6, 2:6] = True
        r1 = np.zeros((16, 16), dtype=bool)
        r1[4:12, 4:12] = True  # touches the level-0/1 interface
        spec = RefinementSpec((8, 8), [r0, r1])
        with pytest.raises(ValueError, match="jump|too close"):
            build_multigrid(spec, D2Q9)

    def test_ghost_children_violation(self):
        r0 = np.zeros((12, 12), dtype=bool)
        r0[2:10, 2:10] = True
        r1 = np.zeros((24, 24), dtype=bool)
        # passes the jump check (one covered cell of clearance) but lands
        # on the ghost layer's children: still illegal
        r1[5:18, 5:18] = True
        spec = RefinementSpec((12, 12), [r0, r1])
        with pytest.raises(ValueError, match="too close"):
            build_multigrid(spec, D2Q9)

    def test_three_levels_with_clearance(self):
        r0 = np.zeros((12, 12), dtype=bool)
        r0[2:10, 2:10] = True
        r1 = np.zeros((24, 24), dtype=bool)
        r1[8:16, 8:16] = True  # two level-1 cells clear of the interface
        spec = RefinementSpec((12, 12), [r0, r1])
        mg = build_multigrid(spec, D2Q9)
        assert mg.num_levels == 3

    def test_lattice_dimension_mismatch(self):
        with pytest.raises(ValueError, match="-D"):
            build_multigrid(two_level_2d(), D3Q19)

    def test_periodic_must_pair(self):
        bc = DomainBC({"x-": FaceBC("periodic")})
        with pytest.raises(ValueError, match="paired"):
            build_multigrid(two_level_2d(bc=bc), D2Q9)

    def test_unknown_face(self):
        bc = DomainBC({"z-": FaceBC("wall")})
        with pytest.raises(ValueError, match="unknown face"):
            build_multigrid(two_level_2d(bc=bc), D2Q9)

    def test_solid_needs_finest_shell(self):
        # solid adjacent to non-finest cells is rejected
        base = (16, 16)
        region = np.zeros(base, dtype=bool)
        region[:8, :] = True
        solid = np.zeros((32, 32), dtype=bool)
        solid[14:18, 14:18] = True  # straddles the interface
        spec = RefinementSpec(base, [region], solid=solid)
        with pytest.raises(ValueError, match="solid"):
            build_multigrid(spec, D2Q9)

    def test_moving_face_requires_velocity(self):
        with pytest.raises(ValueError, match="velocity"):
            FaceBC("moving")

    def test_unknown_face_kind(self):
        with pytest.raises(ValueError, match="unknown face BC"):
            FaceBC("zou-he")


class TestPartition:
    def test_levels_partition_space_2d(self):
        mg = build_multigrid(two_level_2d(), D2Q9)
        total = sum(lv.n_owned * 4 ** (mg.num_levels - 1 - lv.level)
                    for lv in mg.levels)
        assert total == 32 * 32  # finest-resolution cell count

    def test_levels_partition_space_3d_with_solid(self):
        sphere = Sphere((8.0, 8.0, 8.0), 2.0)
        base = (16, 16, 16)
        regions = shell_refinement(sphere, base, 2, [4.0])
        solid = voxelize(sphere, (32, 32, 32), 1)
        spec = RefinementSpec(base, regions, solid=solid)
        mg = build_multigrid(spec, D3Q19)
        total = sum(lv.n_owned * 8 ** (mg.num_levels - 1 - lv.level)
                    for lv in mg.levels)
        assert total == 32 ** 3 - solid.sum()

    def test_uniform_single_level(self):
        spec = RefinementSpec((12, 12))
        mg = build_multigrid(spec, D2Q9)
        assert mg.num_levels == 1
        assert mg.active_per_level() == [144]
        lv = mg.levels[0]
        assert lv.n_ghost == 0
        assert lv.exp_dst.size == 0 and lv.coal_dst.size == 0


class TestInterfaceMaps:
    # a flat entry's divmod by its stride is the (q, row) it addresses
    def test_explosion_sources_are_coarse_owned(self):
        mg = build_multigrid(two_level_2d(), D2Q9)
        fine = mg.levels[1]
        coarse = mg.levels[0]
        assert fine.exp_dst.size > 0
        assert fine.exp_dst.dtype == fine.exp_src.dtype == np.intp
        q, rows = np.divmod(fine.exp_src, coarse.n_owned)
        assert np.array_equal(q, fine.exp_dst // fine.n_owned)
        assert 0 <= rows.min() and rows.max() < coarse.n_owned
        assert fine.exp_src_span == (rows.min(), rows.max() + 1)

    def test_explosion_source_is_parent_of_pull_position(self):
        mg = build_multigrid(two_level_2d(), D2Q9)
        fine, coarse = mg.levels[1], mg.levels[0]
        fine_pos = fine.grid.cell_positions()
        coarse_pos = coarse.grid.cell_positions()
        q, cell = np.divmod(fine.exp_dst, fine.n_owned)
        rows = fine.exp_src % coarse.n_owned
        src_pos = fine_pos[fine.owned_slots[cell]] - mg.lattice.e[q]
        assert np.array_equal(coarse_pos[coarse.owned_slots[rows]], src_pos // 2)

    def test_coalescence_sources_are_ghost_rows(self):
        mg = build_multigrid(two_level_2d(), D2Q9)
        coarse = mg.levels[0]
        assert coarse.coal_dst.size > 0
        assert coarse.coal_bin.dtype == np.int32
        q, ghost = np.divmod(coarse.coal_bin, coarse.n_ghost)
        assert np.array_equal(q, coarse.coal_dst // coarse.n_owned)
        assert ghost.min() >= 0
        assert ghost.max() < coarse.n_ghost

    @pytest.mark.parametrize("spec, counts", [
        # 2 (= 2^(d-1)) sources along a straight stretch of the interface,
        # 1 at a convex corner of the refined region, 3 at a concave one
        pytest.param(center_patch_spec(), [1, 2], id="patch"),
        pytest.param(two_level_2d(), [2, 3], id="frame"),
    ])
    def test_accumulate_source_count(self, spec, counts):
        mg = build_multigrid(spec, D2Q9)
        coarse, fine = mg.levels[0], mg.levels[1]
        # ragged rows: row j covers the slots with more than j sources,
        # the first ones, each in its bin's direction
        rows = coarse.acc_sources
        assert rows[0].size == coarse.coal_bin.size
        n_src = sum(np.arange(rows[0].size) < r.size for r in rows)
        assert sorted(set(n_src.tolist())) == counts
        assert (np.diff(n_src) <= 0).all()
        for r in rows:
            assert (r // fine.n_owned == coarse.coal_bin[:r.size] // coarse.n_ghost).all()
        assert coarse.n_acc_sources == n_src.sum()

    def test_accumulate_sources_stream_into_the_slot_cell(self):
        mg = build_multigrid(center_patch_spec(), D2Q9)
        coarse, fine = mg.levels[0], mg.levels[1]
        cpos = coarse.grid.cell_positions()[coarse.owned_slots]
        fpos = fine.grid.cell_positions()[fine.owned_slots]
        cell = coarse.coal_dst % coarse.n_owned
        landed = []
        for r in coarse.acc_sources:
            q, rows = np.divmod(r, fine.n_owned)
            landed.append(fpos[rows] + mg.lattice.e[q])
            assert np.array_equal(landed[-1] // 2, cpos[cell[:r.size]])
        # in distinct children of the slot's cell
        for first, later in itertools.combinations(landed, 2):
            assert (first[:len(later)] != later).any(axis=1).all()

    def test_fine_ghost_four_layers(self):
        mg = build_multigrid(center_patch_spec(), D2Q9)
        fine = mg.levels[1]
        assert fine.fine_ghost_slots.size > 0
        fpos = fine.grid.cell_positions()[fine.fine_ghost_slots]
        # fine-ghost cells lie outside the owned fine region (the centre
        # patch is [10, 22) at fine resolution) but within 4 cells of it
        inside = ((fpos >= 10) & (fpos < 22)).all(axis=1)
        assert not inside.any()
        assert ((fpos >= 6) & (fpos < 26)).all()

    def test_interface_cell_counts_positive(self):
        mg = build_multigrid(two_level_2d(), D2Q9)
        assert mg.levels[1].n_interface_fine > 0
        assert mg.levels[0].n_interface_coarse > 0


class TestBoundaryClassification:
    # the bounce-back and slip links live in the pull table only: their
    # census is the reference's kind lists
    def test_cavity_kind_census(self):
        bc = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
        mg = build_multigrid(two_level_2d(bc=bc), D2Q9)
        ref = ref_compile(mg.spec, D2Q9)
        fine = mg.levels[1]
        assert fine.mov_dst.size > 0    # lid links live on the fine level
        assert ref[1]["bb_q"].size > 0  # side/bottom walls
        coarse = mg.levels[0]
        assert ref[0]["bb_q"].size == 0  # coarse region is interior only
        assert coarse.mov_dst.size == 0

    def test_moving_term_value(self):
        lid = (0.05, 0.0)
        bc = DomainBC({"y+": FaceBC("moving", velocity=lid)})
        mg = build_multigrid(two_level_2d(bc=bc), D2Q9)
        fine = mg.levels[1]
        lat = mg.lattice
        q = fine.mov_dst // fine.n_owned
        expected = 2.0 * lat.w[q] * (lat.ef[q] @ np.asarray(lid)) / lat.cs2
        assert np.allclose(fine.mov_term, expected)

    def test_outflow_values_are_weights(self):
        bc = DomainBC({"x+": FaceBC("outflow")})
        mg = build_multigrid(two_level_2d(bc=bc), D2Q9)
        fine = mg.levels[1]
        assert fine.out_dst.size > 0
        assert np.allclose(fine.out_val, mg.lattice.w[fine.out_dst // fine.n_owned])

    def test_periodic_has_no_boundary_entries(self):
        bc = DomainBC({f: FaceBC("periodic") for f in ("x-", "x+", "y-", "y+")})
        walled = ref_compile(center_patch_spec(), D2Q9)  # walls by default
        periodic = ref_compile(
            RefinementSpec((16, 16), [center_patch_spec().refine_regions[0]], bc=bc),
            D2Q9)
        assert walled[0]["bb_q"].size > 0
        assert periodic[0]["bb_q"].size == 0
        assert n_listed(periodic[0]) < n_listed(walled[0])

    def test_solid_classified_bounceback(self):
        sphere = Sphere((8.0, 8.0), 2.0)
        base = (16, 16)
        regions = shell_refinement(sphere, base, 2, [4.0])
        solid = voxelize(sphere, (32, 32), 1)
        spec = RefinementSpec(base, regions, solid=solid)
        mg = build_multigrid(spec, D2Q9)
        fine = mg.levels[1]
        assert fine.sb_q.size > 0 and ref_compile(spec, D2Q9)[1]["bb_q"].size >= fine.sb_q.size
        # solid cells themselves are not owned
        pos = fine.grid.cell_positions()[fine.owned_slots]
        assert not solid[tuple(pos.T)].any()

    def test_kind_matrix_consistency(self):
        bc = DomainBC({"x-": FaceBC("inlet", velocity=(0.04, 0.0)),
                       "x+": FaceBC("outflow")})
        mg = build_multigrid(two_level_2d(bc=bc), D2Q9)
        ref = ref_compile(mg.spec, D2Q9)
        for lv in mg.levels:
            assert_one_kind_per_pull(lv, ref[lv.level])


# -- bit-reference for the grid compile ----------------------------------------
#
# The compile step classifies pulls with flat gathers over padded dense
# arrays.  What follows is the classifier it replaced, kept as the
# reference: (n, d) position arithmetic, ``lab[tuple(s.T)]`` and one
# ``BlockSparseGrid.lookup`` per answer, a full-footprint dilation.  Every
# array of every CompiledLevel has to come out equal, dtype included.  The
# reference keeps the bulk pull and the cross-level sources in slot space
# (``pull_src``), maps them to rows at the end, leaves the boundary links in
# the kind lists and marks every pull's kind in a ``(Q, n_owned)`` matrix
# the grid does not store; the compile step emits one frozen int32 table of
# flat ``q_src * n_owned + row`` entries with those links folded in, checked
# against ``folded_pull`` below.

#: Pull kinds of the reference's matrix (0: interior).
INTERIOR = 0
_KIND_CODES = {"bb": 1, "mov": 2, "out": 3, "exp": 4, "coal": 5, "sl": 6}

def ref_dilate(mask, radius, periodic):
    if not mask.any():
        return mask.copy()
    if not any(periodic):
        footprint = np.ones((2 * radius + 1,) * mask.ndim, dtype=bool)
        return ndimage.binary_dilation(mask, structure=footprint)
    out = mask.copy()
    for _ in range(radius):
        for axis in range(mask.ndim):
            snap = out.copy()
            for shift in (-1, 1):
                rolled = np.roll(snap, shift, axis=axis)
                if not periodic[axis]:
                    edge = [slice(None)] * mask.ndim
                    edge[axis] = 0 if shift == 1 else -1
                    rolled[tuple(edge)] = False
                out |= rolled
    return out


def ref_upsample2(mask):
    for axis in range(mask.ndim):
        mask = np.repeat(mask, 2, axis=axis)
    return mask


def ref_owner_labels(spec):
    """Per level, the owner code of every cell of the level's whole box
    (0 own, 1 finer, 2 coarser, 3 solid)."""
    labels, covered = [], np.ones(spec.base_shape, dtype=bool)
    for lvl in range(spec.num_levels):
        lab = np.where(covered, 0, 2).astype(np.int8)
        if lvl < spec.num_levels - 1:
            region = np.asarray(spec.refine_regions[lvl], dtype=bool)
            lab[region] = 1
            covered = ref_upsample2(region)
        elif spec.solid is not None:
            lab[np.asarray(spec.solid, dtype=bool)] = 3
        labels.append(lab)
    return labels


def ref_compile(spec, lat):
    """``{level: {field: array}}`` by the position-based classifier."""
    d, Q, nl = spec.d, lat.q, spec.num_levels
    per, names, labels = spec.bc.periodic_axes(d), _face_names(d), ref_owner_labels(spec)
    grids, slots = [], []
    for lvl, lab in enumerate(labels):
        owned = lab == 0
        ghost = ref_dilate(owned, 1, per) & (lab == 1)
        fghost = (ref_dilate(owned, 4, per) & ref_upsample2(labels[lvl - 1] == 0)
                  if lvl else np.zeros_like(owned))
        grid = BlockSparseGrid.from_mask(owned | ghost | fghost, level=lvl,
                                         block_size=spec.block_size, curve=spec.curve)
        p = grid.cell_positions()
        ok = np.all(p < lab.shape, axis=1) & grid.active()
        grids.append(grid)
        slots.append([np.flatnonzero(ok)[m[tuple(p[ok].T)]] for m in (owned, ghost, fghost)])

    def rows_of(lvl):
        # row space: owned cells in slot order, then the fine ghosts
        owned_slots, _, fg_slots = slots[lvl]
        row_of_slot = np.full(grids[lvl].n_alloc, -1, dtype=np.int64)
        row_of_slot[np.concatenate([owned_slots, fg_slots])] = np.arange(
            owned_slots.size + fg_slots.size)
        return row_of_slot

    out = {}
    for lvl, (grid, lab) in enumerate(zip(grids, labels)):
        owned_slots, ghost_slots, fg_slots = slots[lvl]
        shape = np.asarray(lab.shape)
        pos = grid.cell_positions()[owned_slots]
        ghost_row = np.full(grid.n_alloc, -1, dtype=np.int64)
        ghost_row[ghost_slots] = np.arange(ghost_slots.size)
        pull_src = np.tile(owned_slots, (Q, 1))
        kind = np.full((Q, owned_slots.size), INTERIOR, dtype=np.int8)
        T = {k: [] for k in ("bb", "mov", "out", "exp", "coal", "sb", "sl")}

        def mark(table, q, rows, *cols):
            T[table].append((q, rows) + cols)
            kind[q, rows] = _KIND_CODES[table]

        for q in range(Q):
            v = lat.e[q]
            if not v.any():
                continue
            src = np.where(per, (pos - v) % shape, pos - v)
            below, above = src < 0, src >= shape
            is_out = (below | above).any(axis=1)
            rin = np.flatnonzero(~is_out)
            s = src[rin]
            code = lab[tuple(s.T)]
            pull_src[q, rin[code == 0]] = grid.lookup(s[code == 0])
            if (code == 1).any():
                mark("coal", q, rin[code == 1], ghost_row[grid.lookup(s[code == 1])])
            if (code == 2).any():
                mark("exp", q, rin[code == 2],
                     grids[lvl - 1].lookup(s[code == 2] // 2), grid.lookup(s[code == 2]))
            if (code == 3).any():
                T["sb"].append((q, rin[code == 3]))
                mark("bb", q, rin[code == 3])
            rows_o = np.flatnonzero(is_out)
            rank = np.full(rows_o.size, 99)
            face = np.zeros(rows_o.size, dtype=np.int64)
            for fi in range(2 * d):
                fkind = spec.bc.face(names[fi]).kind
                if fkind == "periodic":
                    continue
                crossed = (above if fi % 2 else below)[rows_o, fi // 2]
                better = crossed & (_PRECEDENCE[fkind] < rank)
                rank[better], face[better] = _PRECEDENCE[fkind], fi
            for fi in np.unique(face):
                fbc, rows = spec.bc.face(names[fi]), rows_o[face == fi]
                if fbc.kind == "wall":
                    mark("bb", q, rows)
                elif fbc.kind in ("moving", "inlet"):
                    term = 2.0 * lat.w[q] * float(lat.ef[q] @ np.asarray(fbc.velocity)) / lat.cs2
                    mark("mov", q, rows, term)
                elif fbc.kind == "outflow":
                    mark("out", q, rows)
                else:  # slip: mirrored direction at the tangential neighbour
                    mvec, tvec = v.copy(), v.copy()
                    mvec[fi // 2], tvec[fi // 2] = -v[fi // 2], 0
                    mpos = np.where(per, (pos[rows] - tvec) % shape, pos[rows] - tvec)
                    good = np.all((mpos >= 0) & (mpos < shape), axis=1)
                    good[good] = lab[tuple(mpos[good].T)] == 0
                    if good.any():
                        mark("sl", q, rows[good],
                             lat.direction_index(mvec), grid.lookup(mpos[good]))
                    if (~good).any():
                        mark("bb", q, rows[~good])

        def cat(table, col, dtype=np.int64):
            return np.concatenate([np.empty(0, dtype)] + [
                np.broadcast_to(np.asarray(p[col]), p[1].shape).astype(dtype)
                for p in T[table]])

        row_of_slot = rows_of(lvl)
        a = {"owned_slots": owned_slots, "ghost_slots": ghost_slots,
             "fine_ghost_slots": fg_slots,
             "pull_rows": row_of_slot[pull_src], "kind": kind}
        for table, cols in (("bb", "q cell"), ("mov", "q cell"), ("out", "q cell"),
                            ("sb", "q cell"), ("sl", "q cell src_q src"),
                            ("exp", "q cell rows ghost_rows"), ("coal", "q cell src")):
            for col, name in enumerate(cols.split()):
                a[f"{table}_{name}"] = cat(table, col)
        a["exp_rows"] = rows_of(lvl - 1)[a["exp_rows"]] if lvl else a["exp_rows"]
        a["exp_ghost_rows"] = row_of_slot[a["exp_ghost_rows"]]
        a["mov_term"] = cat("mov", 2, np.float64)
        a["out_val"] = lat.w[a["out_q"]] if a["out_q"].size else np.empty(0)
        # Coalescence entry (q, x): the finer cells whose q-pull leaves that
        # level into one of x's children, child by child (C order); -1
        # where the finer level does not own the cell
        children = np.array(list(itertools.product((0, 1), repeat=d)))
        src = np.full((2 ** d, a["coal_q"].size), -1, dtype=np.int64)
        if a["coal_q"].size:
            fine_shape = shape * 2
            for c, child in enumerate(children):
                at = 2 * pos[a["coal_cell"]] + child - lat.e[a["coal_q"]]
                at = np.where(per, at % fine_shape, at)
                ok = np.all((at >= 0) & (at < fine_shape), axis=1)
                ok[ok] = labels[lvl + 1][tuple(at[ok].T)] == 0
                src[c, ok] = rows_of(lvl + 1)[grids[lvl + 1].lookup(at[ok])]
        a["acc_src_rows"] = src
        a["fg_coarse_rows"] = (rows_of(lvl - 1)[grids[lvl - 1].lookup(
            grid.cell_positions()[fg_slots] // 2)]
            if fg_slots.size else np.empty(0, dtype=np.int64))
        # every index the grid keeps is int32
        out[lvl] = {k: v.astype(np.int32) if v.dtype.kind == "i" and k != "kind" else v
                    for k, v in a.items()}
    return out


def folded_pull(a, lat, stride=None):
    """The flat-source table ``q_src * stride + row``, entry by entry, from
    one level of the reference: its row pull and its kind lists.  The
    stride of the grid's table is ``n_owned``, the length of ``fstar``."""
    n_rows = a["owned_slots"].size + a["fine_ghost_slots"].size
    stride = a["owned_slots"].size if stride is None else stride
    row_of_slot = np.full(int(max(a["owned_slots"].max(),
                                  a["fine_ghost_slots"].max(initial=0))) + 1, -1)
    row_of_slot[np.concatenate([a["owned_slots"], a["fine_ghost_slots"]])] = \
        np.arange(n_rows)
    # interior pulls; outflow / explosion / coalescence refer to themselves
    flat = np.arange(lat.q)[:, None] * stride + a["pull_rows"].astype(np.int64)
    for t in ("bb", "mov"):                 # the cell's own opposite population
        q, cell = a[f"{t}_q"], a[f"{t}_cell"]
        flat[q, cell] = lat.opp[q] * stride + cell
    flat[a["sl_q"], a["sl_cell"]] = (a["sl_src_q"] * stride
                                     + row_of_slot[a["sl_src"]])
    return flat


def n_listed(a):
    """Pulls the kind lists of a reference level hold."""
    return sum(a[f"{table}_q"].size for table in _KIND_CODES)


def _span(rows):
    return (int(rows.min()), int(rows.max()) + 1) if rows.size else (0, 0)


def compiled_form(ref, lvl, lat):
    """What a ``CompiledLevel`` holds, from the reference's kind lists:
    ``(arrays, values)``.  Each list becomes flat ``intp`` entries ``q *
    stride + row`` (the Coalescence bins int32 ``q * n_ghost + ghost``),
    whose ``divmod`` by the stride gives the list back; the Coalescence
    entries are sorted by how many finer cells stream into them, most
    first, and ``acc_sources`` row ``j`` holds the ``j``-th of them (in
    child order) of every entry that has one; spans and counts are read
    off the lists."""
    a = ref[lvl]
    n, ng = a["owned_slots"].size, a["ghost_slots"].size
    up_n = ref[lvl - 1]["owned_slots"].size if lvl else 0
    fine_n = ref[lvl + 1]["owned_slots"].size if lvl + 1 in ref else 0

    def flat(q, stride, rows):
        return q.astype(np.intp) * stride + rows

    arrays = {k: a[k] for k in ("owned_slots", "ghost_slots", "fine_ghost_slots",
                                "mov_term", "out_val", "sb_q", "sb_cell",
                                "exp_ghost_rows", "fg_coarse_rows")}
    src = a["acc_src_rows"]
    owned = src >= 0
    n_src = owned.sum(axis=0)
    order = np.argsort(-n_src, kind="stable")
    packed = np.take_along_axis(src, np.argsort(~owned, axis=0, kind="stable"), axis=0)
    coal_q, rows = a["coal_q"][order], [int((n_src > j).sum()) for j in range(n_src.max(initial=0))]
    arrays.update(
        mov_dst=flat(a["mov_q"], n, a["mov_cell"]),
        out_dst=flat(a["out_q"], n, a["out_cell"]),
        exp_dst=flat(a["exp_q"], n, a["exp_cell"]),
        exp_src=flat(a["exp_q"], up_n, a["exp_rows"]),
        coal_dst=flat(a["coal_q"], n, a["coal_cell"])[order],
        coal_bin=(a["coal_q"] * ng + a["coal_src"]).astype(np.int32)[order],
        acc_sources=tuple(flat(coal_q[:m], fine_n, packed[j, order[:m]])
                          for j, m in enumerate(rows)))
    values = dict(
        exp_dst_span=_span(a["exp_cell"]), exp_src_span=_span(a["exp_rows"]),
        coal_dst_span=_span(a["coal_cell"]), coal_src_span=_span(a["coal_src"]),
        acc_span=_span(src[owned]),
        n_interface_fine=np.unique(a["exp_cell"]).size,
        n_interface_coarse=np.unique(a["coal_cell"]).size)
    return arrays, values


def assert_same_map(got, want, where):
    """``got`` is ``want``, dtype and values; a ragged map row by row."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want), where
        for j, (g, w) in enumerate(zip(got, want)):
            assert_same_map(g, w, where + (j,))
        return
    assert got.dtype == want.dtype, where + (got.dtype,)
    assert np.array_equal(got, want), where


def table_groups(table, n):
    """Direction groups of one level read off its pull table: the rows
    joined by the source directions ``entry // n_owned`` they read,
    identity rows (the rest direction) left out; sorted lists."""
    root = list(range(table.shape[0]))

    def find(q):
        while root[q] != q:
            q = root[q]
        return q
    moving = [q for q, row in enumerate(table)
              if not np.array_equal(row, q * n + np.arange(n))]
    for q in moving:
        for src in np.unique(table[q] // n):
            root[find(q)] = find(int(src))
    groups = {}
    for q in moving:
        groups.setdefault(find(q), []).append(q)
    return sorted(groups.values())


def assert_one_kind_per_pull(cl, a):
    """Every non-interior (q, cell) of the reference sits in exactly one of
    its kind lists, the one its ``kind`` matrix names: the lists are
    disjoint, so folding them into the pull table needs no order.  The
    entries the grid leaves to another kernel part are that kind's."""
    kind = a["kind"]
    listed = np.zeros(kind.shape, dtype=np.int64)
    for table, code in _KIND_CODES.items():
        q, cell = a[f"{table}_q"], a[f"{table}_cell"]
        np.add.at(listed, (q, cell), 1)
        assert (kind[q, cell] == code).all(), (cl.level, table)
    assert np.array_equal(listed, kind != INTERIOR), cl.level
    for table in ("mov", "out", "exp", "coal"):
        dst = getattr(cl, f"{table}_dst")
        assert (kind.ravel()[dst] == _KIND_CODES[table]).all(), (cl.level, table)


def assert_matches_reference(spec, lat):
    mg = build_multigrid(spec, lat)
    ref = ref_compile(spec, lat)
    for cl in mg.levels:
        a = ref[cl.level]
        want, values = compiled_form(ref, cl.level, lat)
        fields = [f.name for f in dataclasses.fields(cl)
                  if isinstance(getattr(cl, f.name), np.ndarray) or f.name == "acc_sources"]
        assert sorted(fields) == sorted(set(want) | {"pull_flat"})
        for name in want:
            assert_same_map(getattr(cl, name), want[name], (cl.level, name))
        for name, value in values.items():
            assert getattr(cl, name) == value, (cl.level, name)
        assert_one_kind_per_pull(cl, a)
        table = cl.pull_flat
        assert table.dtype == np.int32 and not table.flags.writeable
        assert np.array_equal(table, folded_pull(a, lat)), cl.level
        # the groups part the moving directions, largest first, each closed
        # under the source directions its rows read
        groups = [set(g) for g in cl.groups]
        assert sorted(q for g in groups for q in g) == [
            q for q in range(lat.q) if lat.e[q].any()]
        assert [len(g) for g in groups] == sorted(map(len, groups), reverse=True)
        for g in groups:
            assert all(set(np.unique(table[q] // max(cl.n_owned, 1))) <= g for q in g)
        assert all(any(set(t) <= g for g in groups)
                   for t in table_groups(table, cl.n_owned))
        # every source is an owned row of the (Q, n_owned) fstar
        n = cl.n_owned
        assert table.min() >= 0 and table.max() < lat.q * n, cl.level
        sources = np.concatenate([a["pull_rows"].ravel(),
                                  cl.row_of_slot()[a["sl_src"]]])
        assert (sources < n).all(), cl.level
        interior = a["kind"] == INTERIOR
        assert np.array_equal((table % n)[interior], a["pull_rows"][interior])
    return mg


_BC_FLAVOURS = ("walls", "moving", "periodic", "slip", "open")


def flavoured_bc(d, flavour):
    """Face mixes named after the kind they add to the default walls."""
    last = "xyz"[d - 1]
    vel = (0.05,) + (0.0,) * (d - 1)
    faces = {
        "walls": {},
        "moving": {f"{last}+": FaceBC("moving", velocity=vel)},
        "periodic": {"x-": FaceBC("periodic"), "x+": FaceBC("periodic"),
                     f"{last}+": FaceBC("moving", velocity=vel)},
        "slip": {"y-": FaceBC("slip"), "y+": FaceBC("slip"), "x+": FaceBC("outflow")},
        "open": {"x-": FaceBC("inlet", velocity=vel), "x+": FaceBC("outflow"),
                 "y-": FaceBC("slip")},
    }[flavour]
    return DomainBC(faces)


def nested_box_spec(base, levels, bc, solid=False, block_size=4, curve="morton"):
    """Nested box refinement hugging the low x face (the whole of x when periodic)."""
    d = len(base)
    periodic_x = bc.periodic_axes(d)[0]
    lo, hi = [2] * d, [n - 3 for n in base]
    regions = []
    for k in range(levels - 1):
        shape = tuple(n * 2 ** k for n in base)
        if periodic_x:
            lo[0], hi[0] = 0, shape[0]
        elif k == 0:
            lo[0] = 0
        region = np.zeros(shape, dtype=bool)
        region[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
        regions.append(region)
        lo = [2 * a + (3 if a else 0) for a in lo]
        hi = [2 * b - 3 for b in hi]
    mask = None
    if solid:
        mask = np.zeros(tuple(n * 2 ** (levels - 1) for n in base), dtype=bool)
        mask[tuple(slice((a + b) // 2 - 1, (a + b) // 2 + 1)
                   for a, b in zip(lo, hi))] = True       # inside the finest box
    return RefinementSpec(base, regions, solid=mask, bc=bc,
                          block_size=block_size, curve=curve)


def _reference_cases():
    for (base, lat), flavour, levels, solid, block, curve in itertools.product(
            # (a 9-wide axis would leave the third level nothing but children
            # of coarse ghost cells, where validation refuses a solid)
            (((15, 13), D2Q9), ((11, 11, 13), D3Q19)), _BC_FLAVOURS, (1, 2, 3),
            (False, True), (2, 4, 8), ("morton", "hilbert")):
        yield pytest.param(
            base, lat, flavour, levels, solid, block, curve,
            id=f"{len(base)}d-{flavour}-L{levels}-{'solid' if solid else 'fluid'}"
               f"-B{block}-{curve}")


class TestCompileMatchesReference:
    @pytest.mark.parametrize("base,lat,flavour,levels,solid,block,curve",
                             _reference_cases())
    def test_every_array_equal(self, base, lat, flavour, levels, solid, block, curve):
        # no base extent is a multiple of any block size: edge blocks are padded
        spec = nested_box_spec(base, levels, flavoured_bc(len(base), flavour),
                               solid=solid, block_size=block, curve=curve)
        mg = assert_matches_reference(spec, lat)
        assert mg.num_levels == levels

    def test_d3q27_sphere_tunnel(self):
        assert_matches_reference(sphere_tunnel(scale=0.25).spec, D3Q27)

    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 9), (2, 5, 11)])
    def test_dilation(self, shape):
        rng = np.random.default_rng(sum(shape))
        for radius, p_set in itertools.product((1, 2, 4), (0.03, 0.3)):
            mask = rng.random(shape) < p_set
            for per in itertools.product((False, True), repeat=len(shape)):
                got = _dilate(mask, radius, list(per))
                assert got.dtype == np.bool_
                assert np.array_equal(got, ref_dilate(mask, radius, list(per)))


#: 25 random topologies locally; ``--hypothesis-profile ci`` (tests/conftest.py,
#: selected by the workflow's tier-1 step) spends the profile's 200.
grid_budget = (settings.get_profile("ci")
               if settings.get_current_profile_name() == "ci"
               else settings(max_examples=25, deadline=None))


def draw_faces(draw, d):
    """A random face-BC mix: periodic faces in pairs, every other kind free."""
    vel = tuple(draw(st.floats(-0.05, 0.05)) for _ in range(d))
    faces = {}
    for axis in "xyz"[:d]:
        lo = draw(st.sampled_from(_FACE_KINDS))
        hi = lo if lo == "periodic" else draw(
            st.sampled_from([k for k in _FACE_KINDS if k != "periodic"]))
        for name, kind in ((f"{axis}-", lo), (f"{axis}+", hi)):
            faces[name] = FaceBC(kind, velocity=vel if kind in ("moving", "inlet") else None)
    return faces


@st.composite
def random_specs(draw):
    """Random nested boxes, face-BC mixes and storage; legality not guaranteed."""
    d = draw(st.sampled_from((2, 3)))
    base = tuple(draw(st.integers(5, 12 if d == 2 else 8)) for _ in range(d))
    levels = draw(st.sampled_from((1, 2, 2, 3, 3)))
    faces = draw_faces(draw, d)
    # Each level's box sits 0-2 cells inside the range the previous one
    # leaves it: its children, less the two cells of coarse-ghost children
    # on every side that is not a domain face.  Periodic seams and tight
    # boxes still produce illegal specs; the property discards those.
    regions = []
    lo, hi = [0] * d, list(base)
    for k in range(levels):
        extent = [n * 2 ** k for n in base]
        box = [slice(a + draw(st.integers(0, 2)), b - draw(st.integers(0, 2)))
               for a, b in zip(lo, hi)]
        assume(all(s.start < s.stop for s in box))
        if k == levels - 1:
            break
        region = np.zeros(extent, dtype=bool)
        region[tuple(box)] = True
        regions.append(region)
        lo = [2 * s.start + (2 if s.start else 0) for s in box]
        hi = [2 * s.stop - (2 if s.stop < n else 0) for s, n in zip(box, extent)]
    solid = None
    if draw(st.booleans()):
        solid = np.zeros(extent, dtype=bool)
        solid[tuple(slice(s.start, s.start + draw(st.integers(1, 2))) for s in box)] = True
    return RefinementSpec(base, regions, solid=solid, bc=DomainBC(faces),
                          block_size=draw(st.sampled_from((2, 4, 8))),
                          curve=draw(st.sampled_from(("morton", "hilbert"))))


@st.composite
def inner_specs(draw):
    """Random refinements whose finer levels sit well inside the box, so
    their build windows are inner ones: the level-0 region keeps 0 to a
    third of the box off each face, and on a periodic axis it is an arc
    of a third of the axis or more, which may cross the seam.  Each finer
    region keeps 0-2 cells more than the coarse-ghost children's two off
    every side that is not a face; a solid sits in the finest region's
    middle; blocks may be odd.  Legality not guaranteed."""
    d = draw(st.sampled_from((2, 3)))
    base = tuple(draw(st.integers(9, 24 if d == 2 else 12)) for _ in range(d))
    levels = draw(st.sampled_from((2, 3) if d == 2 else (2, 2, 3)))
    bc = DomainBC(draw_faces(draw, d))
    periodic = bc.periodic_axes(d)
    # per axis an arc (start, length) of the level's circle of n cells;
    # a non-periodic axis never wraps
    arcs = []
    for n, wrap in zip(base, periodic):
        if wrap:
            length = draw(st.integers(n // 3, n))
            arcs.append((draw(st.integers(0, n - 1)) if length < n else 0, length))
        else:
            lo, hi = draw(st.integers(0, n // 3)), draw(st.integers(0, n // 3))
            arcs.append((lo, n - lo - hi))
    regions = []
    for k in range(levels - 1):
        shape = tuple(n * 2 ** k for n in base)
        region = np.ones(shape, dtype=bool)
        for axis, ((start, length), n) in enumerate(zip(arcs, shape)):
            on = np.zeros(n, dtype=bool)
            on[(start + np.arange(length)) % n] = True
            region &= on.reshape([-1 if a == axis else 1 for a in range(d)])
        regions.append(region)
        nxt = []
        for (start, length), n, wrap in zip(arcs, shape, periodic):
            # no clearance at a face, nor on an axis the region spans
            lo = 0 if length == n or (start == 0 and not wrap) else 2 + draw(st.integers(0, 2))
            hi = 0 if length == n or (start + length == n and not wrap) \
                else 2 + draw(st.integers(0, 2))
            nxt.append((2 * start + lo, 2 * length - lo - hi))
        arcs = nxt
        assume(all(length > 0 for _, length in arcs))
    solid = None
    if draw(st.booleans()):
        shape = tuple(n * 2 ** (levels - 1) for n in base)
        solid = np.zeros(shape, dtype=bool)
        solid[np.ix_(*[(start + length // 2 + np.arange(draw(st.integers(1, 2)))) % n
                       for (start, length), n in zip(arcs, shape)])] = True
    return RefinementSpec(base, regions, solid=solid, bc=bc,
                          block_size=draw(st.sampled_from((2, 3, 4, 8))),
                          curve=draw(st.sampled_from(("morton", "hilbert"))))


@grid_budget
@given(st.one_of(random_specs(), inner_specs()))
def test_random_topologies_match_reference(spec):
    try:
        _validate_spec(spec)
    except ValueError:
        assume(False)
    assert_matches_reference(spec, D2Q9 if spec.d == 2 else D3Q19)


def ref_validate(spec):
    """The spec rules over each level's whole box: ``None`` when the spec
    is legal, else the message ``_validate_spec`` refuses it with."""
    per = spec.bc.periodic_axes(spec.d)
    covered = np.ones(spec.base_shape, dtype=bool)
    for k, region in enumerate(spec.refine_regions):
        region = np.asarray(region, dtype=bool)
        if region.shape != spec.level_shape(k):
            return f"refine_regions[{k}] has shape {region.shape}, expected {spec.level_shape(k)}"
        if not region.any():
            return f"refine_regions[{k}] refines nothing"
        if (region & ~covered).any():
            return (f"refine_regions[{k}] refines cells not covered by level {k} "
                    "(refinement regions must nest)")
        if not (covered & ~region).any():
            return (f"refine_regions[{k}] refines every level-{k} cell: "
                    f"level {k} would own no cells")
        if (ref_dilate(region, 1, per) & ~covered).any():
            return (f"refine_regions[{k}] violates the max level jump of 1 "
                    "(needs at least one unrefined cell of the previous level "
                    "between successive refinement boundaries)")
        ghost_children = ref_upsample2(ref_dilate(covered & ~region, 1, per) & region)
        nxt = spec.refine_regions[k + 1] if k + 1 < len(spec.refine_regions) else None
        if nxt is not None and (ghost_children & nxt).any():
            return (f"refine_regions[{k + 1}] starts too close to the "
                    f"level-{k}/{k + 1} interface: the ghost layer's children "
                    f"must remain level-{k + 1} cells (leave at least two "
                    f"level-{k + 1} cells between successive interfaces)")
        covered = ref_upsample2(region)
    solid = spec.solid
    if solid is not None and solid.any() and spec.num_levels > 1:
        if (ref_dilate(solid, 1, per) & ~covered).any():
            return ("solid cells must be surrounded by finest-level cells "
                    "(refine around the obstacle)")
        hit = np.argwhere(ghost_children & solid)
        if hit.size:
            return (f"solid cell {tuple(hit[0].tolist())} is a child of level "
                    f"{k}'s coarse ghost cell {tuple((hit[0] // 2).tolist())}: "
                    f"keep the obstacle two level-{k + 1} cells off the interface")
    return None


@grid_budget
@given(st.one_of(random_specs(), inner_specs()))
def test_random_specs_validate_like_the_dense_rules(spec):
    """``_validate_spec`` checks each rule inside the levels' windows; the
    whole-box rules accept and refuse the same specs, with the same message."""
    try:
        _validate_spec(spec)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == ref_validate(spec)


def assert_interface_counts(mg):
    for cl in mg.levels:
        assert cl.n_interface_fine == np.unique(cl.exp_dst % cl.n_owned).size, cl.level
        assert cl.n_interface_coarse == np.unique(cl.coal_dst % cl.n_owned).size, cl.level


def test_interface_counts_are_distinct_cells():
    """``n_interface_fine`` / ``_coarse`` (a flag scatter) equal the number of
    distinct explosion / coalescence cells (an entry modulo ``n_owned``)
    over the reference matrix."""
    for case in _reference_cases():
        base, lat, flavour, levels, solid, block, curve = case.values
        mg = build_multigrid(nested_box_spec(base, levels, flavoured_bc(len(base), flavour),
                                             solid=solid, block_size=block, curve=curve), lat)
        assert_interface_counts(mg)


@grid_budget
@given(random_specs())
def test_random_topologies_count_interface_cells(spec):
    try:
        _validate_spec(spec)
    except ValueError:
        assume(False)
    assert_interface_counts(build_multigrid(spec, D2Q9 if spec.d == 2 else D3Q19))


# -- pinned compile witness ------------------------------------------------------
#
# SHA-256 over (name, dtype, shape, bytes) of every CompiledLevel and
# BlockSparseGrid array, per spec: "same arrays out, bit for bit", checked
# directly.  A digest that moves means every downstream number may move.
# The pins were computed from the arrays of the compile that still kept
# its kind lists: every array it shared kept as it was, the flat maps
# taken from that engine's own map builders (its bodies bound on every
# level), the Coalescence bins stored int32, the lists dropped, and
# hashed in this form (before that, the int64 / slot-space arrays were
# converted to int32 rows in the same way).  Since the grid stopped
# building its block-neighbour table, each pin is the digest of the
# compile that still built it with ``block_neighbors`` deleted from every
# level's BlockSparseGrid: no other array moved.  Since Accumulate gathers
# the populations that stream out of the finer level (``acc_sources``, in
# place of ``acc_children``), each pin hashes those rows and the
# Coalescence entries in their new order; every other array, and the set
# of ``coal_dst`` / ``coal_bin`` values, kept its bytes.

def shell_cavity(offsets):
    """The 16³×3 anchor cavity with its innermost refinement shell moved per
    wall by ``offsets`` (x-, x+, y-, y+, z-, z+), as ``coldstart-mix`` varies it."""
    spec = lid_cavity(base=(16, 16, 16), num_levels=3).spec
    last = spec.refine_regions[-1]
    thick = int(np.argmin(last[(slice(None),) + tuple(n // 2 for n in last.shape[1:])]))
    region = np.zeros_like(last)
    for axis, side in itertools.product(range(3), (0, 1)):
        t = thick + offsets[2 * axis + side]
        idx = [slice(None)] * 3
        idx[axis] = slice(0, t) if side == 0 else slice(last.shape[axis] - t, None)
        region[tuple(idx)] = True
    return dataclasses.replace(spec, refine_regions=spec.refine_regions[:-1] + [region])


def _witness_specs():
    vel = (0.05, 0.0)
    periodic = FaceBC("periodic")
    return {
        "cavity-12c-L2": (lid_cavity(base=(12, 12, 12), num_levels=2).spec, D3Q19),
        "cavity-16c-L3": (lid_cavity(base=(16, 16, 16), num_levels=3).spec, D3Q19),
        "cavity-24c-L3": (lid_cavity(base=(24, 24, 24), num_levels=3).spec, D3Q19),
        "sphere-s0.25": (sphere_tunnel(scale=0.25).spec, D3Q27),
        "sphere-s0.5": (sphere_tunnel(scale=0.5).spec, D3Q27),
        "2d-periodic-slip-moving-L3": (nested_box_spec((40, 28), 3, DomainBC({
            "x-": periodic, "x+": periodic, "y-": FaceBC("slip"),
            "y+": FaceBC("moving", velocity=vel)})), D2Q9),
        "2d-fully-periodic-B8-hilbert": (nested_box_spec((36, 30), 3, DomainBC({
            f: periodic for f in ("x-", "x+", "y-", "y+")}),
            block_size=8, curve="hilbert"), D2Q9),
        "3d-periodic-inlet-outflow-slip-B2": (nested_box_spec((14, 11, 13), 3, DomainBC({
            "x-": FaceBC("inlet", velocity=(0.05, 0.0, 0.0)), "x+": FaceBC("outflow"),
            "y-": FaceBC("slip"), "y+": FaceBC("slip"), "z-": periodic, "z+": periodic}),
            solid=True, block_size=2), D3Q19),
        "coldstart-shell-a": (shell_cavity((-1, 0, 0, 0, 0, 1)), D3Q19),
        "coldstart-shell-b": (shell_cavity((0, 1, -1, 1, -1, 0)), D3Q19),
        "served-2d-64-L3": (lid_cavity(base=(64, 64), num_levels=3, lattice="D2Q9").spec,
                            D2Q9),
    }


WITNESS = {
    "2d-fully-periodic-B8-hilbert":
        "114537092c8931840d475a86808628717d853e30abe1db0bdc76f5c426384a9f",
    "2d-periodic-slip-moving-L3":
        "a2346f0a4668bf0146144b3ac03cf43fe930ef44c767170b35800da06be742d9",
    "3d-periodic-inlet-outflow-slip-B2":
        "3c0f9c09d8a86c5baed272afc4959e0be2b924cf93cfe9b78142c5b0bd199d47",
    "cavity-12c-L2":
        "8b9d23a041136a1cff47cb97f345a4b8cc62a4b2264f03447fa78a9005ce0df2",
    "cavity-16c-L3":
        "0e8445a3670e15c25b51b2054e2781e2724c3fa0a528a27469a22b9c041b7357",
    "cavity-24c-L3":
        "db3c643c963ca305948edf539db467a4b4d1558229819e83cedc99b3ae147bed",
    "coldstart-shell-a":
        "2e7df0c7ec70005b46baf0bf9165120926aead402f06ae7b88a255a48465c76c",
    "coldstart-shell-b":
        "9ce9bbda1ee7833c8b8127178eaafb3441c530ea8d6e33036f6680a7d2b2877a",
    "served-2d-64-L3":
        "3e716f04b3f136bfa6a7675135e1b36f3c60029621d63428803a4474624a1574",
    "sphere-s0.25":
        "2a2a48b3b40d7c09ed85adbc392dbab250e51c8195d853b15088c035da6dfb6e",
    "sphere-s0.5":
        "a082847f2376d93c7798dc1e1e9701098cd0aaa4747836af4bd2dedfaa05e5f1",
}


def test_spec_digest_names_the_grid():
    # equal content in other objects: one digest, recorded on the grid;
    # anything a compile reads moves it
    def spec(**kw):
        return dataclasses.replace(lid_cavity(base=(16, 16), num_levels=3,
                                              lattice="D2Q9").spec, **kw)

    base = spec_digest(spec(), D2Q9)
    assert spec_digest(spec(), "D2Q9") == base
    assert build_multigrid(spec(), D2Q9).digest == base
    region = spec().refine_regions[1].copy()
    region[region.nonzero()[0][0], region.nonzero()[1][0]] = False
    solid = np.zeros(spec().level_shape(2), dtype=bool)
    variants = [spec(refine_regions=spec().refine_regions[:1] + [region]),
                spec(solid=solid), spec(block_size=8), spec(curve="hilbert"),
                spec(bc=DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})),
                spec(base_shape=(16, 17))]
    digests = {spec_digest(v, D2Q9) for v in variants}
    assert base not in digests and len(digests) == len(variants)
    wl = lid_cavity(base=(8, 8, 8), num_levels=2)
    assert spec_digest(wl.spec, D3Q19) != spec_digest(wl.spec, D3Q27)


def test_spec_digest_hashes_the_mask_bits():
    # the masks enter as their shape and packed bits: a JSON round trip
    # (base64 text in between) keeps the digest, one flipped cell of any
    # mask moves it, and so do a face and the lattice
    spec = sphere_tunnel(scale=0.25).spec
    base = spec_digest(spec, "D3Q27")
    back = RefinementSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
    assert spec_digest(back, "D3Q27") == base
    masks = [("refine_regions", k) for k in range(len(spec.refine_regions))]
    assert spec.solid is not None
    for name, k in masks + [("solid", None)]:
        flipped = [m.copy() for m in spec.refine_regions]
        solid = spec.solid.copy()
        mask = solid if k is None else flipped[k]
        mask.flat[mask.size // 2] ^= True
        other = dataclasses.replace(spec, refine_regions=flipped, solid=solid)
        assert spec_digest(other, "D3Q27") != base, (name, k)
    faces = dict(spec.bc.faces, **{"y+": FaceBC("slip")})
    assert spec_digest(dataclasses.replace(spec, bc=DomainBC(faces)), "D3Q27") != base
    assert spec_digest(spec, "D3Q19") != base


@pytest.mark.parametrize("name", sorted(WITNESS))
def test_compile_witness_pinned(name):
    mg = build_multigrid(*_witness_specs()[name])
    assert grid_arrays_digest(mg) == WITNESS[name]
    lv, table_name, table = next(t for t in compile_arrays(mg) if t[2].size > 1)
    setattr(mg.levels[lv].grid, f"{table_name}_twin", table[::-1])  # a view: hashed too
    assert grid_arrays_digest(mg) != WITNESS[name]


class TestCompileMemory:
    """The build's ``tracemalloc`` peak over the bytes of its result, MiB.

    Ceilings are the reading + 2 MiB (half sphere 2.6, anchor 3.7).  Each
    level's dense tables are locals of its compile and span the level's
    window, not its box: the half sphere's finest window is 188 160 of the
    box's 1 775 616 cells.  A fine-resolution copy of a coarser level's
    table (4 bytes per finest padded cell, +7.1 MiB on the half sphere)
    fails the first test; dense arrays over the whole box (12.4 MiB on the
    half sphere, 22.2 on its twice-as-long twin) fail the first and the
    third.  The half sphere peaks in its finest level's ``_link_coarser``;
    the anchor, whose windows are its boxes, in its finest ``_classify``.
    """

    @staticmethod
    def excess_mib(spec, lat):
        build_multigrid(spec, lat)          # imports and first-touch out of the way
        gc.collect()
        tracemalloc.start()
        try:
            mg = build_multigrid(spec, lat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (peak - sum(memory_ledger(mg).values())) / 2 ** 20

    def test_peak_stays_near_the_result(self):
        assert self.excess_mib(sphere_tunnel(scale=0.5).spec, D3Q27) < 4.7

    def test_anchor_peak_stays_near_the_result(self):
        assert self.excess_mib(lid_cavity(base=(16, 16, 16), num_levels=3).spec,
                               D3Q19) < 5.7

    def test_build_excess_does_not_follow_the_box(self):
        # the half sphere's sphere and shells in a tunnel twice as long:
        # 1.78 M finest-box cells more, as many refined cells
        long = sphere_tunnel(finest_shape=(544, 192, 272), scale=0.5).spec
        half = sphere_tunnel(scale=0.5).spec
        assert np.prod(long.level_shape(2)) - np.prod(half.level_shape(2)) > 1.7e6
        assert abs(self.excess_mib(long, D3Q27) - self.excess_mib(half, D3Q27)) < 1.0

    def test_no_level_shaped_array_survives_on_a_grid(self):
        spec = sphere_tunnel(scale=0.25).spec
        mg = build_multigrid(spec, D3Q27)
        for lv, family, name, a in memory_arrays(mg):
            if family == "blocks":
                assert a.size < np.prod(spec.level_shape(lv)), (lv, name, a.shape)
