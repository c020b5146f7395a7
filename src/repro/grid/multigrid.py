"""Multi-resolution grid stack and its compile step (paper Sections III & V-B).

The grid-refinement data structure is a *stack of uniform block-sparse
grids*, one per level, with glue information for the multi-level
operations (Explosion, Coalescence).  Level 0 is the coarsest; a level-L
cell subdivides into ``2^d`` level-(L+1) cells; the jump between
neighbouring cells is at most one level (strongly balanced octree).

Construction happens in two phases:

1. :class:`RefinementSpec` describes the domain: the coarse shape, nested
   refinement regions (each given at the resolution of the level being
   subdivided, which guarantees octree alignment), an optional solid
   obstacle at the finest resolution, and the boundary conditions of the
   six domain faces.
2. :func:`build_multigrid` validates the spec, derives the per-level
   ownership partition, allocates one :class:`BlockSparseGrid` per level
   (owned cells + the ghost layers of *both* algorithm variants) and
   pre-classifies every (cell, direction) streaming pull into the kinds of
   :mod:`repro.grid.kinds`.  After this compile step the time loop is pure
   vectorised gathers — the CPU analogue of the paper's precomputed
   neighbour/ghost indices on the GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.lattice import Lattice
from . import kinds
from .sparse_grid import BlockSparseGrid

__all__ = ["FaceBC", "DomainBC", "RefinementSpec", "CompiledLevel",
           "MultiGrid", "build_multigrid", "iter_pull_rows"]

_FACE_KINDS = ("wall", "moving", "inlet", "outflow", "periodic", "slip")
# When a diagonal pull exits through several faces at once, the face with
# the highest precedence decides the boundary treatment.
_PRECEDENCE = {"inlet": 0, "moving": 1, "wall": 2, "slip": 3, "outflow": 4}

#: Owner codes used in the per-level label arrays; ``_OUTSIDE`` fills the
#: one-cell pad of the compile step's label array on non-periodic axes.
_SELF, _FINER, _COARSER, _SOLID, _OUTSIDE = (np.int8(c) for c in range(5))


@dataclass(frozen=True)
class FaceBC:
    """Boundary condition of one domain face."""

    kind: str = "wall"
    velocity: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _FACE_KINDS:
            raise ValueError(f"unknown face BC {self.kind!r}; choose from {_FACE_KINDS}")
        if self.kind in ("moving", "inlet") and self.velocity is None:
            raise ValueError(f"{self.kind!r} faces need a velocity")


def _face_names(d: int) -> list[str]:
    return [f"{'xyz'[a]}{s}" for a in range(d) for s in ("-", "+")]


@dataclass(frozen=True)
class DomainBC:
    """Boundary conditions for all faces of the bounding box.

    ``faces`` maps face names (``"x-"``, ``"x+"``, ``"y-"``, ...) to
    :class:`FaceBC`; unspecified faces default to resting no-slip walls,
    the paper's default (halfway bounce-back).
    """

    faces: dict[str, FaceBC] = field(default_factory=dict)

    def face(self, name: str) -> FaceBC:
        return self.faces.get(name, FaceBC("wall"))

    def validate(self, d: int) -> None:
        valid = set(_face_names(d))
        for name in self.faces:
            if name not in valid:
                raise ValueError(f"unknown face {name!r} for a {d}-D domain")
        for axis in range(d):
            lo, hi = self.face(f"{'xyz'[axis]}-"), self.face(f"{'xyz'[axis]}+")
            if (lo.kind == "periodic") != (hi.kind == "periodic"):
                raise ValueError(f"axis {'xyz'[axis]}: periodic BCs must be paired")

    def periodic_axes(self, d: int) -> list[bool]:
        return [self.face(f"{'xyz'[a]}-").kind == "periodic" for a in range(d)]


@dataclass
class RefinementSpec:
    """Input description of a multi-resolution domain.

    Attributes
    ----------
    base_shape:
        Domain size in *coarse* (level-0) cells.
    refine_regions:
        ``refine_regions[k]`` is a boolean array at level-``k`` resolution
        (shape ``base_shape * 2^k``) flagging the level-``k`` cells to be
        subdivided into level ``k+1``.  An empty list gives a uniform grid.
    solid:
        Optional boolean obstacle mask at the *finest* resolution; solid
        cells are removed from the fluid and exchange momentum with it
        through halfway bounce-back.
    bc:
        Boundary conditions of the domain faces.
    block_size / curve:
        Storage parameters forwarded to :class:`BlockSparseGrid`.
    """

    base_shape: tuple[int, ...]
    refine_regions: list[np.ndarray] = field(default_factory=list)
    solid: np.ndarray | None = None
    bc: DomainBC = field(default_factory=DomainBC)
    block_size: int = 4
    curve: str = "morton"

    @property
    def num_levels(self) -> int:
        return len(self.refine_regions) + 1

    @property
    def d(self) -> int:
        return len(self.base_shape)

    def level_shape(self, level: int) -> tuple[int, ...]:
        return tuple(int(s) * 2 ** level for s in self.base_shape)


def _upsample2(mask: np.ndarray) -> np.ndarray:
    out = mask
    for axis in range(mask.ndim):
        out = np.repeat(out, 2, axis=axis)
    return out


def _dilate(mask: np.ndarray, radius: int,
            periodic: list[bool] | None = None) -> np.ndarray:
    """Chebyshev dilation, wrapping around periodic axes.

    Refinement interfaces interact across periodic seams (a cell at x=0
    neighbours x=N-1), so ghost layers and the level-jump validation must
    see the wrapped adjacency.  A Chebyshev ball is the Minkowski sum of
    one segment per axis, so ``d`` running maxima of width ``2r + 1``
    replace one pass over a ``(2r + 1)^d`` footprint; each is the OR of
    the ``2r + 1`` shifted slices of a copy padded by ``r`` along its axis.
    """
    if not mask.any():
        return mask.copy()
    out = mask
    for axis, n in enumerate(mask.shape):
        wrap = periodic is not None and periodic[axis]
        pad = [(radius, radius) if a == axis else (0, 0)
               for a in range(mask.ndim)]
        padded = np.pad(out, pad, mode="wrap" if wrap else "constant")
        lead = (slice(None),) * axis
        out = padded[lead + (slice(0, n),)].copy()
        for k in range(1, 2 * radius + 1):
            out |= padded[lead + (slice(k, k + n),)]
    return out


def _validate_spec(spec: RefinementSpec) -> None:
    spec.bc.validate(spec.d)
    per = spec.bc.periodic_axes(spec.d)
    covered = np.ones(spec.base_shape, dtype=bool)
    for k, region in enumerate(spec.refine_regions):
        region = np.asarray(region, dtype=bool)
        expected = spec.level_shape(k)
        if region.shape != expected:
            raise ValueError(
                f"refine_regions[{k}] has shape {region.shape}, expected {expected}"
            )
        if not region.any():
            raise ValueError(f"refine_regions[{k}] refines nothing")
        if (region & ~covered).any():
            raise ValueError(
                f"refine_regions[{k}] refines cells not covered by level {k} "
                "(refinement regions must nest)"
            )
        if not (covered & ~region).any():
            raise ValueError(
                f"refine_regions[{k}] refines every level-{k} cell: "
                f"level {k} would own no cells"
            )
        # Strong balance: a refined cell may not touch a cell that level k
        # does not cover, otherwise the level jump would exceed one.
        if (_dilate(region, 1, per) & ~covered).any():
            raise ValueError(
                f"refine_regions[{k}] violates the max level jump of 1 "
                "(needs at least one unrefined cell of the previous level "
                "between successive refinement boundaries)"
            )
        # The coarse-ghost layer of level k lives in the first level-k cell
        # ring inside the refined region; its level-(k+1) children must be
        # owned by level k+1, so the next interface has to stay clear of it
        # (and so do the solid cells, where level k+1 is the finest).
        ghost_children = _upsample2(_dilate(covered & ~region, 1, per) & region)
        if k + 1 < len(spec.refine_regions):
            nxt = np.asarray(spec.refine_regions[k + 1], dtype=bool)
            if (ghost_children & nxt).any():
                raise ValueError(
                    f"refine_regions[{k + 1}] starts too close to the "
                    f"level-{k}/{k + 1} interface: the ghost layer's children "
                    f"must remain level-{k + 1} cells (leave at least two "
                    f"level-{k + 1} cells between successive interfaces)"
                )
        covered = _upsample2(region)
    if spec.solid is not None:
        solid = np.asarray(spec.solid, dtype=bool)
        finest = spec.level_shape(spec.num_levels - 1)
        if solid.shape != finest:
            raise ValueError(
                f"solid mask has shape {solid.shape}, expected finest-level {finest}"
            )
        if solid.any() and spec.num_levels > 1:
            if (_dilate(solid, 1, per) & ~covered).any():
                raise ValueError(
                    "solid cells must be surrounded by finest-level cells "
                    "(refine around the obstacle)"
                )
            # Accumulate sums all 2^d children of a coarse ghost cell.
            hit = np.argwhere(ghost_children & solid)
            if hit.size:
                raise ValueError(
                    f"solid cell {tuple(hit[0].tolist())} is a child of level "
                    f"{k}'s coarse ghost cell {tuple((hit[0] // 2).tolist())}: "
                    f"keep the obstacle two level-{k + 1} cells off the interface")


@dataclass
class CompiledLevel:
    """One level of the stack with every precomputed streaming map.

    All COO tables (``bb_*``, ``mov_*``, ``out_*``, ``exp_*``, ``coal_*``)
    index into the *owned-cell row space* (0..n_owned-1) paired with a
    lattice direction.  ``pull_flat`` holds, per direction and owned cell,
    the entry ``q_src * n_owned + row`` (:meth:`row_of_slot`) of the level's
    flat ``(Q, n_owned)`` post-collision buffer that streaming reads (never
    a fine-ghost row: every source is an owned cell): the upstream row for
    an interior pull, the cell's own opposite population for bounce-back,
    moving and inlet links, the mirrored population of the tangential
    neighbour for slip, and the entry itself where another kernel part
    supplies the value (outflow, explosion, coalescence).  One read-only
    table, which the engine shares; the kind lists stay its definition.
    """

    level: int
    grid: BlockSparseGrid
    owned_slots: np.ndarray           # (n_owned,) slot ids, ordered by slot
    ghost_slots: np.ndarray           # coarse-ghost accumulator cells
    fine_ghost_slots: np.ndarray      # 4-layer fine ghosts (original baseline)
    pull_flat: np.ndarray             # (Q, n_owned) int32 flat fstar source entries
    kind: np.ndarray                  # (Q, n_owned) int8 pull classification
    # -- boundary tables -----------------------------------------------------
    bb_q: np.ndarray; bb_cell: np.ndarray
    mov_q: np.ndarray; mov_cell: np.ndarray; mov_term: np.ndarray
    out_q: np.ndarray; out_cell: np.ndarray; out_val: np.ndarray
    sl_q: np.ndarray; sl_cell: np.ndarray; sl_src_q: np.ndarray; sl_src: np.ndarray
    # -- solid-link subset of the bounce-back table (momentum exchange) ------
    sb_q: np.ndarray; sb_cell: np.ndarray
    # -- cross-level tables ----------------------------------------------------
    exp_q: np.ndarray; exp_cell: np.ndarray; exp_src: np.ndarray       # coarse slots
    exp_ghost_src: np.ndarray        # same values but as own fine-ghost slots (4a)
    coal_q: np.ndarray; coal_cell: np.ndarray; coal_src: np.ndarray    # ghost rows
    # -- accumulate maps (present when a finer level exists) -----------------
    acc_fine_slots: np.ndarray       # slots in the *finer* level's arrays
    acc_ghost_rows: np.ndarray       # rows of this level's ghost accumulator
    # -- original-baseline explosion copy (coarse f* -> fine ghost slots) ----
    fg_slots: np.ndarray             # this level's fine-ghost slots (4a)
    fg_coarse_src: np.ndarray        # source slots in the coarser level

    @property
    def n_owned(self) -> int:
        return int(self.owned_slots.size)

    @property
    def n_ghost(self) -> int:
        return int(self.ghost_slots.size)

    @property
    def n_alloc(self) -> int:
        return self.grid.n_alloc

    def row_of_slot(self) -> np.ndarray:
        """Slot -> row of the engine's per-level buffers (-1: not stored)."""
        return _row_of_slot(self.n_alloc, self.owned_slots, self.fine_ghost_slots)

    @property
    def n_interface_fine(self) -> int:
        """Owned cells with at least one explosion pull (fine side of an interface)."""
        return int(np.unique(self.exp_cell).size)

    @property
    def n_interface_coarse(self) -> int:
        """Owned cells with at least one coalescence pull (coarse side)."""
        return int(np.unique(self.coal_cell).size)


@dataclass
class MultiGrid:
    """The compiled stack of levels plus shared metadata."""

    spec: RefinementSpec
    lattice: Lattice
    levels: list[CompiledLevel]

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def d(self) -> int:
        return self.spec.d

    def total_active(self) -> int:
        """Active voxels over all levels, ghost cells excluded (paper's V_L sum)."""
        return sum(lv.n_owned for lv in self.levels)

    def active_per_level(self) -> list[int]:
        return [lv.n_owned for lv in self.levels]

    def finest_first_distribution(self) -> list[int]:
        """Voxel counts ordered finest-to-coarsest, as reported in Table I."""
        return [lv.n_owned for lv in reversed(self.levels)]


def _row_of_slot(n_alloc: int, owned_slots: np.ndarray,
                 fine_ghost_slots: np.ndarray) -> np.ndarray:
    """The row space: owned cells in slot order, then the fine ghosts."""
    rows = np.full(n_alloc, -1, dtype=np.int64)
    rows[owned_slots] = np.arange(owned_slots.size)
    rows[fine_ghost_slots] = owned_slots.size + np.arange(fine_ghost_slots.size)
    return rows


def iter_pull_rows(pull_flat: np.ndarray, n_owned: int):
    """Per direction, the source rows ``entry % n_owned`` of a pull table,
    each yielded in the one scratch row all directions share (as ``entry -
    entry // n_owned * n_owned``: NumPy divides an int32 array by a scalar
    three times faster than it takes the remainder)."""
    rows = np.empty(pull_flat.shape[1], dtype=pull_flat.dtype)
    for entries in pull_flat:
        np.floor_divide(entries, n_owned, out=rows)
        np.multiply(rows, n_owned, out=rows)
        yield np.subtract(entries, rows, out=rows)


def _owner_labels(spec: RefinementSpec) -> list[np.ndarray]:
    """Per-level label arrays over the full box at each level's resolution."""
    labels: list[np.ndarray] = []
    covered = np.ones(spec.base_shape, dtype=bool)
    for lvl in range(spec.num_levels):
        lab = np.full(spec.level_shape(lvl), _COARSER, dtype=np.int8)
        lab[covered] = _SELF
        if lvl < spec.num_levels - 1:
            region = np.asarray(spec.refine_regions[lvl], dtype=bool)
            lab[region] = _FINER
            covered = _upsample2(region)
        elif spec.solid is not None:
            lab[np.asarray(spec.solid, dtype=bool)] = _SOLID
        labels.append(lab)
    return labels


def _compile_level(spec: RefinementSpec, lat: Lattice, lvl: int,
                   labels: list[np.ndarray]) -> tuple[BlockSparseGrid, dict]:
    """Build one level's sparse grid and classify every streaming pull."""
    d, Q = spec.d, lat.q
    lab = labels[lvl]
    shape = np.asarray(spec.level_shape(lvl), dtype=np.int64)
    owned_mask = lab == _SELF
    # Coarse-ghost layer: one layer of this level's cells inside the finer
    # region, adjacent to owned cells (Section IV-A).
    per = spec.bc.periodic_axes(d)
    if lvl < spec.num_levels - 1:
        ghost_mask = _dilate(owned_mask, 1, per) & (lab == _FINER)
    else:
        ghost_mask = np.zeros_like(owned_mask)
    # Fine-ghost region of the original baseline: four layers of this
    # level's cells outside the owned region, overlapping the coarser
    # parent (Section III / Fig. 4a).
    if lvl > 0:
        parent_owned = _upsample2(labels[lvl - 1] == _SELF)
        fine_ghost_mask = _dilate(owned_mask, 4, per) & parent_owned
    else:
        fine_ghost_mask = np.zeros_like(owned_mask)
    alloc = owned_mask | ghost_mask | fine_ghost_mask
    grid = BlockSparseGrid.from_mask(alloc, level=lvl, block_size=spec.block_size,
                                     curve=spec.curve)
    pos_all = grid.cell_positions()
    # blocks are padded to B^d: slots past the box boundary are never active
    inside = np.flatnonzero(np.all(pos_all < shape, axis=1))
    cell_of_slot = np.ravel_multi_index(tuple(pos_all[inside].T), lab.shape)
    active = grid.active()

    def slots_of(mask: np.ndarray) -> np.ndarray:
        flag = np.zeros(grid.n_alloc, dtype=bool)
        flag[inside] = mask.ravel()[cell_of_slot]
        return np.flatnonzero(flag & active)

    return grid, {
        "owned_slots": slots_of(owned_mask), "ghost_slots": slots_of(ghost_mask),
        "fine_ghost_slots": slots_of(fine_ghost_mask), "shape": shape,
        "pos_all": pos_all, "inside": inside,
    }


def _wrap_pads(padded: np.ndarray, periodic: list[bool]) -> None:
    """Fill the one-cell pad of every periodic axis with the far side's cells."""
    for axis, wrap in enumerate(periodic):
        if wrap:
            p = np.moveaxis(padded, axis, 0)
            p[0], p[-1] = p[-2], p[1]


def build_multigrid(spec: RefinementSpec, lat: Lattice) -> MultiGrid:
    """Validate ``spec`` and compile the full multi-resolution stack."""
    if lat.d != spec.d:
        raise ValueError(f"lattice is {lat.d}-D but the domain is {spec.d}-D")
    _validate_spec(spec)
    labels = _owner_labels(spec)
    Q, d = lat.q, spec.d
    periodic = spec.bc.periodic_axes(d)
    face_names = _face_names(d)

    pre = [_compile_level(spec, lat, lvl, labels) for lvl in range(spec.num_levels)]
    grids = [g for g, _ in pre]

    levels: list[CompiledLevel] = []
    for lvl in range(spec.num_levels):
        grid, meta = pre[lvl]
        pre[lvl] = None                                    # pos_all dies with the level
        lab = labels[lvl]
        shape = meta["shape"]
        owned_slots = meta["owned_slots"]
        ghost_slots = meta["ghost_slots"]
        fine_ghost_slots = meta["fine_ghost_slots"]
        pos_all, inside = meta["pos_all"], meta["inside"]
        n_owned = owned_slots.size
        pos = pos_all[owned_slots]                         # (n_owned, d)

        # Dense transients over the box padded by one cell: owner labels
        # and an int32 position -> slot table.  A pull source is then one
        # flat offset away from its cell, with no bounds test: the pad
        # holds the far side on periodic axes and _OUTSIDE / -1 elsewhere.
        padded = tuple(int(n) + 2 for n in shape)
        strides = np.cumprod((1,) + padded[:0:-1])[::-1]
        cell_all = (pos_all + 1) @ strides                 # valid where `inside`
        lab_pad = np.full(padded, _OUTSIDE, dtype=np.int8)
        lab_pad[(slice(1, -1),) * d] = lab
        slot_pad = np.full(padded, -1, dtype=np.int32)
        slot_pad.ravel()[cell_all[inside]] = inside
        _wrap_pads(lab_pad, periodic)
        _wrap_pads(slot_pad, periodic)
        lab_flat, slot_flat = lab_pad.ravel(), slot_pad.ravel()
        cell = cell_all[owned_slots]

        ghost_row_of_slot = np.full(grid.n_alloc, -1, dtype=np.int64)
        ghost_row_of_slot[ghost_slots] = np.arange(ghost_slots.size)

        # int32 entry ids (the pull table's, the static model's) number the
        # (q, row) pairs of the row space, 4a's fine-ghost rows included
        n_rows = n_owned + fine_ghost_slots.size
        if Q * n_rows >= 2 ** 31:
            raise ValueError(f"level {lvl} has {Q} x {n_rows} population entries; "
                             f"int32 ids address fewer than 2**31")
        row_of_slot = _row_of_slot(grid.n_alloc, owned_slots, fine_ghost_slots)
        # every entry starts as a reference to itself and is overwritten
        # below, once, where its (q, cell) is classified
        pull_flat = (np.arange(Q, dtype=np.int32)[:, None] * np.int32(n_owned)
                     + np.arange(n_owned, dtype=np.int32))
        kind = np.full((Q, n_owned), kinds.INTERIOR, dtype=np.int8)

        bb, mov, out, exp, coal = [], [], [], [], []
        solid_bb, slip = [], []
        for q in range(Q):
            v = lat.e[q]
            if not v.any():  # rest population: trivially interior (self)
                continue
            src = cell - int(v @ strides)                  # flat pull source
            code = lab_flat.take(src)
            bounce = int(lat.opp[q]) * n_owned             # + cell: halfway bounce-back

            rows = np.flatnonzero(code == _SELF)
            pull_flat[q, rows] = q * n_owned + row_of_slot.take(slot_flat.take(src[rows]))
            rows_f = np.flatnonzero(code == _FINER)
            if rows_f.size:
                gslots = slot_flat.take(src[rows_f])
                coal.append((q, rows_f, ghost_row_of_slot[gslots]))
                kind[q, rows_f] = kinds.COALESCENCE
            rows_c = np.flatnonzero(code == _COARSER)
            if rows_c.size:
                # the source is inside the box, so % only acts on wrapped axes
                cslots = grids[lvl - 1].lookup((pos[rows_c] - v) % shape // 2)
                own_ghost = slot_flat.take(src[rows_c])    # 4a alternative source
                exp.append((q, rows_c, cslots, own_ghost))
                kind[q, rows_c] = kinds.EXPLOSION
            rows_s = np.flatnonzero(code == _SOLID)
            if rows_s.size:
                bb.append((q, rows_s))
                solid_bb.append((q, rows_s))
                kind[q, rows_s] = kinds.BOUNCEBACK
                pull_flat[q, rows_s] = bounce + rows_s

            rows_o = np.flatnonzero(code == _OUTSIDE)
            if rows_o.size:
                src_o = pos[rows_o] - v
                # pick the governing face by precedence among crossed faces
                best_rank = np.full(rows_o.size, 99, dtype=np.int64)
                best_face = np.zeros(rows_o.size, dtype=np.int64)
                for axis in range(d):
                    if periodic[axis]:  # wrapped by the pad, cannot be crossed
                        continue
                    for side, crossed in ((0, src_o[:, axis] < 0),
                                          (1, src_o[:, axis] >= shape[axis])):
                        fi = 2 * axis + side
                        rank = _PRECEDENCE[spec.bc.face(face_names[fi]).kind]
                        better = crossed & (rank < best_rank)
                        best_rank[better] = rank
                        best_face[better] = fi
                for fi in np.unique(best_face):
                    fbc = spec.bc.face(face_names[fi])
                    rows = rows_o[best_face == fi]
                    if fbc.kind == "wall":
                        bb.append((q, rows))
                        kind[q, rows] = kinds.BOUNCEBACK
                        pull_flat[q, rows] = bounce + rows
                    elif fbc.kind in ("moving", "inlet"):
                        uw = np.zeros(d) if fbc.velocity is None else np.asarray(fbc.velocity)
                        term = 2.0 * lat.w[q] * float(lat.ef[q] @ uw) / lat.cs2
                        mov.append((q, rows, term))
                        kind[q, rows] = kinds.MOVING
                        pull_flat[q, rows] = bounce + rows   # the body adds `term`
                    elif fbc.kind == "slip":
                        # Specular reflection at the halfway plane: sample
                        # the mirrored direction at the tangential
                        # neighbour on the cell's own wall-adjacent row
                        # (the mirror image of the out-of-domain source).
                        axis = fi // 2
                        mvec = lat.e[q].copy()
                        mvec[axis] = -mvec[axis]
                        mq = lat.direction_index(mvec)
                        tvec = lat.e[q].copy()
                        tvec[axis] = 0
                        mpos = pos[rows] - tvec
                        for ax in range(d):  # corners: wrap periodic axes
                            if periodic[ax]:
                                mpos[:, ax] %= shape[ax]
                        ok = np.all((mpos >= 0) & (mpos < shape), axis=1)
                        ok_idx = np.zeros(rows.size, dtype=bool)
                        if ok.any():
                            sl_code = lab[tuple(mpos[ok].T)]
                            good = sl_code == _SELF
                            tmp = np.flatnonzero(ok)
                            ok_idx[tmp[good]] = True
                        if ok_idx.any():
                            srows = rows[ok_idx]
                            slots = grid.lookup(mpos[ok_idx])
                            slip.append((q, srows, mq, slots))
                            kind[q, srows] = kinds.SLIP
                            pull_flat[q, srows] = mq * n_owned + row_of_slot[slots]
                        if (~ok_idx).any():
                            # mirrored source unavailable (interface or
                            # corner): degrade gracefully to bounce-back
                            brows = rows[~ok_idx]
                            bb.append((q, brows))
                            kind[q, brows] = kinds.BOUNCEBACK
                            pull_flat[q, brows] = bounce + brows
                    elif fbc.kind == "outflow":
                        out.append((q, rows))
                        kind[q, rows] = kinds.OUTFLOW
                    else:  # pragma: no cover - periodic was wrapped already
                        raise AssertionError("periodic faces cannot be crossed")
        del lab_pad, slot_pad, lab_flat, slot_flat, cell_all, cell   # freed before the next level

        def _cat(parts, col, dtype=np.int64):
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.concatenate([
                np.broadcast_to(np.asarray(p[col]), np.asarray(p[1]).shape).astype(dtype)
                for p in parts
            ])

        bb_q, bb_cell = _cat(bb, 0), _cat(bb, 1)
        mov_q, mov_cell = _cat(mov, 0), _cat(mov, 1)
        mov_term = _cat(mov, 2, dtype=np.float64)
        out_q, out_cell = _cat(out, 0), _cat(out, 1)
        out_val = lat.w[out_q] if out_q.size else np.empty(0)
        exp_q, exp_cell = _cat(exp, 0), _cat(exp, 1)
        exp_src, exp_ghost_src = _cat(exp, 2), _cat(exp, 3)
        coal_q, coal_cell, coal_src = _cat(coal, 0), _cat(coal, 1), _cat(coal, 2)
        sl_q, sl_cell = _cat(slip, 0), _cat(slip, 1)
        sl_src_q, sl_src = _cat(slip, 2), _cat(slip, 3)
        sb_q, sb_cell = _cat(solid_bb, 0), _cat(solid_bb, 1)
        if exp_src.size and (exp_src < 0).any():
            raise AssertionError("explosion source not allocated on the coarser level")
        if coal_src.size and (coal_src < 0).any():
            raise AssertionError("coalescence source missing from the ghost layer")
        pull_flat.setflags(write=False)

        # Accumulate map: children of every coarse-ghost cell on the finer level.
        if lvl < spec.num_levels - 1 and ghost_slots.size:
            gpos = pos_all[ghost_slots]
            children_off = np.stack(np.meshgrid(*([np.arange(2)] * d),
                                                indexing="ij"), axis=-1).reshape(-1, d)
            fine = (gpos[:, None, :] * 2 + children_off[None, :, :]).reshape(-1, d)
            acc_fine_slots = grids[lvl + 1].lookup(fine)
            if (acc_fine_slots < 0).any():
                raise AssertionError("ghost child not allocated on the finer level")
            acc_ghost_rows = np.repeat(np.arange(ghost_slots.size), 2 ** d)
        else:
            acc_fine_slots = np.empty(0, dtype=np.int64)
            acc_ghost_rows = np.empty(0, dtype=np.int64)

        # Original-baseline explosion copy: every fine-ghost cell mirrors its
        # coarse parent's post-collision state.
        if fine_ghost_slots.size:
            fpos = pos_all[fine_ghost_slots]
            fg_coarse_src = grids[lvl - 1].lookup(fpos // 2)
            if (fg_coarse_src < 0).any():
                raise AssertionError("fine-ghost parent not allocated on coarser level")
        else:
            fg_coarse_src = np.empty(0, dtype=np.int64)

        levels.append(CompiledLevel(
            level=lvl, grid=grid, owned_slots=owned_slots, ghost_slots=ghost_slots,
            fine_ghost_slots=fine_ghost_slots, pull_flat=pull_flat, kind=kind,
            bb_q=bb_q, bb_cell=bb_cell,
            mov_q=mov_q, mov_cell=mov_cell, mov_term=mov_term.astype(np.float64),
            out_q=out_q, out_cell=out_cell, out_val=out_val,
            sl_q=sl_q, sl_cell=sl_cell, sl_src_q=sl_src_q, sl_src=sl_src,
            sb_q=sb_q, sb_cell=sb_cell,
            exp_q=exp_q, exp_cell=exp_cell, exp_src=exp_src,
            exp_ghost_src=exp_ghost_src,
            coal_q=coal_q, coal_cell=coal_cell, coal_src=coal_src,
            acc_fine_slots=acc_fine_slots, acc_ghost_rows=acc_ghost_rows,
            fg_slots=fine_ghost_slots, fg_coarse_src=fg_coarse_src,
        ))
    return MultiGrid(spec=spec, lattice=lat, levels=levels)
