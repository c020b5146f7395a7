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
   classifies every (cell, direction) streaming pull once
   (:class:`CompiledLevel`).  After this compile step the time loop is pure
   vectorised gathers — the CPU analogue of the paper's precomputed
   neighbour/ghost indices on the GPU.

The compile emits each map a kernel body reads once, in the form it is
read: the tables and rows at int32, the width their values need (the
compile refuses a level whose ``Q * rows`` entry ids would not fit), and
the flat entries the bodies gather and scatter with at ``intp``, the
width NumPy indexes with.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..core.lattice import Lattice
from .sparse_grid import BlockSparseGrid

__all__ = ["FaceBC", "DomainBC", "RefinementSpec", "CompiledLevel",
           "MultiGrid", "build_multigrid", "check_pull_table", "compile_arrays",
           "grid_arrays_digest", "row_span", "spec_digest"]

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

    def as_dict(self) -> dict:
        """The spec as JSON data (masks: :func:`_pack`, faces: ``[kind,
        velocity]``); :meth:`from_dict` reads it back."""
        return {"base_shape": [int(n) for n in self.base_shape],
                "refine_regions": [_pack(m) for m in self.refine_regions],
                "solid": None if self.solid is None else _pack(self.solid),
                **self._settings()}

    def _settings(self) -> dict:
        """The JSON fields of :meth:`as_dict` that are not the shape or a mask."""
        return {"faces": {name: [bc.kind, bc.velocity and list(map(float, bc.velocity))]
                          for name, bc in self.bc.faces.items()},
                "block_size": int(self.block_size), "curve": str(self.curve)}

    @classmethod
    def from_dict(cls, d: dict) -> "RefinementSpec":
        """The spec :meth:`as_dict` wrote (``ValueError``: a torn mask)."""
        return cls(tuple(int(n) for n in d["base_shape"]),
                   [_unpack(m) for m in d["refine_regions"]],
                   None if d["solid"] is None else _unpack(d["solid"]),
                   DomainBC({name: FaceBC(kind, v and tuple(map(float, v)))
                             for name, (kind, v) in d["faces"].items()}),
                   int(d["block_size"]), str(d["curve"]))


def _pack(mask) -> dict:
    """A mask as ``{"shape", "bits"}``, ``bits`` the base64 of its packbits."""
    mask = np.asarray(mask, dtype=bool)
    return {"shape": list(mask.shape),
            "bits": base64.b64encode(np.packbits(mask)).decode("ascii")}


def _unpack(d: dict) -> np.ndarray:
    """The mask :func:`_pack` wrote; ``ValueError`` unless its bits fill it."""
    shape, bits = tuple(int(n) for n in d["shape"]), base64.b64decode(d["bits"])
    if len(bits) != -(-math.prod(shape) // 8):
        raise ValueError(f"a mask of shape {shape} needs {math.prod(shape)} "
                         f"bits, got {8 * len(bits)}")
    return np.unpackbits(np.frombuffer(bits, np.uint8),
                         count=math.prod(shape)).view(bool).reshape(shape)


def spec_digest(spec: RefinementSpec, lattice: Lattice | str) -> str:
    """SHA-256 of everything a compiled grid is a function of: the spec's
    JSON fields but its masks, the lattice name, and each mask's shape and
    packed bits (hashed raw: no base64 text, no JSON of it).  Equal
    digests, equal grids."""
    masks = list(spec.refine_regions) + ([] if spec.solid is None else [spec.solid])
    head = [[int(n) for n in spec.base_shape], spec._settings(),
            getattr(lattice, "name", lattice), len(spec.refine_regions),
            spec.solid is not None]
    h = hashlib.sha256(json.dumps(head, sort_keys=True, separators=(",", ":")).encode())
    for mask in masks:
        mask = np.asarray(mask, dtype=bool)
        h.update(f"{mask.shape}".encode())
        h.update(np.packbits(mask))
    return h.hexdigest()


def compile_arrays(grid: MultiGrid):
    """``(level, name, array)`` of every array attribute of the compile
    (``CompiledLevel``, its ``BlockSparseGrid``; each array of a tuple, the
    ragged ``acc_sources``' rows), shared buffers included."""
    for cl in grid.levels:
        for owner in (cl, cl.grid):
            yield from ((cl.level, name, r) for name, a in vars(owner).items()
                        for r in (a if isinstance(a, tuple) else (a,))
                        if isinstance(r, np.ndarray))


def grid_arrays_digest(grid: MultiGrid) -> str:
    """SHA-256 over level, name, dtype, shape and bytes of each compile array."""
    h = hashlib.sha256()
    for lv, name, a in compile_arrays(grid):
        h.update(f"{lv}:{name}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.data if a.flags.c_contiguous else a.tobytes())
    return h.hexdigest()


def _upsample2(mask: np.ndarray) -> np.ndarray:
    """Each cell of ``mask`` as its ``2^d`` children: the last axis doubled
    by reading each bool as the two equal bytes of a uint16 (0 or 257),
    the others by one broadcast copy of those rows."""
    rows = (mask.astype(np.uint16) * 257).view(bool)
    split = rows.reshape(sum(((n, 1) for n in mask.shape[:-1]), ()) + rows.shape[-1:])
    wide = tuple(2 if i % 2 else n for i, n in enumerate(split.shape[:-1])) + rows.shape[-1:]
    return np.broadcast_to(split, wide).reshape(tuple(2 * n for n in mask.shape))


#: How far past the cells a level covers its build reads: the four
#: fine-ghost layers, plus one for the pull and the pad.
_REACH = 5


def _half(win: tuple[slice, ...], coarse: tuple[slice, ...] | None = None
          ) -> tuple[slice, ...]:
    """The parents of the window ``win`` (even bounds), in an array over the
    coarser level's window ``coarse`` (its whole box when ``None``)."""
    lo = [0] * len(win) if coarse is None else [c.start for c in coarse]
    return tuple(slice(s.start // 2 - o, s.stop // 2 - o) for s, o in zip(win, lo))


def _child_window(region: np.ndarray, win: tuple[slice, ...], block: int,
                  periodic: list[bool]) -> tuple[slice, ...]:
    """The next finer level's window: the bounding box of the children of
    ``region`` (a mask over this level's window ``win``) grown by
    ``_REACH``, rounded out to multiples of ``block`` and 2 and clipped to
    the children of ``win``; a periodic axis spans the box, as ``win`` does."""
    step, out = math.lcm(block, 2), []
    for axis, (s, wrap) in enumerate(zip(win, periodic)):
        if wrap:
            out.append(slice(2 * s.start, 2 * s.stop))
            continue
        hit = np.flatnonzero(region.any(axis=tuple(a for a in range(region.ndim)
                                                   if a != axis)))
        lo = (2 * (s.start + int(hit[0])) - _REACH) // step * step
        hi = -(-(2 * (s.start + int(hit[-1]) + 1) + _REACH) // step) * step
        out.append(slice(max(lo, 2 * s.start), min(hi, 2 * s.stop)))
    return tuple(out)


def _spills(mask: np.ndarray, win: tuple[slice, ...]) -> bool:
    """Whether ``mask`` flags a cell outside the window ``win``."""
    inner = mask[win]
    return inner.size != mask.size and np.count_nonzero(inner) != np.count_nonzero(mask)


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


def _validate_spec(spec: RefinementSpec) -> list[tuple[slice, ...]]:
    """Refuse a spec the compile cannot build (``ValueError``), checking
    each rule inside the levels' *windows*, and return them: slices of
    each level's box, the whole box for level 0, then the
    :func:`_child_window` of each refined region."""
    spec.bc.validate(spec.d)
    if spec.block_size < 2:
        raise ValueError("block_size must be at least 2")
    per = spec.bc.periodic_axes(spec.d)
    win = tuple(slice(0, n) for n in spec.base_shape)
    windows, covered, ghost_children = [win], np.ones(spec.base_shape, dtype=bool), None
    for k, region in enumerate(spec.refine_regions):
        region = np.asarray(region, dtype=bool)
        expected = spec.level_shape(k)
        if region.shape != expected:
            raise ValueError(
                f"refine_regions[{k}] has shape {region.shape}, expected {expected}"
            )
        inner = region[win]
        # The coarse-ghost layer of level k - 1 lives in the first cell ring
        # inside its refined region; their level-k children must be owned
        # by level k, so this interface has to stay clear of them.
        if ghost_children is not None and (ghost_children & inner).any():
            raise ValueError(
                f"refine_regions[{k}] starts too close to the "
                f"level-{k - 1}/{k} interface: the ghost layer's children "
                f"must remain level-{k} cells (leave at least two "
                f"level-{k} cells between successive interfaces)"
            )
        if not region.any():
            raise ValueError(f"refine_regions[{k}] refines nothing")
        if _spills(region, win) or (inner & ~covered).any():
            raise ValueError(
                f"refine_regions[{k}] refines cells not covered by level {k} "
                "(refinement regions must nest)"
            )
        region = inner
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
        child = _child_window(region, win, spec.block_size, per)
        ghost_children = _upsample2(
            (_dilate(covered & ~region, 1, per) & region)[_half(child, win)])
        covered = _upsample2(region[_half(child, win)])
        win = child
        windows.append(win)
    if spec.solid is not None:
        solid = np.asarray(spec.solid, dtype=bool)
        finest = spec.level_shape(spec.num_levels - 1)
        if solid.shape != finest:
            raise ValueError(
                f"solid mask has shape {solid.shape}, expected finest-level {finest}"
            )
        if solid.any() and spec.num_levels > 1:
            if _spills(solid, win) or (_dilate(solid[win], 1, per) & ~covered).any():
                raise ValueError(
                    "solid cells must be surrounded by finest-level cells "
                    "(refine around the obstacle)"
                )
            # Accumulate's sources are a coarse ghost cell's children and their neighbours.
            hit = ghost_children & solid[win]
            if hit.any():
                cell = np.argwhere(hit)[0] + [s.start for s in win]
                raise ValueError(
                    f"solid cell {tuple(cell.tolist())} is a child of level "
                    f"{k}'s coarse ghost cell {tuple((cell // 2).tolist())}: "
                    f"keep the obstacle two level-{k + 1} cells off the interface")
    return windows


@dataclass
class CompiledLevel:
    """One level of the stack: every map a kernel body or report reads,
    once, in the form it is read.

    ``pull_flat`` holds, per direction and owned cell, the entry ``q_src *
    n_owned + row`` of the level's flat ``(Q, n_owned)`` post-collision
    buffer that streaming reads (never a fine-ghost row: every source is
    an owned cell): the upstream row for an interior pull, the cell's own
    opposite population for bounce-back (resting walls, solids), moving
    and inlet links, the mirrored population of the tangential neighbour
    for slip, and the entry itself where another kernel part supplies the
    value.  One read-only int32 table, which the engine shares; ``groups``
    are its direction groups (:func:`_pull_groups`), largest first.

    The pulls the table leaves to another part are flat ``intp`` entries
    ``q * n_owned + row`` of this level's ``f`` (``*_dst``; NumPy indexes
    with ``intp``, an int32 map would be converted on every call), each
    beside what it is given:

    * ``mov`` — a moving wall or inlet: bounce-back plus ``mov_term``,
      ``2 w_i rho_w (e_i . u_w) / c_s^2``;
    * ``out`` — an open outlet: the lattice weight ``out_val``;
    * ``exp`` — a cell of the next-coarser level (Eq. 10): ``exp_src``,
      the entry ``q * n_owned + row`` of that level's ``f`` (the 4a
      layout reads the same value in ``exp_ghost_rows``, this level's
      fine-ghost rows);
    * ``coal`` — a cell of the next-finer level (Eq. 11): the mean of
      ghost-accumulator slot ``e``, which stands for the int32 bin
      ``coal_bin[e] = q * n_ghost + ghost`` of the device's ``(Q,
      n_ghost)`` accumulator.

    ``acc_sources`` gives each slot the ``n_e`` *finer* cells whose pull leaves
    that level into the slot's cell: ragged child-major rows of flat ``intp``
    entries of its ``f``, slots by descending ``n_e``, row ``j`` covering those
    with ``n_e > j`` (resolved, with that order, by the finer level's compile).
    ``fg_coarse_rows`` gives each fine ghost (4a) its parent's row in the
    coarser level.  ``sb_q`` / ``sb_cell`` list the solid links for the
    momentum exchange.  The ``*_span`` pairs are the half-open row
    intervals the access reports state, and ``n_interface_*`` the owned
    cells the Explosion and Coalescence kernels write: ints, taken once.
    Rows number a level's owned cells in slot order, then its fine ghosts
    (:meth:`row_of_slot`).
    """

    level: int
    grid: BlockSparseGrid
    owned_slots: np.ndarray           # (n_owned,) slot ids, ordered by slot
    ghost_slots: np.ndarray           # coarse-ghost accumulator cells
    fine_ghost_slots: np.ndarray      # 4-layer fine ghosts (original baseline)
    pull_flat: np.ndarray             # (Q, n_owned) flat f source entries
    groups: tuple[tuple[int, ...], ...]
    # -- the stream's fix-ups, and the solid links ----------------------------
    mov_dst: np.ndarray; mov_term: np.ndarray
    out_dst: np.ndarray; out_val: np.ndarray
    sb_q: np.ndarray; sb_cell: np.ndarray
    # -- cross-level maps ------------------------------------------------------
    exp_dst: np.ndarray; exp_src: np.ndarray
    exp_ghost_rows: np.ndarray       # the exp_src values in this level's fine ghosts (4a)
    coal_dst: np.ndarray; coal_bin: np.ndarray
    acc_sources: tuple[np.ndarray, ...]  # ragged rows of entries of the finer level's f
    fg_coarse_rows: np.ndarray       # per fine ghost, its parent's coarser row (4a)
    # -- report spans and kernel cell counts -------------------------------------
    exp_dst_span: tuple[int, int]; exp_src_span: tuple[int, int]
    coal_dst_span: tuple[int, int]; coal_src_span: tuple[int, int]
    acc_span: tuple[int, int]        # rows of the finer level the sources read
    n_interface_fine: int            # owned cells with an explosion pull
    n_interface_coarse: int          # owned cells with a coalescence pull

    @property
    def n_owned(self) -> int:
        return int(self.owned_slots.size)

    @property
    def n_ghost(self) -> int:
        return int(self.ghost_slots.size)

    @property
    def n_acc_sources(self) -> int:                 # the entries Accumulate gathers
        return sum(r.size for r in self.acc_sources)

    @property
    def n_alloc(self) -> int:
        return self.grid.n_alloc

    def row_of_slot(self) -> np.ndarray:
        """Slot -> row of the engine's per-level buffers (-1: not stored):
        owned cells in slot order, then the fine ghosts."""
        rows = np.full(self.n_alloc, -1, dtype=np.int32)
        rows[self.owned_slots] = np.arange(self.n_owned)
        rows[self.fine_ghost_slots] = self.n_owned + np.arange(self.fine_ghost_slots.size)
        return rows


def _n_distinct(cells: np.ndarray, n: int) -> int:
    """How many distinct values ``cells`` holds, all in ``[0, n)``: a flag
    scatter and a count, no sort."""
    flag = np.zeros(n, dtype=bool)
    flag[cells] = True
    return int(np.count_nonzero(flag))


def row_span(rows: np.ndarray) -> tuple[int, int]:
    """Half-open interval bounding the rows an index array holds."""
    return (int(rows.min()), int(rows.max()) + 1) if rows.size else (0, 0)


def _flat(q, stride: int, rows: np.ndarray) -> np.ndarray:
    """Flat ``intp`` entries ``q * stride + rows`` of a ``(Q, stride)`` buffer."""
    return np.asarray(q, dtype=np.intp) * stride + rows


@dataclass
class MultiGrid:
    """The compiled stack of levels plus shared metadata.

    ``digest`` is the :func:`spec_digest` of the spec and lattice it was
    built from; ``verdicts`` holds the plan-admission verdicts proven on
    this grid (:func:`~repro.backend.compiler.admit_stream`).
    """

    spec: RefinementSpec
    lattice: Lattice
    levels: list[CompiledLevel]
    digest: str = ""
    verdicts: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def d(self) -> int:
        return self.spec.d

    def active_per_level(self) -> list[int]:
        return [lv.n_owned for lv in self.levels]


def check_pull_table(pull_flat: np.ndarray, n_owned: int, level: int) -> None:
    """Refuse a pull table with an entry outside ``[0, Q * n_owned)``
    (``IndexError``).  The stream body gathers with ``mode="clip"`` (NumPy
    buffers an ``out=`` gather it may have to abandon with an
    ``IndexError``), so the bounds check it skips is made here."""
    size = pull_flat.shape[0] * n_owned
    if pull_flat.size and not 0 <= pull_flat.min() <= pull_flat.max() < size:
        raise IndexError(f"level {level}: pull table entries leave [0, {size}): "
                         f"min {pull_flat.min()}, max {pull_flat.max()}")


def _pull_groups(parts: dict[str, list], lat: Lattice) -> tuple[tuple[int, ...], ...]:
    """The moving directions of a level's pull table, in *direction
    groups*, largest first: the smallest sets closed under the source
    directions their rows read, so a group's rows can be gathered from
    the post-collision values in ``f`` and written back over them while
    every other group's sources stay untouched.

    Read off the kind parts of :func:`_classify`: a row of direction
    ``q`` reads ``q`` (interior pulls, and the entries outflow, explosion
    and coalescence supply themselves), ``opp q`` (bounce-back, moving and
    inlet links) and the mirrored direction (slip links).  So a direction
    is a group of its own on a level without boundary links, a wall or
    solid pairs it with ``opp q``, and a slip face can merge two pairs.
    The rest direction pulls every cell from itself and is left out.
    """
    root = list(range(lat.q))

    def find(q: int) -> int:
        while root[q] != q:
            q = root[q]
        return q

    links = {(p[0], int(lat.opp[p[0]])) for p in parts["bb"] + parts["mov"]}
    links |= {(p[0], p[2]) for p in parts["sl"]}
    for a, b in sorted(links):
        root[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for q in range(lat.q):
        if lat.e[q].any():
            groups.setdefault(find(q), []).append(q)
    return tuple(sorted((tuple(g) for g in groups.values()), key=len, reverse=True))


def _owner_labels(spec: RefinementSpec,
                  windows: list[tuple[slice, ...]]) -> list[np.ndarray]:
    """Per-level label arrays over each level's window."""
    labels: list[np.ndarray] = []
    covered = np.ones(spec.base_shape, dtype=bool)
    for lvl, win in enumerate(windows):
        lab = np.full(covered.shape, _COARSER, dtype=np.int8)   # the window's
        lab[covered] = _SELF
        if lvl < spec.num_levels - 1:
            region = np.asarray(spec.refine_regions[lvl], dtype=bool)
            lab[region[win]] = _FINER
            covered = _upsample2(region[_half(windows[lvl + 1])])
        elif spec.solid is not None:
            lab[np.asarray(spec.solid, dtype=bool)[win]] = _SOLID
        labels.append(lab)
    return labels


def _wrap_pads(padded: np.ndarray, periodic: list[bool]) -> None:
    """Fill the one-cell pad of every periodic axis with the far side's cells."""
    for axis, wrap in enumerate(periodic):
        if wrap:
            p = np.moveaxis(padded, axis, 0)
            p[0], p[-1] = p[-2], p[1]


def _strides(dims: tuple[int, ...]) -> np.ndarray:
    """C-order element strides of a box."""
    return np.cumprod((1,) + dims[:0:-1])[::-1]


def _cube_offsets(n: int, strides: np.ndarray) -> np.ndarray:
    """Flat offsets of the cells of an ``n^d`` cube, C order."""
    return strides @ np.indices((n,) * strides.size).reshape(strides.size, -1)


def _slot_cells(grid: BlockSparseGrid, lo: tuple[int, ...],
                padded: tuple[int, ...]) -> np.ndarray:
    """Flat index of every slot in the level's window (first cell ``lo``)
    padded by one cell: its block origin's plus its local offset's, one
    ``(n_blocks, 1) + (1, B^d)`` add.  Slots of an edge block past the
    box get an index that is not theirs (perhaps past the array); they are
    inactive, and only active slots are ever stored."""
    B, strides = grid.block_size, _strides(padded)
    origin = (grid.block_coords * B - np.asarray(lo) + 1) @ strides
    return (origin[:, None] + _cube_offsets(B, strides)).ravel()


def _index_table(cells: np.ndarray, padded: tuple[int, ...], periodic: list[bool],
                 owned_slots: np.ndarray, *others: np.ndarray) -> np.ndarray:
    """One level's flat int32 table over its padded box: an owned cell holds
    its row, the ``j``-th cell of ``others`` (in order: coarse ghosts, fine
    ghosts) ``-2 - j``, any other position -1; the pads are wrapped like
    the labels'."""
    table = np.full(padded, -1, dtype=np.int32)
    flat = table.reshape(-1)
    flat[cells.take(owned_slots)] = np.arange(owned_slots.size)
    if others:
        stored = np.concatenate(others)
        flat[cells.take(stored)] = -2 - np.arange(stored.size)
    _wrap_pads(table, periodic)
    return flat


def _parent_cells(cells: np.ndarray, padded: tuple[int, ...],
                  coarse_strides: np.ndarray, shift: tuple[int, ...]) -> np.ndarray:
    """Flat index in the coarser level's padded window of each padded cell's
    parent: padded coordinate ``c`` has parent ``(c + 1) // 2 + shift``
    (``shift``: the windows' origins apart, at the coarser resolution),
    which maps a periodic pad onto the coarser level's wrapped pad."""
    coords = np.unravel_index(cells, padded)
    return sum(((c + 1) // 2 + o) * s for c, o, s in zip(coords, shift, coarse_strides))


def _cat(parts: list[tuple], col: int, dtype=np.int32) -> np.ndarray:
    """Column ``col`` of the per-direction parts, rows in append order."""
    if not parts:
        return np.empty(0, dtype=dtype)
    if np.ndim(parts[0][col]) == 0:                   # one value per part
        return np.repeat(np.array([p[col] for p in parts], dtype=dtype),
                         [p[1].size for p in parts])
    return np.concatenate([p[col] for p in parts], dtype=dtype)


def _level_slots(spec: RefinementSpec, lvl: int, labels: list[np.ndarray],
                 windows: list[tuple[slice, ...]], periodic: list[bool]):
    """Level compile: the level's sparse grid, its owner labels over the
    padded window, every slot's padded index, the index table and the
    (owned, coarse-ghost, fine-ghost) slots."""
    lab, win = labels[lvl], windows[lvl]
    lo, padded = tuple(s.start for s in win), tuple(n + 2 for n in lab.shape)
    owned_mask = lab == _SELF
    alloc = owned_mask.copy()
    # Coarse-ghost layer: one layer of this level's cells inside the finer
    # region, adjacent to owned cells (Section IV-A).
    if lvl < spec.num_levels - 1:
        alloc |= _dilate(owned_mask, 1, periodic) & (lab == _FINER)
    # Fine-ghost region of the original baseline: four layers of this
    # level's cells outside the owned region, overlapping the coarser
    # parent (Section III / Fig. 4a).
    if lvl > 0:
        parents = labels[lvl - 1][_half(win, windows[lvl - 1])]
        alloc |= _dilate(owned_mask, 4, periodic) & _upsample2(parents == _SELF)
    grid = BlockSparseGrid.from_mask(alloc, level=lvl, block_size=spec.block_size,
                                     curve=spec.curve, origin=lo,
                                     shape=spec.level_shape(lvl))
    del owned_mask, alloc
    lab_pad = np.full(padded, _OUTSIDE, dtype=np.int8)
    lab_pad[(slice(1, -1),) * spec.d] = lab
    _wrap_pads(lab_pad, periodic)
    lab_flat = lab_pad.reshape(-1)
    # an active slot is owned (_SELF), a coarse ghost (_FINER) or a fine
    # ghost (_COARSER), by the label of its cell
    cells = _slot_cells(grid, lo, padded)
    code = np.where(grid.active(), lab_flat.take(cells, mode="clip"), _OUTSIDE)
    if grid.n_alloc >= 2 ** 31:
        raise ValueError(f"level {lvl} allocates {grid.n_alloc} cells; "
                         f"int32 slot ids address fewer than 2**31")
    slots = tuple(np.flatnonzero(code == c).astype(np.int32)
                  for c in (_SELF, _FINER, _COARSER))
    table = _index_table(cells, padded, periodic, *slots)
    return grid, padded, lab_flat, cells, table, slots


def _classify(spec: RefinementSpec, lat: Lattice, lab_flat: np.ndarray,
              padded: tuple[int, ...], table: np.ndarray, cell: np.ndarray):
    """Classification: every (direction, owned cell) pull of one level.

    Returns the pull table and the per-kind parts ``(q, rows, ...)`` in
    append order; a ghost pull (coalescence, explosion) carries the index
    ``j`` its source has among the level's stored ghosts (:func:`_index_table`).
    A slip part carries its mirrored direction, which :func:`_pull_groups`
    reads; the table holds the links themselves.
    """
    d, Q, n_owned = spec.d, lat.q, cell.size
    per, face_names, strides = spec.bc.periodic_axes(d), _face_names(d), _strides(padded)
    pull_flat = np.empty((Q, n_owned), dtype=np.int32)
    parts: dict[str, list] = {k: [] for k in ("bb", "sb", "mov", "out", "sl", "exp", "coal")}
    src = np.empty(n_owned, dtype=np.int64)

    def mark(table_name, q, rows, *cols):
        parts[table_name].append((q, rows) + cols)

    for q in range(Q):
        v = lat.e[q]
        entries = pull_flat[q]
        np.subtract(cell, int(v @ strides), out=src)     # flat pull source
        # Interior pulls in one gather: the source's owned row.  Rows that
        # read < 0 refer to themselves and are classified below, where an
        # entry that is read is written once.
        table.take(src, out=entries, mode="clip")
        miss = np.flatnonzero(entries < 0).astype(np.int32)
        held = entries[miss]
        entries[miss] = miss
        entries += q * n_owned
        if not miss.size:
            continue
        src_m = src[miss]
        code = lab_flat.take(src_m)
        bounce = int(lat.opp[q]) * n_owned             # + cell: halfway bounce-back

        sel = code == _FINER
        if sel.any():                                  # + the ghost's j
            mark("coal", q, miss[sel], -2 - held[sel])
        sel = code == _COARSER
        if sel.any():                                  # + the fine ghost's j
            mark("exp", q, miss[sel], -2 - held[sel])
        sel = code == _SOLID
        if sel.any():
            rows_s = miss[sel]
            mark("bb", q, rows_s)
            parts["sb"].append((q, rows_s))
            pull_flat[q, rows_s] = bounce + rows_s

        sel = code == _OUTSIDE
        if not sel.any():
            continue
        rows_o, src_o = miss[sel], src_m[sel]
        # the pad layer the source lies in names the crossed faces: only
        # an axis the direction moves along (a periodic one is wrapped by
        # the pad), on the side the pull leaves by.  The governing face
        # is the one of highest precedence, the lowest index among equals:
        # the faces are ranked once and written worst first.
        faces = []
        for axis in np.flatnonzero(v):
            if not per[axis]:
                fi = 2 * axis + int(v[axis] < 0)
                faces.append((_PRECEDENCE[spec.bc.face(face_names[fi]).kind], fi, axis))
        best_face = np.zeros(rows_o.size, dtype=np.int64)
        for _, fi, axis in sorted(faces, reverse=True):
            layer = 0 if fi % 2 == 0 else padded[axis] - 1
            best_face[src_o // strides[axis] % padded[axis] == layer] = fi
        for fi in np.flatnonzero(np.bincount(best_face)):
            fbc = spec.bc.face(face_names[fi])
            rows = rows_o[best_face == fi]
            if fbc.kind == "wall":
                mark("bb", q, rows)
                pull_flat[q, rows] = bounce + rows
            elif fbc.kind in ("moving", "inlet"):
                uw = np.zeros(d) if fbc.velocity is None else np.asarray(fbc.velocity)
                term = 2.0 * lat.w[q] * float(lat.ef[q] @ uw) / lat.cs2
                mark("mov", q, rows, term)
                pull_flat[q, rows] = bounce + rows   # the body adds `term`
            elif fbc.kind == "slip":
                # Specular reflection at the halfway plane: sample the
                # mirrored direction at the tangential neighbour on the
                # cell's own wall-adjacent row (the mirror image of the
                # out-of-domain source), where this level owns it.
                axis = fi // 2
                mvec = v.copy()
                mvec[axis] = -mvec[axis]
                mq = lat.direction_index(mvec)
                tvec = v.copy()
                tvec[axis] = 0
                mrow = table.take(cell[rows] - int(tvec @ strides))
                good = mrow >= 0
                if good.any():
                    srows = rows[good]
                    mark("sl", q, srows, mq)
                    pull_flat[q, srows] = mq * n_owned + mrow[good]
                if not good.all():
                    # mirrored source unavailable (interface or
                    # corner): degrade gracefully to bounce-back
                    brows = rows[~good]
                    mark("bb", q, brows)
                    pull_flat[q, brows] = bounce + brows
            elif fbc.kind == "outflow":
                mark("out", q, rows)
            else:  # pragma: no cover - periodic was wrapped already
                raise AssertionError("periodic faces cannot be crossed")
    pull_flat.setflags(write=False)
    return pull_flat, parts


def _link_coarser(up: CompiledLevel, up_win: tuple[slice, ...], win: tuple[slice, ...],
                  periodic: list[bool], padded: tuple[int, ...], table: np.ndarray,
                  n_owned: int, fg_cells: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Cross-level maps, by gather on the coarser level ``up``'s table of
    owned rows over its window ``up_win`` (built here, dropped on return):
    returned, the parent rows of the fine ghosts, padded cells ``fg_cells``
    of this level's window ``win`` (every explosion source is one); stored
    on ``up``, its accumulator slots' sources, ``coal_dst`` / ``coal_bin``
    sorted with them: the owned cells of this level's ``table`` whose pull
    along the slot's ``e_q`` leaves the level into the slot's cell."""
    up_lo = tuple(s.start for s in up_win)
    up_padded = tuple(s.stop - s.start + 2 for s in up_win)
    up_cells = _slot_cells(up.grid, up_lo, up_padded)
    up_table = _index_table(up_cells, up_padded, periodic, up.owned_slots)
    shift = tuple(s.start // 2 - o for s, o in zip(win, up_lo))
    fg_rows = up_table.take(_parent_cells(fg_cells, padded, _strides(up_padded), shift))
    if fg_rows.size and fg_rows.min() < 0:
        raise AssertionError("fine-ghost parent is not an owned coarse cell")
    if up.ghost_slots.size:
        # padded coordinate c of a coarse cell has its children from
        # 2c - 1, less the windows' origins apart at this resolution
        strides = _strides(padded)
        first = sum((2 * c - 1 - o) * s for c, o, s in zip(
            np.unravel_index(up_cells.take(up.ghost_slots), up_padded),
            (2 * o for o in shift), strides))
        # slot e: coarse cell x pulls q from ghost g = x - e_q; the cells
        # streaming into x's children are g's children shifted by e_q
        q, ghost = np.divmod(up.coal_bin, up.n_ghost)
        at = first.take(ghost) + (e @ strides).take(q)
        n_src = np.zeros(q.size, dtype=np.intp)
        held = np.empty((2 ** strides.size, q.size), dtype=np.int32)
        for off in _cube_offsets(2, strides):
            rows = table.take(at + off)
            mine = np.flatnonzero(rows >= 0)
            held[n_src.take(mine), mine] = rows.take(mine)
            n_src[mine] += 1
        if n_src.min(initial=1) == 0:
            raise AssertionError("coalescence entry with no fine source")
        order = np.argsort(-n_src, kind="stable")
        up.coal_dst, up.coal_bin, q = (a.take(order) for a in (up.coal_dst, up.coal_bin, q))
        sources = [held[j].take(order[:np.count_nonzero(n_src > j)]) for j in range(n_src.max())]
        up.acc_sources = tuple(_flat(q[:r.size], n_owned, r) for r in sources)
        up.acc_span = row_span(np.concatenate(sources))
    return fg_rows


def _compile_level(spec: RefinementSpec, lat: Lattice, lvl: int, labels: list[np.ndarray],
                   windows: list[tuple[slice, ...]],
                   coarser: list[CompiledLevel]) -> CompiledLevel:
    """Compile one level; ``coarser`` holds the levels compiled before it.

    Its dense transients — int8 owner labels and the int32 index table over
    the level's window padded by one cell — are locals, gone on return, and
    so are the kind lists: each leaves the level only as the maps the
    bodies read.  A pull source is one flat offset away from its cell, with
    no bounds test: the pad holds the far side on periodic axes and
    _OUTSIDE / -1 elsewhere, and no pull reaches the pad of a window edge
    that is not a face of the box.
    """
    per = spec.bc.periodic_axes(spec.d)
    grid, padded, lab_flat, cells, table, (owned_slots, ghost_slots, fine_ghost_slots) = \
        _level_slots(spec, lvl, labels, windows, per)
    # int32 entry ids (the pull table's, the access reports') number the
    # (q, row) pairs of the row space, 4a's fine-ghost rows included, and
    # the (q, ghost) bins of the accumulator
    n_owned, n_ghost = owned_slots.size, ghost_slots.size
    n_rows = n_owned + fine_ghost_slots.size
    if lat.q * max(n_rows, n_ghost) >= 2 ** 31:
        raise ValueError(f"level {lvl} has {lat.q} x {max(n_rows, n_ghost)} "
                         f"population entries; int32 ids address fewer than 2**31")
    pull_flat, parts = _classify(spec, lat, lab_flat, padded, table, cells.take(owned_slots))
    check_pull_table(pull_flat, n_owned, lvl)
    fg_cells = cells.take(fine_ghost_slots)
    del lab_flat, cells
    q, rows = ({k: _cat(parts[k], i) for k in ("mov", "out", "sb", "exp", "coal")}
               for i in (0, 1))
    # the j of a coarse ghost is its ghost row; of a fine ghost, j - n_ghost
    # counts the fine ghosts, whose rows follow the owned ones
    coal_src = _cat(parts["coal"], 2)
    exp_ghost_rows = _cat(parts["exp"], 2) + (n_owned - n_ghost)
    groups, mov_term = _pull_groups(parts, lat), _cat(parts["mov"], 2, np.float64)
    del parts
    if coal_src.size and not 0 <= coal_src.min() <= coal_src.max() < n_ghost:
        raise AssertionError("coalescence source missing from the ghost layer")
    if exp_ghost_rows.size and not n_owned <= exp_ghost_rows.min() <= exp_ghost_rows.max() < n_rows:
        raise AssertionError("explosion source missing from the fine-ghost layer")
    exp_rows = fg_coarse_rows = np.empty(0, dtype=np.int32)
    if lvl > 0:
        fg_coarse_rows = _link_coarser(coarser[lvl - 1], windows[lvl - 1], windows[lvl],
                                       per, padded, table, n_owned, fg_cells, lat.e)
        # an explosion source is a fine ghost: its parent is that ghost's
        exp_rows = fg_coarse_rows.take(exp_ghost_rows - n_owned)
    return CompiledLevel(
        level=lvl, grid=grid, owned_slots=owned_slots, ghost_slots=ghost_slots,
        fine_ghost_slots=fine_ghost_slots, pull_flat=pull_flat,
        groups=groups,
        mov_dst=_flat(q["mov"], n_owned, rows["mov"]), mov_term=mov_term,
        out_dst=_flat(q["out"], n_owned, rows["out"]), out_val=lat.w[q["out"]],
        sb_q=q["sb"], sb_cell=rows["sb"],
        exp_dst=_flat(q["exp"], n_owned, rows["exp"]),
        exp_src=_flat(q["exp"], coarser[lvl - 1].n_owned if lvl else 0, exp_rows),
        exp_ghost_rows=exp_ghost_rows,
        coal_dst=_flat(q["coal"], n_owned, rows["coal"]),
        coal_bin=q["coal"] * n_ghost + coal_src,
        # acc_sources / acc_span: resolved by the next finer level's _link_coarser
        acc_sources=(),
        fg_coarse_rows=fg_coarse_rows,
        exp_dst_span=row_span(rows["exp"]), exp_src_span=row_span(exp_rows),
        coal_dst_span=row_span(rows["coal"]), coal_src_span=row_span(coal_src),
        acc_span=(0, 0), n_interface_fine=_n_distinct(rows["exp"], n_owned),
        n_interface_coarse=_n_distinct(rows["coal"], n_owned),
    )


def build_multigrid(spec: RefinementSpec, lat: Lattice) -> MultiGrid:
    """Validate ``spec`` and compile the full multi-resolution stack."""
    if lat.d != spec.d:
        raise ValueError(f"lattice is {lat.d}-D but the domain is {spec.d}-D")
    windows = _validate_spec(spec)
    labels = _owner_labels(spec, windows)
    levels: list[CompiledLevel] = []
    for lvl in range(spec.num_levels):
        levels.append(_compile_level(spec, lat, lvl, labels, windows, levels))
    return MultiGrid(spec=spec, lattice=lat, levels=levels,
                     digest=spec_digest(spec, lat))
