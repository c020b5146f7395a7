"""Block-sparse grid of one resolution level (paper Section V-A).

The domain is partitioned into ``B^d`` blocks placed only where the fluid
is active.  Each block stores an activity bitmask and the indices of its
``3^d - 1`` neighbouring blocks, so that any cell's neighbour in any
lattice direction is found with cheap divisions/modulo — intra-block
neighbours stay inside the block, inter-block neighbours go through the
block neighbour table.  Storage is allocated at block granularity: a block
with a single active cell still occupies ``B^d`` slots, exactly like the
CUDA implementation (one block = one CUDA block, one cell = one thread).

Blocks are ordered along a space-filling curve; a cell's *flat id* is
``block_id * B^d + local_id`` with C-ordered local ids, which is the
layout the AoSoA fields use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import bitmask as bm
from .sfc import block_order

__all__ = ["BlockSparseGrid"]


def _local_offsets(d: int, B: int) -> np.ndarray:
    """Local coordinates of every cell of a block, C-ordered, shape (B^d, d)."""
    axes = np.meshgrid(*([np.arange(B)] * d), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1).astype(np.int32)


def _offset_index(carry: np.ndarray) -> np.ndarray:
    """Map per-axis carries in {-1, 0, 1} to a 3^d block-direction index."""
    idx = np.zeros(carry.shape[0], dtype=np.int64)
    for axis in range(carry.shape[1]):
        idx = idx * 3 + (carry[:, axis] + 1)
    return idx


@dataclass
class BlockSparseGrid:
    """One level of the multi-resolution stack.

    Construct with :meth:`from_mask`.  ``shape`` is the bounding box of the
    level in this level's cell units; ``mask`` flags the cells that must be
    allocated (fluid plus any ghost cells the algorithms need).
    """

    level: int
    shape: tuple[int, ...]
    block_size: int
    block_coords: np.ndarray           # (nb, d) int32 in block units, curve-ordered
    block_lut: np.ndarray              # dense (block-space) int32 -> block id or -1
    bitmask_words: np.ndarray          # (nb, words) uint64 — active cells
    block_neighbors: np.ndarray        # (nb, 3^d) int32 block ids, -1 if absent
    curve: str = "morton"
    _local: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._local = _local_offsets(self.d, self.block_size)

    # -- construction -----------------------------------------------------
    @classmethod
    def from_mask(cls, mask: np.ndarray, *, level: int = 0, block_size: int = 4,
                  curve: str = "morton", origin: tuple[int, ...] | None = None,
                  shape: tuple[int, ...] | None = None) -> "BlockSparseGrid":
        """The grid of the cells ``mask`` flags.  ``mask`` may be a window
        of a box ``shape`` at the block-aligned ``origin``: the grid is then
        the box's, for ``mask`` inside the window and nothing outside, built
        without the box's mask (block coordinates and order are the box's)."""
        mask = np.asarray(mask, dtype=bool)
        d = mask.ndim
        B = block_size
        if B < 2:
            raise ValueError("block_size must be at least 2")
        origin = (0,) * d if origin is None else tuple(int(o) for o in origin)
        shape = mask.shape if shape is None else tuple(int(s) for s in shape)
        if any(o % B or o < 0 or o + m > s for o, m, s in zip(origin, mask.shape, shape)):
            raise ValueError(f"a window {mask.shape} at {origin} must start on a "
                             f"block boundary inside the box {shape}")
        nblk_axes = tuple(-(-s // B) for s in shape)  # ceil division
        win_blk = tuple(-(-s // B) for s in mask.shape)
        padded = np.pad(mask, [(0, n * B - s) for n, s in zip(win_blk, mask.shape)])
        # a block is occupied if any of its cells is: one OR over B slabs
        # per axis, outermost first (each pass reads whole rows and leaves
        # a B times smaller array); only occupied blocks' bits are gathered
        occupied = padded
        for axis, n in enumerate(win_blk):
            lead, rest = occupied.shape[:axis], occupied.shape[axis + 1:]
            occupied = occupied.reshape(lead + (n, B) + rest).any(axis=axis + 1)
        local = np.argwhere(occupied)
        if local.shape[0] == 0:
            raise ValueError("mask selects no cells; cannot build an empty grid")
        coords = local + np.asarray(origin, dtype=np.int64) // B
        order = block_order(coords, nblk_axes, curve)
        coords, local = coords[order].astype(np.int32), local[order]
        nb = coords.shape[0]
        lut = np.full(nblk_axes, -1, dtype=np.int32)
        lut[tuple(coords.T)] = np.arange(nb)
        # per-block activity bits, C-ordered local cells: view the window as
        # (nbx, B, nby, B, ...) and gather the occupied blocks
        view = padded.reshape(sum(((n, B) for n in win_blk), ()))
        block_axes_first = tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))
        flags = view.transpose(block_axes_first)[tuple(local.T)].reshape(nb, B ** d)
        words = bm.pack_bits(flags)
        # 3^d block neighbour table: one gather on the table padded by a block
        lut_pad = np.full(tuple(n + 2 for n in nblk_axes), -1, dtype=np.int32)
        lut_pad[(slice(1, -1),) * d] = lut
        strides = np.cumprod((1,) + lut_pad.shape[:0:-1])[::-1]
        offsets = np.array(list(itertools.product((-1, 0, 1), repeat=d))) @ strides
        nbr = lut_pad.reshape(-1)[((coords + 1) @ strides)[:, None] + offsets]
        return cls(level=level, shape=shape, block_size=B,
                   block_coords=coords, block_lut=lut, bitmask_words=words,
                   block_neighbors=nbr, curve=curve)

    # -- basic queries ------------------------------------------------------
    @property
    def d(self) -> int:
        return int(self.block_coords.shape[1])

    @property
    def n_blocks(self) -> int:
        return int(self.block_coords.shape[0])

    @property
    def cells_per_block(self) -> int:
        return self.block_size ** self.d

    @property
    def n_alloc(self) -> int:
        """Number of allocated cell slots (block granularity)."""
        return self.n_blocks * self.cells_per_block

    @property
    def n_active(self) -> int:
        return int(bm.popcount(self.bitmask_words).sum())

    def active(self) -> np.ndarray:
        """Boolean activity flag for every allocated slot, shape (n_alloc,)."""
        return bm.unpack_bits(self.bitmask_words, self.cells_per_block).ravel()

    def cell_positions(self) -> np.ndarray:
        """Global (level-resolution) coordinates of every allocated slot."""
        base = self.block_coords[:, None, :] * self.block_size  # (nb, 1, d)
        return (base + self._local[None, :, :]).reshape(-1, self.d)

    def lookup(self, positions: np.ndarray) -> np.ndarray:
        """Flat slot ids of the given positions; -1 when not allocated.

        Positions outside the bounding box also yield -1.  Activity is not
        checked — use :meth:`active` for that.
        """
        pos = np.atleast_2d(np.asarray(positions, dtype=np.int64))
        B = self.block_size
        ids = np.full(pos.shape[0], -1, dtype=np.int64)
        inside = np.all((pos >= 0) & (pos < np.asarray(self.shape)), axis=1)
        if not inside.any():
            return ids
        p = pos[inside]
        bc = p // B
        local = p - bc * B
        blk = self.block_lut[tuple(bc.T)]
        loc_idx = np.zeros(p.shape[0], dtype=np.int64)
        for axis in range(self.d):
            loc_idx = loc_idx * B + local[:, axis]
        out = np.where(blk >= 0, blk * self.cells_per_block + loc_idx, -1)
        ids[inside] = out
        return ids

    def neighbor_ids(self, direction) -> np.ndarray:
        """Flat ids of each allocated slot's neighbour along ``direction``.

        Resolution goes through the block neighbour table: intra-block
        neighbours are found with modular arithmetic, inter-block ones via
        ``block_neighbors`` (-1 when the neighbouring block is absent) —
        mirroring the paper's data structure.
        Returns shape ``(n_alloc,)`` with -1 for missing neighbours.
        """
        v = np.asarray(direction, dtype=np.int64)
        B = self.block_size
        cpb = self.cells_per_block
        nb = self.n_blocks
        nl = self._local[None, :, :] + v[None, None, :]     # (1, cpb, d) broadcast
        carry = np.floor_divide(nl, B)                       # -1/0/1 per axis
        local = nl - carry * B
        loc_idx = np.zeros((1, cpb), dtype=np.int64)
        for axis in range(self.d):
            loc_idx = loc_idx * B + local[:, :, axis]
        diridx = _offset_index(carry.reshape(-1, self.d)).reshape(1, cpb)
        block_ids = np.arange(nb, dtype=np.int64)[:, None]   # (nb, 1)
        tgt_block = np.where(
            diridx == (3 ** self.d - 1) // 2,                # zero offset -> same block
            np.broadcast_to(block_ids, (nb, cpb)),
            self.block_neighbors[block_ids, diridx].astype(np.int64),
        )
        out = np.where(tgt_block >= 0, tgt_block * cpb + loc_idx, -1)
        return out.reshape(-1)

    # -- memory accounting (feeds repro.gpu.memory) -------------------------
    def metadata_bytes(self) -> dict[str, int]:
        """Bytes of structural metadata as allocated on the GPU."""
        return {
            "bitmask": self.bitmask_words.size * 8,
            "block_neighbors": self.block_neighbors.size * 4,
            "block_origins": self.block_coords.size * 4,
        }
