"""Block-sparse grid of one resolution level (paper Section V-A).

The domain is partitioned into ``B^d`` blocks placed only where the fluid
is active.  Each block stores an activity bitmask.  On the GPU each block
also stores the indices of its ``3^d - 1`` neighbouring blocks, so that a
cell's neighbour in any lattice direction is found with cheap
divisions/modulo.  The host streams through one compiled pull table per
level instead (:mod:`repro.grid.multigrid`), so the neighbour table is
priced from the block count (:meth:`BlockSparseGrid.metadata_bytes`), not
built.  Storage is allocated at block granularity: a block with a single
active cell still occupies ``B^d`` slots, exactly like the CUDA
implementation (one block = one CUDA block, one cell = one thread).

Blocks are ordered along a space-filling curve; a cell's *flat id* is
``block_id * B^d + local_id`` with C-ordered local ids, which is the
layout the AoSoA fields use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bitmask as bm
from .sfc import block_order

__all__ = ["BlockSparseGrid"]


def _local_offsets(d: int, B: int) -> np.ndarray:
    """Local coordinates of every cell of a block, C-ordered, shape (B^d, d)."""
    axes = np.meshgrid(*([np.arange(B)] * d), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1).astype(np.int32)


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
        return cls(level=level, shape=shape, block_size=B,
                   block_coords=coords, block_lut=lut, bitmask_words=words,
                   curve=curve)

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

    # -- memory accounting (feeds repro.gpu.memory) -------------------------
    def metadata_bytes(self) -> dict[str, int]:
        """Bytes of structural metadata as allocated on the GPU: the
        bitmask words, the ``3^d`` int32 block-neighbour table (counted from
        the blocks, not held on the host) and the block origins."""
        return {
            "bitmask": self.bitmask_words.size * 8,
            "block_neighbors": self.n_blocks * 3 ** self.d * 4,
            "block_origins": self.block_coords.size * 4,
        }
