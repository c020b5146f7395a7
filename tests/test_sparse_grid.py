"""Block-sparse grid structure (paper Section V-A)."""

import numpy as np
import pytest

from repro.grid.sparse_grid import BlockSparseGrid

RNG = np.random.default_rng(5)


def blobby_mask(shape, p=0.5):
    """A random but spatially-coherent activity mask."""
    coarse = RNG.random(tuple(max(s // 4, 1) for s in shape)) < p
    mask = coarse
    for axis in range(len(shape)):
        mask = np.repeat(mask, 4, axis=axis)
    return mask[tuple(slice(0, s) for s in shape)]


class TestConstruction:
    def test_active_count_matches_mask(self):
        mask = blobby_mask((20, 17, 13))
        if not mask.any():
            mask[0, 0, 0] = True
        g = BlockSparseGrid.from_mask(mask, block_size=4)
        assert g.n_active == mask.sum()

    def test_alloc_is_block_granular(self):
        mask = np.zeros((8, 8, 8), dtype=bool)
        mask[0, 0, 0] = True  # a single active cell still allocates a block
        g = BlockSparseGrid.from_mask(mask, block_size=4)
        assert g.n_blocks == 1
        assert g.n_alloc == 64
        assert g.n_active == 1

    def test_full_box(self):
        g = BlockSparseGrid.from_mask(np.ones((8, 8), dtype=bool), block_size=4)
        assert g.n_blocks == 4
        assert g.n_active == 64
        assert g.active().all()

    def test_non_multiple_shape_padding(self):
        mask = np.ones((6, 7), dtype=bool)
        g = BlockSparseGrid.from_mask(mask, block_size=4)
        assert g.n_active == 42
        assert g.n_alloc == 4 * 16  # 2x2 blocks of 4x4

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            BlockSparseGrid.from_mask(np.zeros((8, 8), dtype=bool))

    def test_small_block_rejected(self):
        with pytest.raises(ValueError):
            BlockSparseGrid.from_mask(np.ones((4, 4), dtype=bool), block_size=1)

    @pytest.mark.parametrize("curve", ["sweep", "morton", "hilbert"])
    def test_curves_give_same_cells(self, curve):
        mask = blobby_mask((16, 16, 16))
        mask[0, 0, 0] = True
        g = BlockSparseGrid.from_mask(mask, curve=curve)
        assert g.n_active == mask.sum()


class TestLookup:
    def test_positions_roundtrip(self):
        mask = blobby_mask((16, 12, 16))
        mask[0, 0, 0] = True
        g = BlockSparseGrid.from_mask(mask)
        pos = g.cell_positions()
        ids = g.lookup(pos)
        assert np.array_equal(ids, np.arange(g.n_alloc))

    def test_outside_box_is_minus_one(self):
        g = BlockSparseGrid.from_mask(np.ones((8, 8), dtype=bool))
        assert g.lookup(np.array([[-1, 0], [8, 3], [3, 100]])).tolist() == [-1, -1, -1]

    def test_unallocated_block_is_minus_one(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[:4, :4] = True
        g = BlockSparseGrid.from_mask(mask, block_size=4)
        assert g.lookup(np.array([[6, 6]]))[0] == -1
        assert g.lookup(np.array([[1, 1]]))[0] >= 0

    def test_active_flags_follow_bitmask(self):
        mask = blobby_mask((12, 12))
        mask[0, 0] = True
        g = BlockSparseGrid.from_mask(mask)
        pos = g.cell_positions()
        assert np.array_equal(g.active(), mask[tuple(pos.T)])


class TestNeighbors:
    """A cell's neighbour in a lattice direction, resolved by ``lookup`` of
    its shifted position (as the test-local reference compile resolves
    pulls): across block boundaries, and -1 in an absent block.  The
    grid keeps no block-neighbour table; ``metadata_bytes`` prices the
    device's from the block count."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_coordinate_arithmetic(self, d):
        shape = (12,) * d
        mask = blobby_mask(shape)
        mask[(0,) * d] = True
        g = BlockSparseGrid.from_mask(mask)
        pos = g.cell_positions()
        slot_of = {tuple(p): i for i, p in enumerate(pos.tolist())}
        dirs = [(1,) + (0,) * (d - 1), (-1,) * d, (0,) * (d - 1) + (1,)]
        for v in dirs:
            expected = [slot_of.get(tuple(p), -1) for p in (pos + v).tolist()]
            assert g.lookup(pos + np.asarray(v)).tolist() == expected

    def test_missing_block_neighbor(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[:4, :4] = True
        g = BlockSparseGrid.from_mask(mask)
        pos = g.cell_positions()
        ids = g.lookup(pos + np.array([1, 0]))
        # cells on the x=3 row have their +x neighbour in an absent block
        edge = pos[:, 0] == 3
        assert (ids[edge] == -1).all()
        interior = pos[:, 0] < 3
        assert (ids[interior] >= 0).all()


class TestMemoryAccounting:
    def test_bitmask_one_word_for_b4(self):
        g = BlockSparseGrid.from_mask(np.ones((8, 8, 8), dtype=bool), block_size=4)
        meta = g.metadata_bytes()
        assert meta["bitmask"] == g.n_blocks * 8

    def test_neighbor_table_bytes(self):
        g = BlockSparseGrid.from_mask(np.ones((8, 8, 8), dtype=bool))
        assert g.metadata_bytes()["block_neighbors"] == g.n_blocks * 27 * 4
        assert not hasattr(g, "block_neighbors")    # priced, not built


class TestWindow:
    @pytest.mark.parametrize("curve", ["morton", "hilbert"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_window_builds_the_box_grid(self, curve, d):
        # the cells sit inside a block-aligned window; the box's edge
        # blocks are partial (no extent a multiple of B)
        B, shape = 4, (23, 19, 26)[:d]
        origin, stop = (4, 8, 4)[:d], (16, 19, 24)[:d]
        rng = np.random.default_rng(d)
        mask = np.zeros(shape, dtype=bool)
        inner = tuple(slice(o + 1, s - 1) for o, s in zip(origin, stop))
        mask[inner] = rng.random(mask[inner].shape) < 0.2
        window = tuple(slice(o, s) for o, s in zip(origin, stop))
        whole = BlockSparseGrid.from_mask(mask, block_size=B, curve=curve, level=2)
        part = BlockSparseGrid.from_mask(mask[window], block_size=B, curve=curve,
                                         level=2, origin=origin, shape=shape)
        assert part.shape == whole.shape == shape
        for name in ("block_coords", "block_lut", "bitmask_words"):
            a, b = getattr(part, name), getattr(whole, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(part.active(), whole.active())

    def test_window_must_start_on_a_block_inside_the_box(self):
        mask = np.ones((4, 4), dtype=bool)
        for origin in ((2, 0), (0, 8), (-4, 0)):
            with pytest.raises(ValueError, match="block boundary"):
                BlockSparseGrid.from_mask(mask, origin=origin, shape=(10, 10))
