"""Tests specific to the Sparse Segment Tree (Section 3.2 of the paper):
sparse representation, minima indexing, block nodes, and the height bound of
Lemma 1."""

import math
import random

import pytest

from repro.core import NO_SUCCESSOR, SparseSegmentTree
from repro.errors import InvalidNodeError


class TestSparseRepresentation:
    def test_single_entry_creates_single_node(self):
        tree = SparseSegmentTree(8, block_size=0)
        tree.update(2, 65)
        assert tree.node_count == 1
        assert tree.height == 1

    def test_two_entries_create_two_nodes(self):
        """Figure 6f of the paper: the root holds the new minimum and the
        displaced entry moves into a child node."""
        tree = SparseSegmentTree(8, block_size=0)
        tree.update(2, 65)
        tree.update(3, 42)
        assert tree.node_count == 2
        assert tree.suffix_min(0) == 42
        assert tree.suffix_min(3) == 42
        assert tree.get(2) == 65

    def test_figure6_sequence(self):
        """The full update sequence of Figure 6 (values 65, 42, 59, 13)."""
        tree = SparseSegmentTree(8, block_size=0)
        tree.update(2, 65)
        tree.update(3, 42)
        tree.update(0, 59)
        tree.update(7, 13)
        assert tree.suffix_min(0) == 13
        assert tree.suffix_min(4) == 13
        assert tree.suffix_min(3) == 13
        assert tree.argleq(42) == 7
        assert tree.argleq(13) == 7
        assert tree.density == 4

    def test_node_count_tracks_density_without_blocks(self):
        tree = SparseSegmentTree(64, block_size=0)
        for index in (3, 17, 60, 33, 5):
            tree.update(index, index * 2)
        assert tree.node_count == 5

    def test_empty_entries_cost_no_nodes(self):
        dense_equivalent = 2 * 1024
        tree = SparseSegmentTree(1024, block_size=0)
        tree.update(1000, 1)
        tree.update(3, 2)
        assert tree.node_count < dense_equivalent / 100


class TestHeightBound:
    """Lemma 1: the height is bounded by min(log n, d)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_height_bounded_by_density_and_log(self, seed):
        rng = random.Random(seed)
        capacity = 256
        tree = SparseSegmentTree(capacity, block_size=0)
        log_bound = int(math.log2(capacity)) + 1
        for _ in range(100):
            tree.update(rng.randrange(capacity), rng.randrange(1000))
            assert tree.height <= min(log_bound, max(tree.density, 1))

    def test_height_shrinks_when_entries_cleared(self):
        tree = SparseSegmentTree(64, block_size=0)
        for index in range(20):
            tree.update(index, 100 - index)
        for index in range(19):
            tree.update(index, NO_SUCCESSOR)
        assert tree.density == 1
        assert tree.height == 1

    def test_dense_array_height_is_logarithmic(self):
        capacity = 128
        tree = SparseSegmentTree(capacity, block_size=0)
        for index in range(capacity):
            tree.update(index, index)
        assert tree.height <= int(math.log2(capacity)) + 1


class TestBlockNodes:
    def test_block_node_flattens_small_ranges(self):
        """Figure 7: a dense far-away cluster collapses into one block node."""
        tree = SparseSegmentTree(64, block_size=8)
        for index in range(32, 40):
            tree.update(index, 100 - index)
        without_blocks = SparseSegmentTree(64, block_size=0)
        for index in range(32, 40):
            without_blocks.update(index, 100 - index)
        assert tree.node_count < without_blocks.node_count

    def test_block_node_queries_match_reference(self):
        tree = SparseSegmentTree(64, block_size=8)
        values = {33: 10, 34: 15, 36: 13, 37: 22, 38: 24, 39: 29, 1: 50}
        for index, value in values.items():
            tree.update(index, value)
        assert tree.suffix_min(34) == 13
        assert tree.suffix_min(0) == 10
        assert tree.argleq(20) == 36
        assert tree.argleq(10) == 33

    def test_block_node_deletion(self):
        tree = SparseSegmentTree(32, block_size=32)
        tree.update(3, 5)
        tree.update(4, 6)
        tree.update(3, NO_SUCCESSOR)
        assert tree.get(3) == NO_SUCCESSOR
        assert tree.suffix_min(0) == 6

    def test_block_size_property(self):
        assert SparseSegmentTree(8, block_size=16).block_size == 16

    def test_negative_block_size_rejected(self):
        with pytest.raises(InvalidNodeError):
            SparseSegmentTree(8, block_size=-1)

    def test_block_only_tree(self):
        """With block_size >= capacity the whole tree is one block."""
        tree = SparseSegmentTree(16, block_size=32)
        for index in range(16):
            tree.update(index, 16 - index)
        assert tree.node_count == 1
        assert tree.suffix_min(10) == 1
        assert tree.argleq(3) == 15


class TestMinimaIndexingAblation:
    def test_results_identical_with_and_without_indexing(self):
        rng = random.Random(99)
        indexed = SparseSegmentTree(128, minima_indexing=True)
        unindexed = SparseSegmentTree(128, minima_indexing=False)
        for _ in range(300):
            index = rng.randrange(128)
            value = rng.choice([NO_SUCCESSOR, rng.randrange(500)])
            indexed.update(index, value)
            unindexed.update(index, value)
            query = rng.randrange(128)
            assert indexed.suffix_min(query) == unindexed.suffix_min(query)
            threshold = rng.randrange(500)
            assert indexed.argleq(threshold) == unindexed.argleq(threshold)


class TestOverwriteSemantics:
    def test_decreasing_update(self):
        tree = SparseSegmentTree(16)
        tree.update(4, 10)
        tree.update(4, 2)
        assert tree.get(4) == 2
        assert tree.suffix_min(0) == 2
        assert tree.density == 1

    def test_increasing_update(self):
        tree = SparseSegmentTree(16)
        tree.update(4, 2)
        tree.update(9, 5)
        tree.update(4, 10)
        assert tree.get(4) == 10
        assert tree.suffix_min(0) == 5

    def test_same_value_update_is_noop(self):
        tree = SparseSegmentTree(16)
        tree.update(4, 2)
        tree.update(4, 2)
        assert tree.density == 1
        assert tree.get(4) == 2

    def test_clearing_missing_entry_is_noop(self):
        tree = SparseSegmentTree(16)
        tree.update(3, NO_SUCCESSOR)
        assert tree.density == 0

    def test_interleaved_insert_delete_stays_consistent(self):
        rng = random.Random(5)
        tree = SparseSegmentTree(64, block_size=4)
        reference = {}
        for _ in range(500):
            index = rng.randrange(64)
            if rng.random() < 0.3:
                reference.pop(index, None)
                tree.update(index, NO_SUCCESSOR)
            else:
                value = rng.randrange(200)
                reference[index] = value
                tree.update(index, value)
            query = rng.randrange(64)
            expected = min(
                (v for i, v in reference.items() if i >= query), default=NO_SUCCESSOR
            )
            assert tree.suffix_min(query) == expected
            assert tree.density == len(reference)
