"""Tests specific to the dense Segment Tree baseline."""

import random

import pytest

from repro.core import NO_SUCCESSOR, NaiveSuffixMinima, SegmentTree


class TestCapacity:
    def test_capacity_rounds_to_power_of_two(self):
        assert SegmentTree(5).capacity == 8
        assert SegmentTree(8).capacity == 8
        assert SegmentTree(9).capacity == 16

    def test_growth_doubles_until_fitting(self):
        tree = SegmentTree(4)
        tree.update(21, 3)
        assert tree.capacity == 32

    def test_growth_keeps_all_entries(self):
        tree = SegmentTree(4)
        for index in range(4):
            tree.update(index, 10 + index)
        tree.update(63, 1)
        for index in range(4):
            assert tree.get(index) == 10 + index
        assert tree.suffix_min(0) == 1
        assert tree.density == 5

    def test_memory_is_dense(self):
        """The dense tree allocates ~2 * capacity slots regardless of density
        -- the weakness Sparse Segment Trees address."""
        tree = SegmentTree(1024)
        tree.update(5, 1)
        assert len(tree._tree) == 2 * tree.capacity


class TestOperations:
    def test_update_propagates_to_root(self):
        tree = SegmentTree(8)
        tree.update(6, 3)
        assert tree.suffix_min(0) == 3

    def test_suffix_min_on_various_suffixes(self):
        tree = SegmentTree(8)
        values = [9, 4, 7, 1, 8, 2, 6, 5]
        for index, value in enumerate(values):
            tree.update(index, value)
        for start in range(8):
            assert tree.suffix_min(start) == min(values[start:])

    def test_argleq_descends_to_rightmost(self):
        tree = SegmentTree(8)
        for index, value in enumerate([5, 3, 9, 3, 7, 10, 3, 8]):
            tree.update(index, value)
        assert tree.argleq(3) == 6
        assert tree.argleq(2) == -1
        assert tree.argleq(100) == 7

    def test_clearing_restores_infinity(self):
        tree = SegmentTree(8)
        tree.update(2, 4)
        tree.update(2, NO_SUCCESSOR)
        assert tree.suffix_min(0) == NO_SUCCESSOR
        assert tree.density == 0

    def test_items_lists_non_empty_entries(self):
        tree = SegmentTree(8)
        tree.update(1, 9)
        tree.update(6, 2)
        assert tree.items() == [(1, 9), (6, 2)]

    @pytest.mark.parametrize("seed", range(3))
    def test_randomised_against_naive(self, seed):
        rng = random.Random(seed)
        tree = SegmentTree(32)
        reference = NaiveSuffixMinima(32)
        for _ in range(400):
            index = rng.randrange(32)
            value = rng.choice([NO_SUCCESSOR, rng.randrange(100)])
            tree.update(index, value)
            reference.update(index, value)
            query = rng.randrange(32)
            assert tree.suffix_min(query) == reference.suffix_min(query)
            threshold = rng.randrange(110)
            assert tree.argleq(threshold) == reference.argleq(threshold)
