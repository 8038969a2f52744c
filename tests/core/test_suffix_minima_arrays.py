"""Tests for the three suffix-minima array implementations.

The naive reference, the dense segment tree and the sparse segment tree must
all implement the same semantics (Section 3.1 of the paper); most tests run
against all three via the parametrised fixture.
"""

import pytest

from repro.core import (
    NO_SUCCESSOR,
    NaiveSuffixMinima,
    SegmentTree,
    SparseSegmentTree,
)
from repro.errors import InvalidNodeError

IMPLEMENTATIONS = {
    "naive": NaiveSuffixMinima,
    "segment-tree": SegmentTree,
    "sparse-segment-tree": SparseSegmentTree,
}


@pytest.fixture(params=sorted(IMPLEMENTATIONS))
def array(request):
    return IMPLEMENTATIONS[request.param](16)


class TestEmptyArray:
    def test_suffix_min_of_empty_array_is_infinite(self, array):
        assert array.suffix_min(0) == NO_SUCCESSOR

    def test_argleq_of_empty_array_is_none(self, array):
        assert array.argleq(100) == -1

    def test_get_of_empty_entry_is_infinite(self, array):
        assert array.get(5) == NO_SUCCESSOR

    def test_density_of_empty_array_is_zero(self, array):
        assert array.density == 0

    def test_items_of_empty_array_is_empty(self, array):
        assert array.items() == []


class TestUpdates:
    def test_update_then_get(self, array):
        array.update(3, 42)
        assert array.get(3) == 42

    def test_update_overwrites(self, array):
        array.update(3, 42)
        array.update(3, 7)
        assert array.get(3) == 7

    def test_update_with_infinity_clears(self, array):
        array.update(3, 42)
        array.update(3, NO_SUCCESSOR)
        assert array.get(3) == NO_SUCCESSOR
        assert array.density == 0

    def test_density_counts_non_empty_entries(self, array):
        array.update(0, 5)
        array.update(7, 6)
        array.update(7, 3)      # overwrite, not a new entry
        assert array.density == 2

    def test_items_returns_sorted_pairs(self, array):
        array.update(9, 1)
        array.update(2, 8)
        assert array.items() == [(2, 8), (9, 1)]

    def test_negative_index_rejected(self, array):
        array.update(3, 5)
        with pytest.raises(InvalidNodeError):
            array.update(-1, 2)
        assert array.items() == [(3, 5)]
        assert array.density == 1
        assert array.suffix_min(0) == 5

    def test_negative_query_index_rejected(self, array):
        array.update(3, 5)
        with pytest.raises(InvalidNodeError):
            array.suffix_min(-2)
        with pytest.raises(InvalidNodeError):
            array.get(-1)
        assert array.items() == [(3, 5)]
        assert array.density == 1

    def test_negative_index_rejected_on_empty_array(self, array):
        for operation in (array.get, array.suffix_min):
            with pytest.raises(InvalidNodeError):
                operation(-1)
        with pytest.raises(InvalidNodeError):
            array.update(-1, 2)
        assert array.items() == []
        assert array.density == 0

    def test_capacity_grows_on_demand(self, array):
        array.update(100, 3)
        assert array.capacity >= 101
        assert array.get(100) == 3

    def test_growth_preserves_existing_entries(self, array):
        array.update(2, 9)
        array.update(500, 1)
        assert array.get(2) == 9
        assert array.suffix_min(0) == 1


class TestSuffixMin:
    def test_suffix_min_sees_later_entries_only(self, array):
        array.update(2, 10)
        array.update(8, 4)
        assert array.suffix_min(0) == 4
        assert array.suffix_min(3) == 4
        assert array.suffix_min(9) == NO_SUCCESSOR

    def test_suffix_min_at_exact_index(self, array):
        array.update(5, 7)
        assert array.suffix_min(5) == 7
        assert array.suffix_min(6) == NO_SUCCESSOR

    def test_suffix_min_with_duplicate_values(self, array):
        array.update(1, 3)
        array.update(6, 3)
        assert array.suffix_min(0) == 3
        assert array.suffix_min(2) == 3

    def test_suffix_min_beyond_capacity_is_infinite(self, array):
        array.update(1, 3)
        assert array.suffix_min(array.capacity + 10) == NO_SUCCESSOR

    def test_example_1_from_paper(self, array):
        """Example 1 of the paper: A = [6, 9, 8, 10]."""
        for index, value in enumerate([6, 9, 8, 10]):
            array.update(index, value)
        assert array.suffix_min(0) == 6
        assert array.suffix_min(1) == 8
        assert array.suffix_min(2) == 8
        assert array.suffix_min(3) == 10


class TestArgleq:
    def test_argleq_returns_largest_qualifying_index(self, array):
        array.update(1, 5)
        array.update(6, 9)
        assert array.argleq(9) == 6
        assert array.argleq(5) == 1

    def test_argleq_below_all_values_is_none(self, array):
        array.update(4, 10)
        assert array.argleq(9) == -1

    def test_argleq_ignores_cleared_entries(self, array):
        array.update(9, 2)
        array.update(9, NO_SUCCESSOR)
        array.update(1, 2)
        assert array.argleq(2) == 1

    def test_example_1_argleq_from_paper(self, array):
        """Example 1 of the paper: argleq over A = [6, 9, 8, 10]."""
        for index, value in enumerate([6, 9, 8, 10]):
            array.update(index, value)
        assert array.argleq(7) == 0
        assert array.argleq(9) == 2
        assert array.argleq(11) == 3

    def test_example_1_after_update(self, array):
        """Example 1 continues: update(A, 3, 7) sets A[3] = 7."""
        for index, value in enumerate([6, 9, 8, 10]):
            array.update(index, value)
        array.update(3, 7)
        assert array.suffix_min(2) == 7
        assert array.argleq(7) == 3


class TestConstruction:
    def test_zero_capacity_rejected(self, array):
        with pytest.raises(InvalidNodeError):
            type(array)(0)

    def test_capacity_reported(self):
        assert SegmentTree(10).capacity >= 10
        assert SparseSegmentTree(10).capacity >= 10
        assert NaiveSuffixMinima(10).capacity == 10
