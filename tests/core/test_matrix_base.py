"""Tests for the shared chain-pair array matrix used by the CSST variants."""

import pytest

from repro.core import CSST, IncrementalCSST, SegmentTree, SegmentTreeOrder
from repro.core.suffix_minima import NaiveSuffixMinima


class TestLazyArrayCreation:
    def test_no_arrays_before_any_edge(self):
        order = IncrementalCSST(4, 16)
        assert order.total_entries == 0
        assert order.max_array_density == 0
        assert list(order._iter_arrays()) == []

    def test_arrays_created_only_for_touched_pairs(self):
        order = IncrementalCSST(4, 16)
        order.insert_edge((0, 1), (1, 2))
        touched_pairs = {pair for pair, _array in order._iter_arrays()}
        # Only pairs involving chains that actually interact are created;
        # with one edge that is at most the pairs reachable from chain 0/1.
        assert (0, 1) in touched_pairs
        assert all(source != target for source, target in touched_pairs)

    def test_untouched_pair_has_no_array(self):
        order = IncrementalCSST(4, 16)
        order.insert_edge((0, 1), (1, 2))
        arrays = dict(order._iter_arrays())
        assert (2, 3) not in arrays
        assert (0, 1) in arrays

    def test_custom_array_factory_is_used(self):
        order = IncrementalCSST(3, 16,
                                array_factory=lambda capacity: NaiveSuffixMinima(capacity))
        order.insert_edge((0, 1), (1, 2))
        arrays = [array for _pair, array in order._iter_arrays()]
        assert arrays and all(isinstance(a, NaiveSuffixMinima) for a in arrays)
        assert order.reachable((0, 0), (1, 5))

    def test_segment_tree_order_uses_dense_arrays(self):
        order = SegmentTreeOrder(3, 16)
        order.insert_edge((0, 1), (1, 2))
        arrays = [array for _pair, array in order._iter_arrays()]
        assert arrays and all(isinstance(a, SegmentTree) for a in arrays)


class TestIntrospection:
    def test_total_entries_counts_across_arrays(self):
        order = CSST(3, 16)
        order.insert_edge((0, 1), (1, 2))
        order.insert_edge((0, 3), (2, 4))
        order.insert_edge((1, 5), (2, 6))
        assert order.total_entries == 3
        assert order.max_array_density == 1

    def test_density_reflects_distinct_source_indices(self):
        order = CSST(3, 32)
        for index in range(5):
            order.insert_edge((0, index), (1, index))
        # Five sources in chain 0 towards chain 1.
        assert order.max_array_density == 5

    def test_multiple_edges_from_same_source_count_once(self):
        order = CSST(3, 32)
        order.insert_edge((0, 1), (1, 5))
        order.insert_edge((0, 1), (1, 9))
        assert order.max_array_density == 1
        assert order.edge_count == 2
