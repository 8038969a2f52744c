"""Tests for the shared partial-order interface: validation, the derived
query helpers, and behaviours every backend must exhibit."""

import pytest

from repro.core import (
    CSST,
    NO_SUCCESSOR,
    GraphOrder,
    GrowableOrder,
    IncrementalCSST,
    InstrumentedOrder,
    VectorClockOrder,
)
from repro.errors import InvalidEdgeError, InvalidNodeError, UnsupportedOperationError


class TestValidation:
    def test_zero_chains_rejected(self, any_backend):
        with pytest.raises(InvalidNodeError):
            type(any_backend)(0)

    def test_zero_capacity_hint_rejected(self):
        with pytest.raises(InvalidNodeError):
            IncrementalCSST(2, 0)

    def test_intra_chain_edge_rejected(self, any_backend):
        with pytest.raises(InvalidEdgeError):
            any_backend.insert_edge((1, 0), (1, 5))

    def test_out_of_range_chain_rejected(self, any_backend):
        with pytest.raises(InvalidNodeError):
            any_backend.insert_edge((7, 0), (1, 5))

    def test_negative_index_rejected(self, any_backend):
        with pytest.raises(InvalidNodeError):
            any_backend.insert_edge((0, -1), (1, 5))

    def test_query_node_validation(self, any_backend):
        with pytest.raises(InvalidNodeError):
            any_backend.reachable((0, 0), (9, 0))

    @pytest.mark.parametrize("chain", [-1, 4, 5])
    def test_out_of_range_query_chain_rejected(self, any_backend, chain):
        """An answer for a chain the order does not have would read as a
        real frontier, so it is an error, as in ``reachable``."""
        any_backend.insert_edge((0, 1), (1, 2))
        with pytest.raises(InvalidNodeError):
            any_backend.successor((0, 0), chain)
        with pytest.raises(InvalidNodeError):
            any_backend.predecessor((1, 3), chain)


class TestProgramOrder:
    def test_same_chain_later_index_is_reachable(self, any_backend):
        assert any_backend.reachable((2, 1), (2, 5))

    def test_same_chain_earlier_index_is_not_reachable(self, any_backend):
        assert not any_backend.reachable((2, 5), (2, 1))

    def test_node_reaches_itself(self, any_backend):
        assert any_backend.reachable((1, 3), (1, 3))

    def test_successor_in_own_chain_is_self(self, any_backend):
        assert any_backend.successor((1, 3), 1) == 3

    def test_predecessor_in_own_chain_is_self(self, any_backend):
        assert any_backend.predecessor((1, 3), 1) == 3

    def test_no_cross_reachability_without_edges(self, any_backend):
        assert not any_backend.reachable((0, 0), (1, 10))
        assert any_backend.successor((0, 0), 1) == NO_SUCCESSOR
        assert any_backend.predecessor((0, 0), 1) == -1


class TestSingleEdge:
    def test_edge_orders_endpoints(self, any_backend):
        any_backend.insert_edge((0, 3), (2, 7))
        assert any_backend.reachable((0, 3), (2, 7))
        assert not any_backend.reachable((2, 7), (0, 3))

    def test_edge_composes_with_program_order(self, any_backend):
        any_backend.insert_edge((0, 3), (2, 7))
        assert any_backend.reachable((0, 1), (2, 9))
        assert not any_backend.reachable((0, 4), (2, 9))
        assert not any_backend.reachable((0, 1), (2, 6))

    def test_successor_after_edge(self, any_backend):
        any_backend.insert_edge((0, 3), (2, 7))
        assert any_backend.successor((0, 2), 2) == 7
        assert any_backend.successor((0, 4), 2) == NO_SUCCESSOR

    def test_predecessor_after_edge(self, any_backend):
        any_backend.insert_edge((0, 3), (2, 7))
        assert any_backend.predecessor((2, 8), 0) == 3
        assert any_backend.predecessor((2, 6), 0) == -1

    def test_ordered_and_concurrent_helpers(self, any_backend):
        any_backend.insert_edge((0, 3), (2, 7))
        assert any_backend.ordered((0, 3), (2, 9))
        assert any_backend.ordered((2, 7), (0, 1))
        assert any_backend.concurrent((1, 0), (2, 7))
        assert not any_backend.concurrent((0, 0), (0, 5))

    def test_insert_edges_bulk_helper(self, any_backend):
        any_backend.insert_many([((0, 1), (1, 1)), ((1, 2), (2, 2))])
        assert any_backend.reachable((0, 1), (2, 5))


class TestTransitivity:
    def test_two_hop_path_through_intermediate_chain(self, any_backend):
        any_backend.insert_edge((0, 1), (1, 4))
        any_backend.insert_edge((1, 5), (2, 2))
        assert any_backend.reachable((0, 0), (2, 3))
        assert any_backend.successor((0, 1), 2) == 2
        assert any_backend.predecessor((2, 2), 0) == 1

    def test_three_hop_path(self, any_backend):
        any_backend.insert_edge((0, 0), (1, 1))
        any_backend.insert_edge((1, 2), (2, 3))
        any_backend.insert_edge((2, 4), (3, 5))
        assert any_backend.reachable((0, 0), (3, 8))
        assert any_backend.successor((0, 0), 3) == 5

    def test_figure8_example(self, any_backend):
        """The successor query of Figure 8: the earliest successor in chain 3
        is found only through the transitive path via chains 1 and 2."""
        any_backend.insert_edge((0, 0), (1, 0))    # edge 1
        any_backend.insert_edge((0, 1), (3, 2))    # edge 2
        any_backend.insert_edge((1, 1), (2, 1))    # edge 3
        any_backend.insert_edge((2, 1), (3, 1))    # edge 4
        assert any_backend.successor((0, 0), 3) == 1

    def test_figure9_example(self, any_backend):
        """The insertion of Figure 9: inserting (1,1) -> (2,0) creates the
        transitive path (0,1) ->* (3,2)."""
        any_backend.insert_edge((0, 1), (1, 0))
        any_backend.insert_edge((2, 0), (3, 2))
        assert not any_backend.reachable((0, 1), (3, 2))
        any_backend.insert_edge((1, 1), (2, 0))
        assert any_backend.reachable((0, 1), (3, 2))
        assert any_backend.successor((0, 1), 3) == 2
        assert any_backend.predecessor((3, 2), 0) == 1


class TestDeletionSupport:
    def test_incremental_backends_reject_deletion(self):
        for cls in (IncrementalCSST, VectorClockOrder):
            order = cls(3, 8)
            order.insert_edge((0, 1), (1, 1))
            with pytest.raises(UnsupportedOperationError):
                order.delete_edge((0, 1), (1, 1))

    def test_supports_deletion_flags(self):
        assert CSST(2).supports_deletion
        assert GraphOrder(2).supports_deletion
        assert not IncrementalCSST(2).supports_deletion
        assert not VectorClockOrder(2).supports_deletion

    def test_deleting_missing_edge_raises(self, dynamic_backend):
        with pytest.raises(InvalidEdgeError):
            dynamic_backend.delete_edge((0, 1), (1, 1))

    def test_delete_restores_unreachability(self, dynamic_backend):
        dynamic_backend.insert_edge((0, 3), (2, 7))
        dynamic_backend.delete_edge((0, 3), (2, 7))
        assert not dynamic_backend.reachable((0, 3), (2, 7))

    def test_delete_keeps_parallel_edges(self, dynamic_backend):
        dynamic_backend.insert_edge((0, 3), (2, 7))
        dynamic_backend.insert_edge((0, 3), (2, 9))
        dynamic_backend.delete_edge((0, 3), (2, 7))
        assert dynamic_backend.reachable((0, 3), (2, 9))
        assert dynamic_backend.successor((0, 3), 2) == 9

    def test_delete_and_reinsert(self, dynamic_backend):
        dynamic_backend.insert_edge((1, 2), (3, 4))
        dynamic_backend.delete_edge((1, 2), (3, 4))
        dynamic_backend.insert_edge((1, 2), (3, 4))
        assert dynamic_backend.reachable((1, 0), (3, 4))


class TestFrontier:
    """``frontier(node, direction)``: every chain's answer in one call."""

    def test_matches_the_per_chain_queries(self, any_backend):
        any_backend.insert_edge((0, 1), (1, 2))
        any_backend.insert_edge((1, 3), (2, 0))
        for node in [(0, 0), (0, 1), (1, 2), (1, 4), (2, 0), (3, 5)]:
            for direction in ("predecessor", "successor"):
                expected = [getattr(any_backend, direction)(node, chain)
                            for chain in range(any_backend.num_chains)]
                assert any_backend.frontier(node, direction) == expected

    def test_own_chain_entry_is_the_node_index(self, any_backend):
        assert any_backend.frontier((2, 7), "predecessor")[2] == 7
        assert any_backend.frontier((2, 7), "successor")[2] == 7
        assert any_backend.frontier((2, 7), "successor")[0] == NO_SUCCESSOR

    def test_invalid_arguments_raise(self, any_backend):
        with pytest.raises(InvalidNodeError):
            any_backend.frontier((9, 0), "predecessor")
        with pytest.raises(ValueError):
            any_backend.frontier((0, 0), "sideways")

    def test_instrumented_order_counts_one_query(self, any_backend):
        order = InstrumentedOrder(any_backend)
        order.frontier((0, 0), "successor")
        assert order.query_count == 1

    def test_growable_order_grows_to_the_node(self):
        order = GrowableOrder("vc-flat", num_chains=1)
        order.insert_edge((0, 1), (1, 0))
        assert order.frontier((2, 0), "predecessor")[:3] == [-1, -1, 0]
        assert order.frontier((0, 1), "successor")[:2] == [1, 0]
