"""Tests specific to the Vector Clock baseline."""

import pytest

from repro.core import NO_SUCCESSOR, VectorClockOrder
from repro.errors import UnsupportedOperationError


class TestClocks:
    def test_initial_clock_contains_only_own_component(self):
        order = VectorClockOrder(3)
        assert order.clock_of((1, 4)) == [-1, 4, -1]

    def test_clock_reflects_incoming_edge(self):
        order = VectorClockOrder(3)
        order.insert_edge((0, 2), (1, 5))
        assert order.clock_of((1, 5)) == [2, 5, -1]

    def test_clock_inherited_along_program_order(self):
        order = VectorClockOrder(3)
        order.insert_edge((0, 2), (1, 5))
        assert order.clock_of((1, 9))[0] == 2
        assert order.clock_of((1, 4))[0] == -1

    def test_transitive_clock_propagation(self):
        order = VectorClockOrder(3)
        order.insert_edge((0, 2), (1, 5))
        order.insert_edge((1, 6), (2, 3))
        clock = order.clock_of((2, 3))
        assert clock[0] == 2
        assert clock[1] == 6

    def test_propagation_to_already_materialised_successors(self):
        """Inserting an edge whose target precedes existing cross-edge
        endpoints must propagate forward through them (the O(n) behaviour
        the paper describes)."""
        order = VectorClockOrder(3)
        order.insert_edge((1, 8), (2, 1))      # materialises (1, 8)
        order.insert_edge((0, 4), (1, 2))      # earlier target in chain 1
        assert order.clock_of((1, 8))[0] == 4
        assert order.clock_of((2, 1))[0] == 4

    def test_clock_monotone_along_chain(self):
        order = VectorClockOrder(2)
        order.insert_edge((0, 3), (1, 2))
        order.insert_edge((0, 7), (1, 6))
        previous = -1
        for index in range(10):
            value = order.clock_of((1, index))[0]
            assert value >= previous
            previous = value


class TestQueries:
    def test_reachability_is_clock_lookup(self):
        order = VectorClockOrder(3)
        order.insert_edge((0, 2), (1, 5))
        assert order.reachable((0, 2), (1, 5))
        assert order.reachable((0, 1), (1, 8))
        assert not order.reachable((0, 3), (1, 5))

    def test_successor_binary_search(self):
        order = VectorClockOrder(3)
        order.insert_edge((0, 2), (1, 5))
        order.insert_edge((0, 4), (1, 9))
        assert order.successor((0, 2), 1) == 5
        assert order.successor((0, 3), 1) == 9
        assert order.successor((0, 5), 1) == NO_SUCCESSOR

    def test_predecessor_reads_clock_entry(self):
        order = VectorClockOrder(3)
        order.insert_edge((0, 2), (1, 5))
        assert order.predecessor((1, 7), 0) == 2
        assert order.predecessor((1, 3), 0) == -1

    def test_queries_beyond_materialised_frontier(self):
        order = VectorClockOrder(2)
        order.insert_edge((0, 1), (1, 1))
        assert order.reachable((0, 0), (1, 50))
        assert order.predecessor((1, 50), 0) == 1


class TestResourceAccounting:
    def test_materialised_clocks_grow_with_touched_prefix(self):
        order = VectorClockOrder(2)
        order.insert_edge((0, 9), (1, 4))
        # Chains are materialised densely up to the touched indices,
        # reflecting the O(n k) footprint of the real structure.
        assert order.materialised_clocks == 10 + 5
        assert order.total_entries == order.materialised_clocks * 2

    def test_edge_count(self):
        order = VectorClockOrder(2)
        order.insert_edge((0, 1), (1, 1))
        order.insert_edge((1, 3), (0, 4))
        assert order.edge_count == 2

    def test_deletion_unsupported(self):
        order = VectorClockOrder(2)
        order.insert_edge((0, 1), (1, 1))
        with pytest.raises(UnsupportedOperationError):
            order.delete_edge((0, 1), (1, 1))
