"""Tests specific to the plain graph baseline."""

import pytest

from repro.core import NO_SUCCESSOR, GraphOrder
from repro.errors import InvalidEdgeError


class TestQueries:
    def test_dfs_follows_program_order_and_edges(self):
        order = GraphOrder(3)
        order.insert_edge((0, 2), (1, 4))
        order.insert_edge((1, 6), (2, 1))
        assert order.reachable((0, 0), (2, 8))
        assert not order.reachable((2, 0), (0, 0))

    def test_successor_scans_closure(self):
        order = GraphOrder(3)
        order.insert_edge((0, 2), (1, 4))
        order.insert_edge((1, 6), (2, 1))
        assert order.successor((0, 0), 2) == 1
        assert order.successor((0, 3), 2) == NO_SUCCESSOR

    def test_predecessor_scans_reverse_closure(self):
        order = GraphOrder(3)
        order.insert_edge((0, 2), (1, 4))
        order.insert_edge((1, 6), (2, 1))
        assert order.predecessor((2, 3), 0) == 2
        assert order.predecessor((1, 3), 0) == -1

    def test_diamond_shape(self):
        order = GraphOrder(4)
        order.insert_edge((0, 0), (1, 1))
        order.insert_edge((0, 0), (2, 1))
        order.insert_edge((1, 2), (3, 3))
        order.insert_edge((2, 2), (3, 2))
        assert order.successor((0, 0), 3) == 2
        assert order.predecessor((3, 3), 0) == 0


class TestUpdates:
    def test_delete_edge_removes_reachability(self):
        order = GraphOrder(2)
        order.insert_edge((0, 1), (1, 2))
        order.delete_edge((0, 1), (1, 2))
        assert not order.reachable((0, 0), (1, 5))

    def test_delete_missing_edge_raises(self):
        order = GraphOrder(2)
        with pytest.raises(InvalidEdgeError):
            order.delete_edge((0, 1), (1, 2))

    def test_edge_count_and_entries(self):
        order = GraphOrder(2)
        order.insert_edge((0, 1), (1, 2))
        order.insert_edge((1, 3), (0, 5))
        assert order.edge_count == 2
        assert order.total_entries == 4
        order.delete_edge((0, 1), (1, 2))
        assert order.edge_count == 1

    def test_duplicate_insertion_is_idempotent(self):
        order = GraphOrder(2)
        order.insert_edge((0, 1), (1, 2))
        order.insert_edge((0, 1), (1, 2))
        order.delete_edge((0, 1), (1, 2))
        assert not order.reachable((0, 1), (1, 2))
