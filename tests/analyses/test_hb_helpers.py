"""Tests for the shared happens-before helpers."""

import pytest

from repro.analyses.common.hb import (
    Frontiers,
    build_sync_order,
    conflicting_pairs,
    insert_ordering,
    lock_graph,
)
from repro.core import NO_SUCCESSOR, IncrementalCSST
from repro.core.instrumented import InstrumentedOrder
from repro.trace import Trace


@pytest.fixture
def sync_trace():
    trace = Trace(name="sync")
    trace.fork(0, 1)
    trace.acquire(0, "l")
    trace.write(0, "x", value=1)
    trace.release(0, "l")
    trace.acquire(1, "l")
    trace.read(1, "x", value=1)
    trace.release(1, "l")
    trace.join(0, 1)
    return trace


class TestInsertOrdering:
    def test_cross_chain_edge_inserted_once(self):
        order = IncrementalCSST(2, 8)
        assert insert_ordering(order, (0, 1), (1, 2))
        assert not insert_ordering(order, (0, 1), (1, 2))
        assert not insert_ordering(order, (0, 0), (1, 5))

    def test_intra_chain_ordering_never_inserted(self):
        order = IncrementalCSST(2, 8)
        assert insert_ordering(order, (0, 1), (0, 5))
        assert not insert_ordering(order, (0, 5), (0, 1))
        assert order.edge_count == 0


class TestBuildSyncOrder:
    def test_lock_edges(self, sync_trace):
        order = IncrementalCSST(2, 8)
        build_sync_order(sync_trace, order, include_fork_join=False)
        # release(0, l) happens before acquire(1, l)
        assert order.reachable((0, 3), (1, 0))

    def test_fork_join_edges(self, sync_trace):
        order = IncrementalCSST(2, 8)
        build_sync_order(sync_trace, order, include_locks=False)
        assert order.reachable((0, 0), (1, 0))   # fork before first child event
        assert order.reachable((1, 2), (0, 4))   # last child event before join

    def test_reads_from_edges_optional(self, sync_trace):
        without = IncrementalCSST(2, 8)
        build_sync_order(sync_trace, without, include_locks=False,
                         include_fork_join=False)
        assert without.edge_count == 0
        with_rf = IncrementalCSST(2, 8)
        build_sync_order(sync_trace, with_rf, include_locks=False,
                         include_fork_join=False, include_reads_from=True)
        assert with_rf.reachable((0, 2), (1, 1))

    def test_returns_number_of_inserted_edges(self, sync_trace):
        order = IncrementalCSST(2, 8)
        inserted = build_sync_order(sync_trace, order)
        assert inserted == order.edge_count > 0

    def test_same_thread_lock_transfer_adds_no_edge(self):
        trace = Trace()
        trace.acquire(0, "l")
        trace.release(0, "l")
        trace.acquire(0, "l")
        trace.release(0, "l")
        order = IncrementalCSST(1, 8)
        assert build_sync_order(trace, order) == 0


class TestConflictingPairs:
    def test_pairs_require_conflict(self):
        trace = Trace()
        trace.write(0, "x")
        trace.read(1, "x")
        trace.read(1, "y")
        pairs = conflicting_pairs(trace)
        assert len(pairs) == 1
        assert pairs[0][0].variable == "x"

    def test_max_pairs_cap(self):
        trace = Trace()
        for index in range(6):
            trace.write(index % 2, "x", value=index)
        assert len(conflicting_pairs(trace, max_pairs=3)) == 3

    @pytest.mark.parametrize("cap", [0, -1, -10])
    def test_non_positive_cap_yields_no_pairs(self, cap):
        trace = Trace()
        for index in range(6):
            trace.write(index % 2, "x", value=index)
        assert conflicting_pairs(trace, max_pairs=cap) == []

    def test_pairs_match_conflicts_with(self):
        trace = Trace()
        for index in range(12):
            thread = index % 3
            if index % 4 == 1:
                trace.read(thread, "xy"[index % 2])
            else:
                trace.write(thread, "xy"[index % 2], value=index)
        expected = [
            (first, second)
            for accesses in trace.accesses_by_variable().values()
            for i, first in enumerate(accesses)
            for second in accesses[i + 1 :]
            if first.conflicts_with(second)
        ]
        assert conflicting_pairs(trace) == expected

    def test_window_limits_pair_distance(self):
        trace = Trace()
        for index in range(10):
            trace.write(index % 2, "x", value=index)
        windowed = conflicting_pairs(trace, same_variable_window=1)
        unwindowed = conflicting_pairs(trace)
        assert len(windowed) < len(unwindowed)


class TestFrontiers:
    @pytest.fixture
    def order(self):
        # (0, 1) -> (1, 2) -> (2, 0); chain 3 is unrelated.
        order = InstrumentedOrder(IncrementalCSST(4, 8))
        order.insert_edge((0, 1), (1, 2))
        order.insert_edge((1, 2), (2, 0))
        return order

    def test_frontiers_match_the_order(self, order):
        frontiers = Frontiers(order)
        assert frontiers.predecessor((2, 0), 0) == 1
        assert frontiers.predecessor((2, 0), 3) == -1
        assert frontiers.successor((0, 0), 2) == 0
        assert frontiers.successor((0, 2), 1) == NO_SUCCESSOR
        assert frontiers.reaches((0, 1), (2, 0))
        assert not frontiers.reaches((0, 2), (2, 0))
        assert frontiers.ordered((2, 0), (0, 0))
        assert not frontiers.ordered((3, 0), (0, 0))

    def test_each_frontier_is_queried_once(self, order):
        frontiers = Frontiers(order)
        for _ in range(3):
            frontiers.predecessor((2, 0), 0)
            frontiers.successor((0, 0), 2)
            frontiers.predecessor((2, 0), 2)   # own chain: no query
        assert order.query_count == 2

    def test_insert_skips_implied_edges_and_keeps_the_memo(self, order):
        frontiers = Frontiers(order)
        assert frontiers.predecessor((2, 0), 0) == 1
        assert not frontiers.insert((0, 0), (2, 0))   # implied via (0, 1)
        assert frontiers.predecessor((2, 0), 0) == 1
        assert (order.insert_count, order.query_count) == (2, 1)

    def test_insert_drops_every_frontier(self, order):
        frontiers = Frontiers(order)
        assert frontiers.predecessor((3, 0), 0) == -1
        assert frontiers.successor((0, 2), 3) == NO_SUCCESSOR
        assert frontiers.insert((0, 2), (3, 0))
        assert order.insert_count == 3
        queries = order.query_count
        assert frontiers.predecessor((3, 0), 0) == 2
        assert frontiers.successor((0, 2), 3) == 0
        assert order.query_count == queries + 2

    def test_cone_own_thread_bound(self, order):
        frontiers = Frontiers(order)
        anchors = ((2, 0), (3, 4))
        threads = range(4)
        assert frontiers.cone(anchors, threads, inclusive=True) == {
            0: 1, 1: 2, 2: 0, 3: 4}
        assert frontiers.cone(anchors, threads, inclusive=False) == {
            0: 1, 1: 2, 3: 3}


class TestLockGraph:
    def test_nested_acquisition_recorded(self):
        trace = Trace()
        trace.acquire(0, "a")
        trace.acquire(0, "b")
        trace.release(0, "b")
        trace.release(0, "a")
        graph = lock_graph(trace)
        assert len(graph["a"]["b"]) == 1
        assert "a" not in graph.get("b", {})

    def test_cycle_appears_for_inverted_orders(self):
        trace = Trace()
        trace.acquire(0, "a")
        trace.acquire(0, "b")
        trace.release(0, "b")
        trace.release(0, "a")
        trace.acquire(1, "b")
        trace.acquire(1, "a")
        trace.release(1, "a")
        trace.release(1, "b")
        graph = lock_graph(trace)
        assert graph["a"]["b"] and graph["b"]["a"]

    def test_release_clears_held_lock(self):
        trace = Trace()
        trace.acquire(0, "a")
        trace.release(0, "a")
        trace.acquire(0, "b")
        trace.release(0, "b")
        graph = lock_graph(trace)
        assert not graph.get("a", {}).get("b")
