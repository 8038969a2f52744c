"""Tests for the shared happens-before helpers."""

import pytest

from repro.analyses.common.hb import (
    Frontiers,
    insert_ordering,
    lock_graph,
    sync_edges,
    variable_conflicts,
)
from repro.core import NO_SUCCESSOR, IncrementalCSST
from repro.core.instrumented import InstrumentedOrder
from repro.trace import Trace
from repro.trace.generators import build_trace


def _sync_trace(fork_join=True):
    """Two critical sections of one lock, the second reading the first's
    write, optionally inside a fork/join of thread 1."""
    trace = Trace(name="sync")
    if fork_join:
        trace.fork(0, 1)
    trace.acquire(0, "l")
    trace.write(0, "x", value=1)
    trace.release(0, "l")
    trace.acquire(1, "l")
    trace.read(1, "x", value=1)
    trace.release(1, "l")
    if fork_join:
        trace.join(0, 1)
    return trace


@pytest.fixture
def sync_trace():
    return _sync_trace()


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


def _build(trace, order, **options):
    """Insert the edges of ``sync_edges(trace, **options)`` that the
    order does not imply yet; return how many went in."""
    return sum(insert_ordering(order, source, target)
               for source, target in sync_edges(trace, **options))


class TestSyncEdges:
    def test_lock_edges(self):
        order = IncrementalCSST(2, 8)
        assert _build(_sync_trace(fork_join=False), order) == 1
        # release(0, l) happens before acquire(1, l)
        assert order.reachable((0, 2), (1, 0))

    def test_fork_join_edges(self, sync_trace):
        order = IncrementalCSST(2, 8)
        _build(sync_trace, order, include_locks=False)
        assert order.reachable((0, 0), (1, 0))   # fork before first child event
        assert order.reachable((1, 2), (0, 4))   # last child event before join

    def test_no_reads_from_edges(self, sync_trace):
        # The write (0, 2) and its read (1, 1) are ordered only through
        # the lock.
        assert list(sync_edges(sync_trace, include_locks=False)) \
            == [((0, 0), (1, 0)), ((1, 2), (0, 4))]
        assert list(sync_edges(_sync_trace(fork_join=False),
                               include_locks=False)) == []

    def test_every_edge_is_cross_chain(self, sync_trace):
        edges = list(sync_edges(sync_trace))
        assert len(edges) == 3 and all(source[0] != target[0]
                                       for source, target in edges)

    def test_same_thread_lock_transfer_adds_no_edge(self):
        trace = Trace()
        trace.acquire(0, "l")
        trace.release(0, "l")
        trace.acquire(0, "l")
        trace.release(0, "l")
        assert list(sync_edges(trace)) == []

    def test_a_resumed_lock_walk_yields_the_rest(self):
        trace = _sync_trace(fork_join=False)
        whole = list(sync_edges(trace))
        last_release = {}
        prefix = Trace()
        for event in list(trace)[:3]:
            prefix.add(event)
        head = list(sync_edges(prefix, last_release=last_release))
        tail = list(sync_edges(trace, start=3, last_release=last_release))
        assert head == [] and tail == whole == [((0, 2), (1, 0))]


def _pairs(trace, window=None, limit=None):
    """The conflicting pairs of every variable of ``trace``, as events."""
    return [(accesses[i], accesses[j])
            for accesses in trace.accesses_by_variable().values()
            for i, j in variable_conflicts(accesses, 0, window, limit)]


class TestVariableConflicts:
    def test_pairs_require_conflict(self):
        trace = Trace()
        trace.write(0, "x")
        trace.read(1, "x")
        trace.read(1, "y")
        pairs = _pairs(trace)
        assert len(pairs) == 1
        assert pairs[0][0].variable == "x"

    def test_limit_caps_pairs(self):
        trace = Trace()
        for index in range(6):
            trace.write(index % 2, "x", value=index)
        assert len(_pairs(trace, limit=3)) == 3

    @pytest.mark.parametrize("cap", [0, -1, -10])
    def test_non_positive_limit_yields_no_pairs(self, cap):
        trace = Trace()
        for index in range(6):
            trace.write(index % 2, "x", value=index)
        assert _pairs(trace, limit=cap) == []

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
        assert _pairs(trace) == expected

    def test_window_limits_pair_distance(self):
        trace = Trace()
        for index in range(10):
            trace.write(index % 2, "x", value=index)
        windowed = _pairs(trace, window=1)
        unwindowed = _pairs(trace)
        assert len(windowed) < len(unwindowed)

    @pytest.mark.parametrize("window", [None, 1, 4])
    @pytest.mark.parametrize("step", [1, 3, 7])
    def test_a_growing_list_yields_each_pair_once(self, window, step):
        """Resumed at the old length, a growing access list yields exactly
        the pairs whose later access is new, in ``(i, j)`` order."""
        trace = build_trace("racy", num_threads=3, events=40, seed=5)
        for accesses in trace.accesses_by_variable().values():
            pieces, start = [], 0
            for end in range(step, len(accesses) + step, step):
                piece = variable_conflicts(accesses[:end], start, window)
                assert piece == sorted(piece)
                assert all(j >= start for _i, j in piece)
                pieces.extend(piece)
                start = min(end, len(accesses))
            assert sorted(pieces) == variable_conflicts(accesses, 0, window)


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
