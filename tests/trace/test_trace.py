"""Tests for the Trace container and its derived indexes."""

import pytest

from repro.errors import TraceError
from repro.trace import Event, EventKind, Trace


@pytest.fixture
def locking_trace():
    trace = Trace(name="locking")
    trace.write(0, "x", value=1)
    trace.acquire(0, "l")
    trace.write(0, "y", value=2)
    trace.release(0, "l")
    trace.acquire(1, "l")
    trace.read(1, "y", value=2)
    trace.release(1, "l")
    trace.read(1, "x", value=1)
    return trace


class TestConstruction:
    def test_append_assigns_per_thread_indices(self):
        trace = Trace()
        first = trace.write(0, "x")
        second = trace.read(1, "x")
        third = trace.write(0, "y")
        assert first.node == (0, 0)
        assert second.node == (1, 0)
        assert third.node == (0, 1)

    def test_len_and_iteration(self, locking_trace):
        assert len(locking_trace) == 8
        assert len(list(locking_trace)) == 8

    def test_indexing_returns_events_in_observed_order(self, locking_trace):
        assert locking_trace[0].kind is EventKind.WRITE
        assert locking_trace[4].kind is EventKind.ACQUIRE

    def test_threads_and_lengths(self, locking_trace):
        assert locking_trace.threads == [0, 1]
        assert locking_trace.num_threads == 2
        assert locking_trace.thread_length(0) == 4
        assert locking_trace.max_thread_length == 4

    def test_thread_events_in_program_order(self, locking_trace):
        indices = [event.index for event in locking_trace.thread_events(0)]
        assert indices == [0, 1, 2, 3]

    def test_event_at_node(self, locking_trace):
        event = locking_trace.event_at((1, 1))
        assert event.kind is EventKind.READ
        assert event.variable == "y"

    def test_event_at_missing_node_raises(self, locking_trace):
        with pytest.raises(TraceError):
            locking_trace.event_at((1, 99))

    def test_prebuilt_events_must_be_contiguous(self):
        good = Event(thread=0, index=0, kind=EventKind.READ, variable="x")
        bad = Event(thread=0, index=5, kind=EventKind.READ, variable="x")
        with pytest.raises(TraceError):
            Trace([good, bad])

    def test_constructor_accepts_well_formed_events(self):
        events = [
            Event(thread=0, index=0, kind=EventKind.WRITE, variable="x"),
            Event(thread=1, index=0, kind=EventKind.READ, variable="x"),
            Event(thread=0, index=1, kind=EventKind.READ, variable="x"),
        ]
        trace = Trace(events)
        assert len(trace) == 3

    def test_convenience_constructors_set_metadata(self):
        trace = Trace()
        assert trace.fork(0, 1).target == 1
        assert trace.join(0, 1).target == 1
        assert trace.alloc(1, "p").variable == "p"
        assert trace.free(1, "p").variable == "p"
        assert trace.begin(2, "add", argument=5).argument == 5
        assert trace.end(2, "add", result=True).result is True
        assert trace.atomic_rmw(3, "a", value=1).atomic


class TestDerivedIndexes:
    def test_accesses_by_variable(self, locking_trace):
        grouped = locking_trace.accesses_by_variable()
        assert {event.thread for event in grouped["x"]} == {0, 1}
        assert len(grouped["y"]) == 2

    def test_writes_by_variable(self, locking_trace):
        grouped = locking_trace.writes_by_variable()
        assert len(grouped["x"]) == 1
        assert "l" not in grouped

    def test_reads_from_maps_to_latest_write(self, locking_trace):
        mapping = locking_trace.reads_from()
        read_y = locking_trace.event_at((1, 1))
        assert mapping[read_y].node == (0, 2)

    def test_reads_from_without_writer_is_none(self):
        trace = Trace()
        read = trace.read(0, "never_written")
        assert trace.reads_from()[read] is None

    def test_critical_sections_extraction(self, locking_trace):
        sections = locking_trace.critical_sections()
        assert len(sections) == 2
        first, second = sections
        assert first.thread == 0 and second.thread == 1
        assert first.release is not None
        assert first.contains(locking_trace.event_at((0, 2)))
        assert not first.contains(locking_trace.event_at((0, 0)))

    def test_unbalanced_release_raises(self):
        trace = Trace()
        trace.release(0, "l")
        with pytest.raises(TraceError):
            trace.critical_sections()

    def test_unclosed_critical_section_allowed(self):
        trace = Trace()
        trace.acquire(0, "l")
        trace.write(0, "x")
        sections = trace.critical_sections()
        assert sections[0].release is None
        assert sections[0].contains(trace.event_at((0, 1)))

    def test_critical_sections_returns_fresh_objects(self):
        """Mutating a returned section must not corrupt the trace's index,
        and a section handed out while open must not change under the
        caller when the release arrives later (streaming ingestion)."""
        trace = Trace()
        trace.acquire(0, "l")
        trace.write(0, "x")
        open_view = trace.critical_sections()[0]
        assert open_view.release is None
        release = trace.release(0, "l")
        # The earlier snapshot is unaffected; a fresh call sees the close.
        assert open_view.release is None
        assert trace.critical_sections()[0].release is release
        # Caller-side mutation does not leak back into the trace.
        tampered = trace.critical_sections()
        tampered[0].release = None
        assert trace.critical_sections()[0].release is release

    def test_locks_held_at(self, locking_trace):
        inside = locking_trace.event_at((0, 2))
        outside = locking_trace.event_at((0, 0))
        assert locking_trace.locks_held_at(inside) == frozenset({"l"})
        assert locking_trace.locks_held_at(outside) == frozenset()

    def test_locks_held_map_matches_point_queries(self, locking_trace):
        held_map = locking_trace.locks_held_map()
        for event in locking_trace:
            assert held_map[event.node] == locking_trace.locks_held_at(event)

    def test_nested_locks_held(self):
        trace = Trace()
        trace.acquire(0, "a")
        trace.acquire(0, "b")
        trace.write(0, "x")
        trace.release(0, "b")
        trace.write(0, "y")
        held_map = trace.locks_held_map()
        assert held_map[(0, 2)] == frozenset({"a", "b"})
        assert held_map[(0, 4)] == frozenset({"a"})

    def test_fork_join_edges(self):
        trace = Trace()
        trace.fork(0, 1)
        trace.write(1, "x")
        trace.write(1, "y")
        trace.join(0, 1)
        edges = trace.fork_join_edges()
        assert ((0, 0), (1, 0)) in edges
        assert ((1, 1), (0, 1)) in edges

    def test_fork_to_unknown_thread_produces_no_edge(self):
        trace = Trace()
        trace.fork(0, 9)
        assert trace.fork_join_edges() == []


class TestReadOnlyQueriesAddNoThreads:
    """Queries about a thread the trace does not have leave its thread set
    alone (the chains live in a ``defaultdict``)."""

    def test_unknown_thread_queries_are_side_effect_free(self):
        trace = Trace()
        trace.write(0, "x")
        trace.acquire(0, "l")
        before = (trace.threads, trace.num_threads, trace.max_thread_length)
        hypothetical = Event(thread=5, index=0, kind=EventKind.READ,
                             variable="x")
        assert trace.locks_held_at(hypothetical) == frozenset()
        with pytest.raises(TraceError):
            trace.event_at((9, 0))
        assert (trace.threads, trace.num_threads,
                trace.max_thread_length) == before == ([0], 1, 2)
