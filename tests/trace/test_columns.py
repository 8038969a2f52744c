"""Columnar trace view: encoding correctness, interning, incremental sync."""

from repro.trace import Trace
from repro.trace.columns import (
    ACQUIRE_CODE,
    ALLOC_CODE,
    FREE_CODE,
    KIND_BY_CODE,
    KIND_CODES,
    RELEASE_CODE,
    TraceColumns,
)
from repro.trace.event import EventKind, MemoryOrder
from repro.trace.formats import dumps_trace, loads_trace
from repro.trace.generators import c11_trace, memory_trace, racy_trace


def test_kind_codes_are_dense_and_invertible():
    assert sorted(KIND_CODES.values()) == list(range(len(EventKind)))
    for kind, code in KIND_CODES.items():
        assert KIND_BY_CODE[code] is kind
    assert KIND_BY_CODE[ACQUIRE_CODE] is EventKind.ACQUIRE
    assert KIND_BY_CODE[RELEASE_CODE] is EventKind.RELEASE
    assert KIND_BY_CODE[ALLOC_CODE] is EventKind.ALLOC
    assert KIND_BY_CODE[FREE_CODE] is EventKind.FREE


def _assert_columns_mirror_events(trace):
    columns = trace.columns()
    assert len(columns) == len(trace)
    for position, event in enumerate(trace):
        assert KIND_BY_CODE[columns.kinds[position]] is event.kind
        assert columns.threads[position] == event.thread
        assert columns.indexes[position] == event.index
        assert bool(columns.access_flags[position]) == event.is_access
        assert bool(columns.read_flags[position]) == event.is_read
        assert bool(columns.write_flags[position]) == event.is_write
        assert bool(columns.atomic_flags[position]) == event.atomic
        if event.variable is None:
            assert columns.var_ids[position] == -1
        else:
            var_id = columns.var_ids[position]
            assert columns.variables[var_id] == event.variable
            assert columns.variable_id(event.variable) == var_id
        if event.memory_order is None:
            assert not columns.acquire_mo_flags[position]
            assert not columns.release_mo_flags[position]
        else:
            assert bool(columns.acquire_mo_flags[position]) \
                == event.memory_order.is_acquire
            assert bool(columns.release_mo_flags[position]) \
                == event.memory_order.is_release
        assert columns.events[position] is event
    # Per-thread positions list the global positions in program order.
    for thread in trace.threads:
        positions = columns.thread_positions[thread]
        assert [columns.events[p] for p in positions] \
            == list(trace.thread_events(thread))


def test_columns_mirror_racy_trace():
    _assert_columns_mirror_events(racy_trace(num_threads=3,
                                             events_per_thread=60, seed=1))


def test_columns_mirror_c11_trace():
    _assert_columns_mirror_events(c11_trace(num_threads=4,
                                            events_per_thread=50, seed=2))


def test_columns_mirror_memory_trace():
    _assert_columns_mirror_events(memory_trace(num_threads=3,
                                               events_per_thread=50, seed=3))


def test_columns_mirror_std_loaded_traces():
    # The STD loader builds the view while it parses, not through sync().
    for trace in (racy_trace(num_threads=3, events_per_thread=60, seed=1),
                  c11_trace(num_threads=4, events_per_thread=50, seed=2),
                  memory_trace(num_threads=3, events_per_thread=50, seed=3)):
        _assert_columns_mirror_events(loads_trace(dumps_trace(trace)))


def test_columns_view_is_cached_and_incremental():
    trace = Trace(name="live")
    trace.write(0, "x", value=1)
    columns = trace.columns()
    assert columns is trace.columns()  # same cached view
    assert len(columns) == 1
    trace.atomic_write(1, "a", value=2, memory_order=MemoryOrder.RELEASE)
    trace.read(0, "x")
    # The view advances in place on the next access.
    assert trace.columns() is columns
    assert len(columns) == 3
    assert bool(columns.atomic_flags[1])
    assert bool(columns.release_mo_flags[1])
    assert bool(columns.read_flags[2])
    assert columns.thread_positions == {0: [0, 2], 1: [1]}


def test_interning_is_stable_across_appends():
    trace = Trace(name="intern")
    trace.write(0, "x")
    trace.columns()
    trace.write(1, "y")
    trace.write(0, "x")
    columns = trace.columns()
    assert columns.var_ids[0] == columns.var_ids[2]
    assert columns.var_ids[1] != columns.var_ids[0]
    assert columns.variables[columns.var_ids[1]] == "y"


def test_standalone_columns_over_event_list():
    trace = racy_trace(num_threads=2, events_per_thread=20, seed=9)
    events = list(trace)
    columns = TraceColumns(events).sync()
    assert len(columns) == len(events)
    assert columns.variable_id("never-seen") == -1
