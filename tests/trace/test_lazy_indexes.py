"""Derived trace indexes are built on first read, and only then.

A :class:`Trace` append stores the event and its chain; the per-variable,
reads-from, lock-set and critical-section indexes catch up when one of
their accessors is read.  The property test pins that an index read at any
point of a growing trace answers exactly what a trace built from the same
prefix answers; the spy tests pin that analyses which never read the
indexes never build them.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import AnalyzeConfig, Session
from repro.errors import TraceError
from repro.stream import StreamEngine
from repro.trace import Event, EventKind, Trace, dump_trace
from repro.trace.generators import build_trace

_KINDS = [
    EventKind.READ, EventKind.WRITE, EventKind.ATOMIC_READ,
    EventKind.ATOMIC_WRITE, EventKind.ATOMIC_RMW, EventKind.ACQUIRE,
    EventKind.RELEASE, EventKind.FORK, EventKind.FENCE,
]
_ACCESSORS = [
    "accesses_by_variable", "writes_by_variable", "reads_from",
    "locks_held_map", "locks_held_at", "critical_sections",
]

appends = st.tuples(
    st.just("append"),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(_KINDS),
    st.sampled_from(["x", "y", "l", "m"]),
)
reads = st.tuples(
    st.just("read"),
    st.sampled_from(_ACCESSORS),
    st.integers(min_value=0, max_value=10 ** 6),
)
operations = st.lists(st.one_of(appends, appends, reads), max_size=80)


def _sections(trace: Trace):
    try:
        return [(s.lock, s.thread, s.acquire, s.release)
                for s in trace.critical_sections()]
    except TraceError as error:
        return ("raises", str(error))


def _read(trace: Trace, accessor: str, pick: int):
    if accessor == "critical_sections":
        return _sections(trace)
    if accessor == "locks_held_at":
        # Half the picks name an event of the trace, half a hypothetical
        # one past the end of a chain (answered by the prefix scan).
        events = list(trace)
        if events and pick % 2 == 0:
            event = events[pick % len(events)]
        else:
            event = Event(thread=pick % 4, index=pick % 50,
                          kind=EventKind.READ, variable="x")
        return trace.locks_held_at(event)
    return getattr(trace, accessor)()


@settings(max_examples=150, deadline=None)
@given(operations)
# A release without an acquire, read before and after later appends.
@example([
    ("append", 0, EventKind.ACQUIRE, "l"), ("append", 0, EventKind.RELEASE, "l"),
    ("read", "critical_sections", 0), ("append", 1, EventKind.RELEASE, "m"),
    ("read", "critical_sections", 0), ("append", 1, EventKind.ACQUIRE, "m"),
    ("read", "critical_sections", 0), ("read", "locks_held_at", 2),
])
def test_index_reads_match_a_trace_built_from_the_prefix(ops):
    trace = Trace(name="grown")
    for op in ops:
        if op[0] == "append":
            _, thread, kind, variable = op
            trace.append(thread, kind, variable=variable,
                         target=1 if kind is EventKind.FORK else None)
            continue
        _, accessor, pick = op
        fresh = Trace(list(trace), name="fresh")
        assert _read(trace, accessor, pick) == _read(fresh, accessor, pick)
    fresh = Trace(list(trace), name="fresh")
    for accessor in _ACCESSORS:
        assert _read(trace, accessor, 0) == _read(fresh, accessor, 0)


# --------------------------------------------------------------------------- #
# Who builds the indexes
# --------------------------------------------------------------------------- #
@pytest.fixture
def indexed(monkeypatch):
    """Count the events ``Trace._index_event`` indexes."""
    counter = {"events": 0}
    original = Trace._index_event

    def spy(self, event):
        counter["events"] += 1
        original(self, event)

    monkeypatch.setattr(Trace, "_index_event", spy)
    return counter


@pytest.mark.parametrize("analysis,kind", [
    ("c11-races", "c11"),
    ("tso-consistency", "tso"),
    ("linearizability", "history"),
])
def test_analyses_that_never_read_indexes_build_none(
        tmp_path, indexed, analysis, kind):
    path = tmp_path / f"{kind}.std"
    dump_trace(build_trace(kind, num_threads=3, events=6 if kind == "history"
                           else 60, seed=4), path)
    indexed["events"] = 0
    Session().run(AnalyzeConfig(analysis=analysis, trace=str(path)))
    assert indexed["events"] == 0


def test_race_prediction_indexes_each_event_once(tmp_path, indexed):
    trace = build_trace("racy", num_threads=3, events=60, seed=4)
    path = tmp_path / "racy.std"
    dump_trace(trace, path)
    indexed["events"] = 0
    Session().run(AnalyzeConfig(analysis="race-prediction", trace=str(path)))
    assert indexed["events"] == len(trace)


@pytest.mark.parametrize("backend", [None, "auto"])
def test_c11_only_stream_builds_no_indexes(indexed, backend):
    trace = build_trace("c11", num_threads=4, events=100, seed=2)
    indexed["events"] = 0
    engine = StreamEngine(["c11-races"], backend=backend)
    for position, event in enumerate(trace, start=1):
        engine.feed(event)
        if position % 50 == 0:
            engine.flush()
    result = engine.finish()
    assert result.results["c11-races"].trace_events == len(trace)
    assert indexed["events"] == 0
