"""C11 data-race detection (Table 6 of the paper).

C11Tester [23] constructs an execution of a C/C++11 program one event at a
time; while doing so it maintains the happens-before relation (program order
plus synchronizes-with edges created by release/acquire atomics) and flags a
data race whenever two conflicting *plain* accesses are unordered.

The important characteristic for the data-structure comparison is that the
workload is essentially *streaming*: new orderings almost always target the
event currently being processed, and most of them require no propagation at
all.  That is why the paper finds plain Vector Clocks competitive here (and
ahead of tree-based structures on several benchmarks) -- the reproduction
keeps that behaviour observable by processing events strictly in trace
order.

Frontier race checks
--------------------
For every plain access ``e`` the detector keeps, per other thread ``t``,
at most two earlier accesses to the same variable (``t``'s latest read and
latest write), and ``e`` races with one of them when at least one of the
two writes and the earlier access does not reach ``e``.  These questions
are not asked one access at a time: an access ``(t, i)`` reaches ``e``
iff ``i <= predecessor(e, t)`` (the frontier argument is in
:class:`~repro.analyses.common.hb.Frontiers`).  One query per other
thread, asked only when some retained access of that thread needs it,
decides both of them exactly as two ``reachable`` calls would: the order
does not change during the check, because race checks insert no edges.
Each ``(access, thread)`` frontier is asked at most once, so a frontier
memo would never be hit and the detector asks its order directly.
Unless ``report_all`` is set, a thread whose race with ``e``'s
thread on this variable is already reported is skipped without a query,
since the detector would drop anything it found there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.analyses.common.base import Analysis, AnalysisResult
from repro.analyses.common.hb import insert_ordering
from repro.core.growable import GrowableOrder
from repro.core.instrumented import InstrumentedOrder
from repro.core.interface import PartialOrder
from repro.errors import AnalysisError
from repro.trace.columns import ACQUIRE_CODE, RELEASE_CODE
from repro.trace.event import WRITE_KINDS, Event, EventKind
from repro.trace.trace import Trace


@dataclass(frozen=True)
class C11Race:
    """A data race between two plain (non-atomic) accesses."""

    first: Event
    second: Event

    @property
    def variable(self):
        """The shared variable both accesses touch."""
        return self.first.variable

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"C11 race on {self.variable}: {self.first} || {self.second}"


@dataclass
class _DetectorState:
    """The per-run state of the detector, shared by the batch and online
    paths so both process events through the identical per-event step."""

    #: Per atomic variable: the last release-write (or RMW) event, which
    #: heads the release sequence subsequent acquire reads synchronise with.
    last_release: Dict[object, Event] = field(default_factory=dict)
    #: Per plain variable and thread: last access events, used for race checks.
    last_accesses: Dict[object, Dict[int, List[Event]]] = field(
        default_factory=dict)
    reported: set = field(default_factory=set)
    sw_edges: int = 0

    @property
    def plain_accesses(self) -> int:
        return sum(len(events) for per_thread in self.last_accesses.values()
                   for events in per_thread.values())


class C11RaceAnalysis(Analysis):
    """C11Tester-style streaming race detection over atomics histories.

    Because the detector processes events strictly in trace order and only
    ever orders *into* the current event, it is genuinely incremental: the
    online protocol (``begin``/``feed``/``flush``) maintains the same state
    the batch run builds and reports each race the moment its second access
    arrives.  Batch and online runs over the same event sequence produce
    identical findings.

    Parameters
    ----------
    backend:
        Partial-order backend name or instance.
    report_all:
        When ``False`` (default) at most one race per variable pair of
        threads is reported, mirroring the deduplication real detectors do.
    """

    name = "c11-races"
    streaming_native = True

    @classmethod
    def default_backend(cls) -> str:
        """``vc-flat``: the crossover table's pick
        (``docs/tables/crossover.md``).  The incremental CSST is more than
        1.5x slower than ``vc-flat`` at 16 and 64 threads."""
        return "vc-flat"

    def __init__(self, backend=None, report_all: bool = False,
                 **backend_kwargs) -> None:
        super().__init__(backend, **backend_kwargs)
        self._report_all = report_all
        self._online = None

    # ------------------------------------------------------------------ #
    def _run(self, trace: Trace, order: InstrumentedOrder,
             result: AnalysisResult) -> None:
        # The batch loop dispatches on the trace's columnar view so events
        # the detector ignores (forks, joins, alloc/free, begin/end) are
        # skipped on int codes without materialising their Event objects.
        # The dispatch mirrors _step exactly -- the online feed() path still
        # goes through _step, and both produce identical findings.
        state = _DetectorState()
        findings = result.findings
        columns = trace.columns()
        kinds = columns.kinds
        atomic_flags = columns.atomic_flags
        access_flags = columns.access_flags
        events = columns.events
        last_release = state.last_release
        handle_atomic = self._handle_atomic
        handle_lock = self._handle_lock
        check_races = self._check_races
        sw_edges = 0
        for position in range(len(columns)):
            if atomic_flags[position]:
                sw_edges += handle_atomic(order, last_release, events[position])
            elif access_flags[position]:
                check_races(order, state, events[position], findings)
            else:
                code = kinds[position]
                if code == ACQUIRE_CODE or code == RELEASE_CODE:
                    sw_edges += handle_lock(order, last_release, events[position])
        state.sw_edges += sw_edges
        result.details["sw_edges"] = state.sw_edges
        result.details["plain_accesses"] = state.plain_accesses

    def _step(self, order: InstrumentedOrder, state: _DetectorState,
              event: Event, findings: List[C11Race]) -> None:
        """Process one event (the shared batch/online kernel)."""
        if event.atomic:
            state.sw_edges += self._handle_atomic(order, state.last_release,
                                                 event)
        elif event.is_access:
            self._check_races(order, state, event, findings)
        elif event.kind in (EventKind.ACQUIRE, EventKind.RELEASE):
            # Lock operations behave like acquire/release atomics on the
            # lock object.
            state.sw_edges += self._handle_lock(order, state.last_release,
                                                event)

    # ------------------------------------------------------------------ #
    # Online protocol (genuinely incremental)
    # ------------------------------------------------------------------ #
    def begin(self, view) -> None:
        super().begin(view)
        if isinstance(self._backend_spec, PartialOrder):
            raise AnalysisError(
                "online c11-races needs a named backend (the growing stream "
                "constructs and resizes the backend itself)")
        # Online state is built lazily on the first feed(): an attachment
        # that is begun but never fed (e.g. under a bounded window, where
        # the engine drives this analysis through the micro-batch fallback)
        # must keep the base-class flush semantics and not pay for an
        # unused backend.
        self._online = None

    def _begin_online(self) -> dict:
        order = GrowableOrder(str(self._backend_spec), num_chains=1,
                              capacity_hint=256, **self._backend_kwargs)
        return {
            "order": InstrumentedOrder(order),
            "state": _DetectorState(),
            "findings": [],
            "events": 0,
            "threads": set(),
            "started": time.perf_counter(),
        }

    def feed(self, event: Event) -> Sequence[C11Race]:
        if self._stream_view is None:
            raise AnalysisError(
                f"analysis {self.name!r}: feed() called before begin()")
        if self._online is None:
            self._online = self._begin_online()
        online = self._online
        findings = online["findings"]
        before = len(findings)
        self._step(online["order"], online["state"], event, findings)
        online["events"] += 1
        online["threads"].add(event.thread)
        return findings[before:]

    def flush(self) -> AnalysisResult:
        online = self._online
        if online is None:
            # Nothing was fed: the base-class contract ("each call covers
            # everything currently in the view") is served by the batch
            # fallback over the view's snapshot.
            return super().flush()
        order = online["order"]
        state = online["state"]
        view = self._stream_view
        result = AnalysisResult(
            analysis=self.name,
            trace_name=getattr(view, "name", "stream"),
            trace_events=online["events"],
            trace_threads=len(online["threads"]),
            backend=self._backend_name(),
            findings=list(online["findings"]),
            elapsed_seconds=time.perf_counter() - online["started"],
            insert_count=order.insert_count,
            delete_count=order.delete_count,
            query_count=order.query_count,
        )
        result.details["sw_edges"] = state.sw_edges
        result.details["plain_accesses"] = state.plain_accesses
        return result

    # ------------------------------------------------------------------ #
    # Synchronizes-with edges
    # ------------------------------------------------------------------ #
    @staticmethod
    def _handle_atomic(order: InstrumentedOrder, last_release: Dict[object, Event],
                       event: Event) -> int:
        """Create the synchronizes-with edge for an atomic access."""
        inserted = 0
        memory_order = event.memory_order
        is_acquire = memory_order is not None and memory_order.is_acquire
        is_release = memory_order is not None and memory_order.is_release
        if event.is_read and is_acquire:
            head = last_release.get(event.variable)
            if head is not None and head.thread != event.thread:
                if insert_ordering(order, head.node, event.node):
                    inserted += 1
        if event.is_write and is_release:
            last_release[event.variable] = event
        elif event.is_write and not is_release:
            # A relaxed write breaks the release sequence headed by an older
            # release write of another thread.
            head = last_release.get(event.variable)
            if head is not None and head.thread != event.thread:
                last_release.pop(event.variable, None)
        return inserted

    @staticmethod
    def _handle_lock(order: InstrumentedOrder, last_release: Dict[object, Event],
                     event: Event) -> int:
        inserted = 0
        if event.kind is EventKind.ACQUIRE:
            head = last_release.get(("lock", event.variable))
            if head is not None and head.thread != event.thread:
                if insert_ordering(order, head.node, event.node):
                    inserted += 1
        else:
            last_release[("lock", event.variable)] = event
        return inserted

    # ------------------------------------------------------------------ #
    # Race checks
    # ------------------------------------------------------------------ #
    def _check_races(self, order: InstrumentedOrder, state: _DetectorState,
                     event: Event, findings: List[C11Race]) -> None:
        """Race-check one plain access against every other thread's
        retained accesses, one ``predecessor`` frontier per thread (see the
        module docstring)."""
        variable = event.variable
        thread = event.thread
        is_write = event.kind in WRITE_KINDS
        reported = state.reported
        report_all = self._report_all
        per_thread = state.last_accesses.setdefault(variable, {})
        for other, history in per_thread.items():
            if other == thread:
                continue
            key = (variable, other, thread)
            if not report_all and key in reported:
                continue
            frontier = None
            for previous in history:
                if not (is_write or previous.kind in WRITE_KINDS):
                    continue
                if frontier is None:
                    frontier = order.predecessor(event.node, other)
                if previous.index <= frontier:
                    continue
                reported.add(key)
                findings.append(C11Race(previous, event))
                if not report_all:
                    break
        # Keep only the most recent write and the most recent read per thread;
        # earlier ones are subsumed for race-reporting purposes.
        history = per_thread.setdefault(thread, [])
        history[:] = [e for e in history
                      if (e.kind in WRITE_KINDS) != is_write][-1:]
        history.append(event)


def detect_c11_races(trace: Trace, backend=None, **kwargs) -> AnalysisResult:
    """Convenience wrapper: run C11 race detection over ``trace``."""
    return C11RaceAnalysis(backend, **kwargs).run(trace)
