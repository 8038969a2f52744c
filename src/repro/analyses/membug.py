"""Predictive concurrency memory-bug detection (Table 3 of the paper).

This reproduces the partial-order workload of ConVulPOE [39]: the analysis
looks for memory bugs -- use-after-free and double-free -- that are not
present in the observed trace but can be exposed by a correct reordering.
Candidates are pairs of a ``free`` and another access (or another ``free``)
to the same heap object from a different thread; a candidate is reported
when the dangerous order (use after free / second free after first) is not
excluded by the predictive partial order and the enabling reads of both
events can still observe their writers.

As with race prediction, the feasibility reasoning inserts saturation
orderings between arbitrary trace events and issues many reachability
queries -- the non-streaming pattern CSSTs target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analyses.common.base import AnalysisResult
from repro.analyses.common.hb import Frontiers
from repro.analyses.common.saturation import KeptCandidates, SaturationAnalysis
from repro.trace.event import Event, EventKind
from repro.trace.trace import Trace


@dataclass(frozen=True)
class MemoryBug:
    """A predicted memory bug."""

    kind: str  #: ``"use-after-free"`` or ``"double-free"``
    free: Event
    access: Event

    @property
    def address(self):
        """The heap object involved."""
        return self.free.variable

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind} on {self.address}: {self.free} / {self.access}"


class MemoryBugAnalysis(SaturationAnalysis):
    """ConVulPOE-style prediction of use-after-free and double-free bugs.

    Parameters
    ----------
    backend:
        Partial-order backend name or instance.
    max_candidates:
        Optional cap on the number of candidate pairs examined.
    enabling_window:
        Per-candidate bound on how many events of the access's thread prefix
        are examined for enabling reads (keeps per-candidate cost independent
        of the trace length, as practical tools do).
    """

    name = "memory-bugs"

    def __init__(self, backend=None,
                 max_candidates: Optional[int] = None,
                 enabling_window: int = 40, **backend_kwargs) -> None:
        super().__init__(backend, **backend_kwargs)
        self._max_candidates = max_candidates
        self._enabling_window = enabling_window

    # ------------------------------------------------------------------ #
    def _analyse(self, trace: Trace, frontiers: Frontiers,
                 kept: KeptCandidates,
                 result: AnalysisResult) -> None:
        # Each run enumerates and checks its candidates afresh.
        frees, accesses = self._heap_events(trace)
        candidates = self._candidates(frees, accesses)
        result.details["candidates"] = len(candidates)
        reads_from = trace.reads_from()
        locks_held = trace.locks_held_map()
        for kind, free, access in candidates:
            if self._max_candidates is not None and len(result.findings) >= self._max_candidates:
                break
            if self._feasible(trace, frontiers, free, access, reads_from,
                             locks_held):
                result.findings.append(MemoryBug(kind, free, access))

    # ------------------------------------------------------------------ #
    # Candidate enumeration
    # ------------------------------------------------------------------ #
    @staticmethod
    def _heap_events(trace: Trace) -> Tuple[Dict[object, List[Event]],
                                            Dict[object, List[Event]]]:
        """Group free events and (non-alloc) accesses by heap address."""
        frees: Dict[object, List[Event]] = {}
        accesses: Dict[object, List[Event]] = {}
        allocated = set()
        for event in trace:
            if event.kind is EventKind.ALLOC:
                allocated.add(event.variable)
            elif event.kind is EventKind.FREE:
                frees.setdefault(event.variable, []).append(event)
            elif event.is_access and event.variable in allocated:
                accesses.setdefault(event.variable, []).append(event)
        return frees, accesses

    def _candidates(self, frees: Dict[object, List[Event]],
                    accesses: Dict[object, List[Event]]
                    ) -> List[Tuple[str, Event, Event]]:
        candidates: List[Tuple[str, Event, Event]] = []
        for address, free_events in frees.items():
            for free in free_events:
                for access in accesses.get(address, ()):
                    if access.thread != free.thread:
                        candidates.append(("use-after-free", free, access))
                for other in free_events:
                    if other is not free and other.thread != free.thread:
                        if (free.index, free.thread) < (other.index, other.thread):
                            candidates.append(("double-free", free, other))
        return candidates

    # ------------------------------------------------------------------ #
    # Feasibility
    # ------------------------------------------------------------------ #
    def _feasible(self, trace: Trace, frontiers: Frontiers, free: Event,
                  access: Event, reads_from, locks_held) -> bool:
        """The dangerous order ``free -> access`` is feasible when the access
        is not already forced before the free, the two events are not
        serialised by a common lock, and the enabling reads of the access's
        thread prefix can still observe their writers."""
        if frontiers.reaches(access.node, free.node):
            # The access is forced before the free in every correct
            # reordering: no bug.
            return False
        if locks_held[free.node] & locks_held[access.node]:
            return False
        # Enabling condition: every read of the access's thread prefix (up
        # to the access) whose writer lies in another thread must be able to
        # keep its writer before it even when the free is moved earlier.
        columns = trace.columns()
        read_flags = columns.read_flags
        events = columns.events
        window_start = max(0, access.index - self._enabling_window)
        positions = columns.thread_positions.get(access.thread, ())
        for position in positions[window_start : access.index]:
            # Non-reads drop on the one-byte flag, no Event touched.
            if not read_flags[position]:
                continue
            event = events[position]
            writer = reads_from.get(event)
            if writer is None or writer.thread == event.thread:
                continue
            if (frontiers.reaches(free.node, writer.node)
                    and frontiers.reaches(access.node, writer.node)):
                return False
        return True


def predict_memory_bugs(trace: Trace, backend=None,
                        **kwargs) -> AnalysisResult:
    """Convenience wrapper: run memory-bug prediction over ``trace``."""
    return MemoryBugAnalysis(backend, **kwargs).run(trace)
