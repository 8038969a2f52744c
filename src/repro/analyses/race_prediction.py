"""Predictive data-race detection (Table 1 of the paper).

This reproduces the partial-order workload of the M2 race predictor [31]:
starting from an observed trace, the analysis asks -- for every pair of
conflicting accesses -- whether some *correct reordering* of the trace makes
the two accesses concurrent.  The analysis is non-streaming: establishing
the feasibility of a candidate pair inserts orderings between arbitrary
events (the saturation step of Section 1.1) and issues many reachability
queries, which is exactly the workload CSSTs accelerate.

The reproduction keeps the algorithmic skeleton that matters for the data
structure comparison (sync-order construction, reads-from saturation,
candidate enumeration, witness cone feasibility checks) and omits M2's
engineering around trace ideals, which does not change the pattern of
partial-order operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analyses.common.base import Analysis, AnalysisResult
from repro.analyses.common.hb import build_sync_order, conflicting_pairs
from repro.analyses.common.saturation import CycleDetected, SaturationEngine
from repro.core.instrumented import InstrumentedOrder
from repro.trace.event import Event
from repro.trace.trace import Trace


@dataclass(frozen=True)
class Race:
    """A predicted data race between two conflicting accesses."""

    first: Event
    second: Event

    @property
    def variable(self):
        """The shared variable both accesses touch."""
        return self.first.variable

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"race on {self.variable}: {self.first} || {self.second}"


class RacePredictionAnalysis(Analysis):
    """M2-style predictive race detection.

    Parameters
    ----------
    backend:
        Partial-order backend name or instance.
    max_candidates:
        Optional cap on the number of conflicting pairs examined (practical
        detectors bound this; benchmarks use it to control run length).
    candidate_window:
        Only consider conflicting accesses at most this many positions apart
        in the per-variable access list.
    witness_window:
        Per-thread bound on how far back in the witness cone the feasibility
        check examines enabling reads.  Real predictive detectors bound this
        window (the "ideal" in M2); it keeps the per-candidate cost
        independent of the trace length.
    """

    name = "race-prediction"

    def __init__(self, backend=None,
                 max_candidates: Optional[int] = None,
                 candidate_window: Optional[int] = 25,
                 witness_window: int = 40, **backend_kwargs) -> None:
        super().__init__(backend, **backend_kwargs)
        self._max_candidates = max_candidates
        self._candidate_window = candidate_window
        self._witness_window = witness_window

    # ------------------------------------------------------------------ #
    def _run(self, trace: Trace, order: InstrumentedOrder,
             result: AnalysisResult) -> None:
        # Phase 1: sound closure of the observed trace -- sync order plus
        # reads-from saturation.
        sync_edges = build_sync_order(trace, order)
        engine = SaturationEngine(order, trace.writes_by_variable())
        try:
            saturation_edges = engine.saturate(trace.reads_from())
        except CycleDetected:
            # The observed trace itself is always feasible; a cycle can only
            # mean the caller handed us an inconsistent synthetic trace.
            result.details["closure_cycle"] = True
            saturation_edges = 0
        result.details["sync_edges"] = sync_edges
        result.details["saturation_edges"] = saturation_edges

        # Phase 2: candidate enumeration and witness checks.
        candidates = conflicting_pairs(
            trace, max_pairs=self._max_candidates,
            same_variable_window=self._candidate_window,
        )
        result.details["candidates"] = len(candidates)
        reads_from = trace.reads_from()
        writes = trace.writes_by_variable()
        locks_held = trace.locks_held_map()
        checked = 0
        for first, second in candidates:
            checked += 1
            if locks_held[first.node] & locks_held[second.node]:
                continue
            if order.ordered(first.node, second.node):
                continue
            if self._witness_feasible(trace, order, first, second, reads_from, writes):
                result.findings.append(Race(first, second))
        result.details["checked"] = checked

    # ------------------------------------------------------------------ #
    # Witness feasibility
    # ------------------------------------------------------------------ #
    def _witness_feasible(self, trace: Trace, order: InstrumentedOrder,
                          first: Event, second: Event, reads_from, writes) -> bool:
        """Check that a correct reordering witnessing the race can exist.

        The witness must execute, for every thread, the prefix of events
        that happen-before either access (its *cone*).  The race is feasible
        when every read inside the cone can still observe its writer: the
        writer is inside the cone as well, and no write that overwrites it
        is forced between the writer and the read.  Every check is a
        reachability query against the maintained partial order.

        The per-thread window scan runs over the trace's columnar view:
        non-read events are skipped on a one-byte flag without touching
        their :class:`Event` objects.
        """
        cone = self._cone(trace, order, first, second)
        columns = trace.columns()
        read_flags = columns.read_flags
        events = columns.events
        positions_by_thread = columns.thread_positions
        for thread, limit in cone.items():
            window_start = max(0, limit + 1 - self._witness_window)
            positions = positions_by_thread.get(thread, ())
            for position in positions[window_start : limit + 1]:
                if not read_flags[position]:
                    continue
                event = events[position]
                if event is first or event is second:
                    continue
                writer = reads_from.get(event)
                if writer is None:
                    continue
                if not self._inside_cone(cone, writer):
                    return False
                for competitor in writes.get(event.variable, ()):
                    if competitor is writer or not self._inside_cone(cone, competitor):
                        continue
                    # A competing write forced between writer and read makes
                    # the read observe the wrong value in every reordering.
                    if (
                        order.reachable(writer.node, competitor.node)
                        and order.reachable(competitor.node, event.node)
                    ):
                        return False
        return True

    def _cone(self, trace: Trace, order: InstrumentedOrder, first: Event,
              second: Event) -> Dict[int, int]:
        """Latest event index per thread that must precede either access."""
        cone: Dict[int, int] = {}
        for thread in trace.threads:
            best = -1
            for anchor in (first, second):
                if thread == anchor.thread:
                    best = max(best, anchor.index - 1)
                    continue
                predecessor = order.predecessor(anchor.node, thread)
                if predecessor is not None:
                    best = max(best, predecessor)
            if best >= 0:
                cone[thread] = best
        return cone

    @staticmethod
    def _inside_cone(cone: Dict[int, int], event: Event) -> bool:
        return event.index <= cone.get(event.thread, -1)


def predict_races(trace: Trace, backend=None,
                  **kwargs) -> AnalysisResult:
    """Convenience wrapper: run race prediction over ``trace``."""
    return RacePredictionAnalysis(backend, **kwargs).run(trace)
