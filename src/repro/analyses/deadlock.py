"""Predictive deadlock detection (Table 2 of the paper).

This reproduces the partial-order workload of SeqCheck-style deadlock
prediction [8]: the analysis builds the lock-acquisition graph of the
observed trace, enumerates cycles (potential deadlock patterns), and then
uses partial-order reasoning to decide whether each pattern can actually be
realised by a correct reordering -- the involved acquisitions must be
mutually unordered, must not be protected by a common guard lock, and the
events establishing their enabling conditions must be consistent.

The feasibility checks are reachability queries over a partial order that
is populated with non-streaming orderings (reads-from saturation of the
enabling reads), the workload CSSTs target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analyses.common.base import AnalysisResult
from repro.analyses.common.hb import Frontiers, lock_graph
from repro.analyses.common.saturation import KeptCandidates, SaturationAnalysis
from repro.trace.event import Event
from repro.trace.trace import Trace


@dataclass(frozen=True)
class DeadlockPattern:
    """A predicted deadlock: a cyclic chain of lock acquisitions.

    ``acquisitions`` holds one ``(outer_acquire, inner_acquire)`` pair per
    participating thread: the thread holds ``outer_acquire``'s lock while
    requesting ``inner_acquire``'s lock, and the requested locks form a
    cycle across the participating threads.
    """

    acquisitions: Tuple[Tuple[Event, Event], ...]

    @property
    def locks(self) -> Tuple:
        """The locks participating in the cycle."""
        return tuple(outer.variable for outer, _inner in self.acquisitions)

    @property
    def threads(self) -> Tuple[int, ...]:
        """The threads participating in the cycle."""
        return tuple(outer.thread for outer, _inner in self.acquisitions)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = " ; ".join(
            f"T{outer.thread} holds {outer.variable} wants {inner.variable}"
            for outer, inner in self.acquisitions
        )
        return f"deadlock: {parts}"


class DeadlockPredictionAnalysis(SaturationAnalysis):
    """SeqCheck-style predictive deadlock detection.

    Parameters
    ----------
    backend:
        Partial-order backend name or instance.
    max_patterns:
        Optional cap on the number of candidate lock cycles examined.
    """

    name = "deadlock-prediction"

    # The predictive order deliberately omits the observed lock order of
    # the candidate locks (the whole point is to reorder critical
    # sections), but keeps fork/join and the reads-from saturation that
    # any correct reordering must respect.
    include_locks = False

    def __init__(self, backend=None,
                 max_patterns: Optional[int] = None, **backend_kwargs) -> None:
        super().__init__(backend, **backend_kwargs)
        self._max_patterns = max_patterns

    # ------------------------------------------------------------------ #
    def _analyse(self, trace: Trace, frontiers: Frontiers,
                 kept: KeptCandidates,
                 result: AnalysisResult) -> None:
        # Lock cycles are few; each flush enumerates them afresh.
        graph = lock_graph(trace)
        candidates = self._candidate_cycles(graph)
        result.details["candidates"] = len(candidates)
        for pattern in candidates:
            if self._max_patterns is not None and len(result.findings) >= self._max_patterns:
                break
            if self._realisable(trace, frontiers, pattern):
                result.findings.append(DeadlockPattern(tuple(pattern)))

    # ------------------------------------------------------------------ #
    # Candidate enumeration
    # ------------------------------------------------------------------ #
    @staticmethod
    def _candidate_cycles(graph) -> List[List[Tuple[Event, Event]]]:
        """Enumerate two-lock cycles from the lock-acquisition graph.

        Longer cycles exist in principle but two-lock cycles dominate real
        deadlocks and the corresponding benchmark suites; the feasibility
        machinery is identical for longer cycles.
        """
        candidates: List[List[Tuple[Event, Event]]] = []
        locks = sorted(graph, key=str)
        for position, lock_a in enumerate(locks):
            for lock_b in locks[position + 1 :]:
                forward = graph.get(lock_a, {}).get(lock_b, [])
                backward = graph.get(lock_b, {}).get(lock_a, [])
                for outer_a, inner_a in forward:
                    for outer_b, inner_b in backward:
                        if outer_a.thread == outer_b.thread:
                            continue
                        candidates.append([(outer_a, inner_a), (outer_b, inner_b)])
        return candidates

    # ------------------------------------------------------------------ #
    # Feasibility
    # ------------------------------------------------------------------ #
    def _realisable(self, trace: Trace, frontiers: Frontiers,
                    pattern: Sequence[Tuple[Event, Event]]) -> bool:
        """Can the candidate cycle be realised by a correct reordering?

        Requirements (standard for sound deadlock prediction):

        * the requesting acquisitions are pairwise unordered in the
          predictive partial order (they can be co-enabled);
        * the threads hold no common *guard* lock at the requesting points
          (a common guard serialises the pattern);
        * the outer acquisition of each thread is not ordered after another
          thread's inner request (otherwise the hold-and-wait state cannot
          be reached simultaneously).
        """
        requests = [inner for _outer, inner in pattern]
        for i, first in enumerate(requests):
            for second in requests[i + 1 :]:
                if frontiers.ordered(first.node, second.node):
                    return False
        held_sets = []
        cycle_locks = {outer.variable for outer, _inner in pattern}
        for _outer, inner in pattern:
            held = trace.locks_held_at(inner) - cycle_locks
            held_sets.append(held)
        for i, first_held in enumerate(held_sets):
            for second_held in held_sets[i + 1 :]:
                if first_held & second_held:
                    return False
        for outer, _inner in pattern:
            for _other_outer, other_inner in pattern:
                if outer.thread == other_inner.thread:
                    continue
                if frontiers.reaches(other_inner.node, outer.node):
                    return False
        return True


def predict_deadlocks(trace: Trace, backend=None,
                      **kwargs) -> AnalysisResult:
    """Convenience wrapper: run deadlock prediction over ``trace``."""
    return DeadlockPredictionAnalysis(backend, **kwargs).run(trace)
