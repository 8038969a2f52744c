"""Use-after-free constraint generation (Table 5 of the paper).

UFO [19] predicts use-after-free vulnerabilities by encoding candidate
free/use pairs as SMT queries over ordering variables.  The expensive
partial-order work happens *before* the solver is invoked: the analysis
computes, for every candidate, the cone of events that any witness must
execute and the ordering constraints those events impose; the paper measures
exactly this query-generation time and so do we.

Findings are :class:`ConstraintQuery` objects -- a symbolic description of
the SMT query that would be emitted -- rather than solver verdicts, so the
analysis has no SMT dependency while exercising the same partial-order
operation mix (predecessor queries per thread, reachability pruning, and
reads-from saturation inserts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analyses.common.base import AnalysisResult
from repro.analyses.common.hb import Frontiers
from repro.analyses.common.saturation import KeptCandidates, SaturationAnalysis
from repro.trace.columns import ALLOC_CODE, FREE_CODE
from repro.trace.event import Event
from repro.trace.trace import Trace


@dataclass(frozen=True)
class OrderingConstraint:
    """A single ordering constraint ``before -> after`` of an SMT query."""

    before: Tuple[int, int]
    after: Tuple[int, int]
    reason: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.before} < {self.after} ({self.reason})"


@dataclass(frozen=True)
class ConstraintQuery:
    """The symbolic SMT query generated for one candidate free/use pair."""

    free: Event
    use: Event
    cone_sizes: Tuple[Tuple[int, int], ...]
    constraints: Tuple[OrderingConstraint, ...] = field(default_factory=tuple)

    @property
    def address(self):
        """The heap object involved."""
        return self.free.variable

    @property
    def constraint_count(self) -> int:
        return len(self.constraints)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UAF query on {self.address}: {self.constraint_count} constraints, "
            f"cone={dict(self.cone_sizes)}"
        )


class UseAfterFreeAnalysis(SaturationAnalysis):
    """UFO-style use-after-free query generation.

    Parameters
    ----------
    backend:
        Partial-order backend name or instance.
    max_candidates:
        Optional cap on the number of candidate pairs encoded.
    cone_window:
        Per-thread bound on how many cone events are encoded into the query
        (keeps query sizes independent of the trace length, as UFO's window
        slicing does).
    """

    name = "use-after-free"

    def __init__(self, backend=None,
                 max_candidates: Optional[int] = None,
                 cone_window: int = 40, **backend_kwargs) -> None:
        super().__init__(backend, **backend_kwargs)
        self._max_candidates = max_candidates
        self._cone_window = cone_window

    # ------------------------------------------------------------------ #
    def _analyse(self, trace: Trace, frontiers: Frontiers,
                 kept: KeptCandidates,
                 result: AnalysisResult) -> None:
        # Each run enumerates and checks its candidates afresh.
        candidates = self._candidates(trace)
        result.details["candidates"] = len(candidates)
        reads_from = trace.reads_from()
        # Query generation inserts no edges: each event's predecessor row
        # is asked once.
        total_constraints = 0
        for free, use in candidates:
            if self._max_candidates is not None and len(result.findings) >= self._max_candidates:
                break
            query = self._encode(trace, frontiers, free, use, reads_from)
            if query is not None:
                total_constraints += query.constraint_count
                result.findings.append(query)
        result.details["constraints_generated"] = total_constraints

    # ------------------------------------------------------------------ #
    # Candidate enumeration
    # ------------------------------------------------------------------ #
    @staticmethod
    def _candidates(trace: Trace) -> List[Tuple[Event, Event]]:
        # The scan runs over the columnar view: kind codes and interned
        # address ids classify each event without touching its Event object;
        # only allocs, frees and uses of allocated addresses materialise one.
        columns = trace.columns()
        kinds = columns.kinds
        var_ids = columns.var_ids
        access_flags = columns.access_flags
        events = columns.events
        frees: Dict[int, List[Event]] = {}
        uses: Dict[int, List[Event]] = {}
        allocated = set()
        for position in range(len(columns)):
            code = kinds[position]
            if code == ALLOC_CODE:
                allocated.add(var_ids[position])
            elif code == FREE_CODE:
                frees.setdefault(var_ids[position], []).append(events[position])
            elif access_flags[position] and var_ids[position] in allocated:
                uses.setdefault(var_ids[position], []).append(events[position])
        pairs: List[Tuple[Event, Event]] = []
        for address_id, free_events in frees.items():
            use_events = uses.get(address_id, ())
            for free in free_events:
                for use in use_events:
                    if use.thread != free.thread:
                        pairs.append((free, use))
        return pairs

    # ------------------------------------------------------------------ #
    # Query encoding
    # ------------------------------------------------------------------ #
    def _encode(self, trace: Trace, frontiers: Frontiers, free: Event,
                use: Event, reads_from) -> Optional[ConstraintQuery]:
        """Encode the candidate as a constraint query, or return ``None`` if
        the partial order already rules the candidate out."""
        # The free's predecessor row answers this and is read again by the
        # cone.
        if use.index <= frontiers.row(free.node)[use.thread]:
            return None
        # The witness executes both events themselves, hence ``inclusive``.
        cone = frontiers.cone((free.node, use.node), trace.threads,
                              inclusive=True)
        constraints: List[OrderingConstraint] = [
            OrderingConstraint(free.node, use.node, "target order")
        ]
        columns = trace.columns()
        read_flags = columns.read_flags
        events = columns.events
        positions_by_thread = columns.thread_positions
        for thread, limit in cone.items():
            window_start = max(0, limit + 1 - self._cone_window)
            positions = positions_by_thread.get(thread, ())
            for position in positions[window_start : limit + 1]:
                # Non-reads drop on the one-byte flag, no Event touched.
                if not read_flags[position]:
                    continue
                event = events[position]
                writer = reads_from.get(event)
                if writer is None:
                    continue
                if writer.index <= cone.get(writer.thread, -1) or writer is free:
                    if writer.thread != event.thread:
                        constraints.append(
                            OrderingConstraint(writer.node, event.node, "reads-from")
                        )
                else:
                    # The writer is outside the cone: the witness cannot
                    # execute this read consistently, so prune the candidate.
                    return None
        cone_sizes = tuple(sorted(cone.items()))
        return ConstraintQuery(free, use, cone_sizes, tuple(constraints))


def generate_uaf_queries(trace: Trace, backend=None,
                         **kwargs) -> AnalysisResult:
    """Convenience wrapper: run UFO-style query generation over ``trace``."""
    return UseAfterFreeAnalysis(backend, **kwargs).run(trace)
