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
from typing import List, Optional, Tuple

from repro.analyses.common.base import AnalysisResult
from repro.analyses.common.hb import Frontiers, variable_conflicts
from repro.analyses.common.saturation import KeptCandidates, SaturationAnalysis
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


class RacePredictionAnalysis(SaturationAnalysis):
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

    @classmethod
    def default_backend(cls) -> str:
        """``vc-flat``: the crossover table's pick
        (``docs/tables/crossover.md``).  The incremental CSST is more than
        1.5x slower than ``vc-flat`` at 64 threads."""
        return "vc-flat"

    def __init__(self, backend=None,
                 max_candidates: Optional[int] = None,
                 candidate_window: Optional[int] = 25,
                 witness_window: int = 40, **backend_kwargs) -> None:
        super().__init__(backend, **backend_kwargs)
        self._max_candidates = max_candidates
        self._candidate_window = candidate_window
        self._witness_window = witness_window

    # ------------------------------------------------------------------ #
    def _analyse(self, trace: Trace, frontiers: Frontiers,
                 kept: KeptCandidates,
                 result: AnalysisResult) -> None:
        # Phase 2, after the closure of the observed trace (sync order plus
        # reads-from saturation): candidate enumeration and witness checks.
        # It inserts no edges, so one predecessor row per event, read once,
        # decides whether each of its pairs is ordered either way.  Only
        # pairs whose later access is new since the last call are
        # enumerated; ordered and lock-protected pairs never go in, and
        # pairs the grown order rules out leave for good.
        row = frontiers.row

        def ordered(first: Event, second: Event) -> bool:
            return (first.index <= row(second.node)[first.thread]
                    or second.index <= row(first.node)[second.thread])

        cap = self._max_candidates
        if cap is not None:
            # A cap keeps the first pairs in batch order, which new events
            # can change: enumerate afresh.
            kept = KeptCandidates()
        locks_held = trace.locks_held_map()
        for variable, accesses in trace.accesses_by_variable().items():
            start = kept.seen.get(variable, 0)
            limit = None if cap is None else cap - kept.total
            pairs = variable_conflicts(accesses, start,
                                       self._candidate_window, limit)
            kept.seen[variable] = len(accesses)
            kept.total += len(pairs)
            new = []
            for i, j in pairs:
                first, second = accesses[i], accesses[j]
                if not (ordered(first, second)
                        or locks_held[first.node] & locks_held[second.node]):
                    new.append((i, j, first, second))
            kept.add(variable, new)
        result.details["candidates"] = kept.total
        witness = _WitnessCheck(
            trace, frontiers, self._witness_window,
            saturated="closure_cycle" not in result.details)
        for _i, _j, first, second in kept.sweep(
                lambda pair: ordered(pair[2], pair[3])):
            if witness.feasible(first, second):
                result.findings.append(Race(first, second))
        result.details["checked"] = kept.total


#: Verdict slot not computed yet.
_UNSEEN = object()


class _WitnessCheck:
    """Witness feasibility of candidate pairs over a saturated order.

    The witness must execute, for every thread, the prefix of events that
    happen-before either access (its *cone*).  The race is feasible when
    every read inside the cone can still observe its writer: the writer is
    inside the cone as well, and no write that overwrites it is forced
    between the writer and the read.

    Whether such a competing write exists depends on the read alone, not
    on the candidate: a competitor that happens before the read is inside
    every cone that contains the read.  So each read's verdict -- its
    writer's node and a *blocked* bit -- is computed once, by index
    comparisons against the frontiers ``successor(writer, t)`` and
    ``predecessor(read, t)``, and kept per trace position.  A candidate
    then costs one cone and a scan of its window.

    On a ``saturated`` order (the rules at their fixpoint, no cycle) no
    read is blocked: a competitor that reaches the read reaches its writer
    too, so one the writer reaches would close a cycle.  The check then
    skips the competitor scan.
    """

    def __init__(self, trace: Trace, frontiers: Frontiers,
                 window: int, saturated: bool = False) -> None:
        columns = trace.columns()
        self._read_flags = columns.read_flags
        self._events = columns.events
        self._positions = columns.thread_positions
        self._threads = trace.threads
        self._reads_from = trace.reads_from()
        self._writes = None if saturated else trace.writes_by_variable()
        self._frontiers = frontiers
        self._window = window
        self._saturated = saturated
        # Per trace position: _UNSEEN, None (no writer) or
        # (writer thread, writer index, blocked).
        self._verdicts: List[object] = [_UNSEEN] * len(columns)

    def feasible(self, first: Event, second: Event) -> bool:
        """Whether a correct reordering can witness ``first || second``."""
        cone = self._frontiers.cone((first.node, second.node), self._threads,
                                    inclusive=False)
        read_flags = self._read_flags
        events = self._events
        verdicts = self._verdicts
        window = self._window
        for thread, limit in cone.items():
            positions = self._positions.get(thread, ())
            for position in positions[max(0, limit + 1 - window) : limit + 1]:
                # Non-reads drop on the one-byte flag, no Event touched.
                if not read_flags[position]:
                    continue
                event = events[position]
                if event is first or event is second:
                    continue
                verdict = verdicts[position]
                if verdict is _UNSEEN:
                    verdict = verdicts[position] = self._verdict(event)
                if verdict is None:
                    continue
                writer_thread, writer_index, blocked = verdict
                if blocked or writer_index > cone.get(writer_thread, -1):
                    return False
        return True

    def _verdict(self, read: Event) -> Optional[Tuple[int, int, bool]]:
        """The read's writer node and whether a competing write is forced
        between the writer and the read (``None`` when it has no writer)."""
        writer = self._reads_from.get(read)
        if writer is None:
            return None
        if self._saturated:
            return writer.thread, writer.index, False
        frontiers = self._frontiers
        read_node = read.node
        writer_node = writer.node
        for competitor in self._writes.get(read.variable, ()):
            chain, index = competitor.node
            if (competitor is writer
                    or index > frontiers.predecessor(read_node, chain)):
                continue
            if frontiers.successor(writer_node, chain) <= index:
                return writer.thread, writer.index, True
        return writer.thread, writer.index, False


def predict_races(trace: Trace, backend=None,
                  **kwargs) -> AnalysisResult:
    """Convenience wrapper: run race prediction over ``trace``."""
    return RacePredictionAnalysis(backend, **kwargs).run(trace)
