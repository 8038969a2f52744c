"""x86-TSO consistency checking (Table 4 of the paper).

Given a trace of (atomic) writes and reads annotated with values, the
consistency-testing problem asks whether some interleaving consistent with
x86-TSO explains every read's value.  The problem is NP-complete in general;
the analysis follows the polynomial-time saturation heuristic of Roy et
al. [34]: derive all orderings that *must* hold in any witness and report an
inconsistency when they form a cycle.

The store-buffer semantics of TSO is modelled exactly as in the paper's
evaluation setup: the chain DAG has **two chains per thread** -- the
program-order chain ``2p`` holding every event the thread issues, and a
store-buffer chain ``2p + 1`` holding one flush pseudo-event per write
(flushes are FIFO, hence totally ordered within the chain).  Cross-chain
edges express

* a write being ordered before its own flush,
* a read of the initial value being ordered before every flush of its
  variable,
* reads-from edges ``flush(w) -> r`` across threads, and ``issue(w) -> r``
  within one (store forwarding), and
* the coherence orderings inferred by saturation.

Saturation is :class:`~repro.analyses.common.saturation.SaturationEngine`'s:
Roy et al.'s two coherence rules are the engine's, with each write's
issue as its premise node and its flush (at the write's trace position)
as its conclusion node.  A read of a write its own thread issues only
later therefore closes a cycle: a store buffer forwards only writes
already issued.

Those inferred orderings land between arbitrary events of the trace, which
is why this analysis stresses partial-order updates deep inside the order --
the workload Table 4 shows CSSTs dominating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analyses.common.base import Analysis, AnalysisResult
from repro.analyses.common.hb import Frontiers
from repro.analyses.common.saturation import CycleDetected, SaturationEngine
from repro.core.instrumented import InstrumentedOrder
from repro.errors import AnalysisError
from repro.trace.event import Event
from repro.trace.trace import Trace

Node = Tuple[int, int]

#: Value observed by reads that precede every write of their variable.
INITIAL_VALUE = 0


@dataclass(frozen=True)
class InconsistencyWitness:
    """Evidence that the trace is not TSO-consistent: the ordering that
    closed a cycle during saturation."""

    source: Node
    target: Node
    reason: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"cycle when ordering {self.source} -> {self.target} ({self.reason})"


class _Flush:
    """The flush of a write from its thread's store buffer: node
    ``(2p + 1, k)`` for the ``k``-th write of the thread on chains
    ``2p``/``2p + 1``.  Its ``premise`` is the write's issue."""

    __slots__ = ("thread", "index", "node", "premise")

    def __init__(self, chain: int, index: int, premise: Event) -> None:
        self.thread = chain
        self.index = index
        self.node = (chain, index)
        self.premise = premise


def _reason(source, target) -> str:
    """The rule behind an ordering that closed a cycle, named from the
    kinds of its nodes: issues on even chains, flushes on odd ones."""
    if target.thread % 2 == 0:
        return "reads-from"
    if source.thread % 2:
        return "coherence (write before read)"
    return "coherence (read before write)"


class TSOConsistencyAnalysis(Analysis):
    """Saturation-based x86-TSO consistency checking.

    The result's ``details["consistent"]`` field carries the verdict;
    ``findings`` holds the :class:`InconsistencyWitness` when the verdict is
    negative.
    """

    name = "tso-consistency"

    # Two chains per thread: program order and store buffer.
    def _num_chains(self, trace: Trace) -> int:
        return max(2 * trace.num_threads, 2)

    # ------------------------------------------------------------------ #
    def _run(self, trace: Trace, order: InstrumentedOrder,
             result: AnalysisResult) -> None:
        thread_positions = trace.columns().thread_positions
        chain_of: Dict[int, int] = {}
        positions: Dict[int, List[int]] = {}
        for position, thread in enumerate(trace.threads):
            chain = chain_of[thread] = 2 * position
            positions[chain] = thread_positions[thread]
            positions[chain + 1] = []
        writes_by_value: Dict[object, _Flush] = {}
        writes_by_variable: Dict[object, List[_Flush]] = {}
        reads: List[Tuple[Event, Event]] = []
        for event in trace:
            if not event.is_access:
                continue
            chain = chain_of[event.thread]
            issue = Event(chain, event.index, event.kind, event.variable,
                          event.value)
            if event.is_write:
                if event.value in writes_by_value:
                    raise AnalysisError(
                        f"duplicate written value {event.value!r}; the TSO checker "
                        "requires unique write values to recover reads-from"
                    )
                buffer = positions[chain + 1]
                flush = _Flush(chain + 1, len(buffer), issue)
                buffer.append(positions[chain][event.index])
                writes_by_value[event.value] = flush
                writes_by_variable.setdefault(event.variable, []).append(flush)
            if event.is_read:
                reads.append((event, issue))
        reads_from = self._recover_reads_from(reads, writes_by_value)

        engine = SaturationEngine(Frontiers(order), positions)
        witness: Optional[InconsistencyWitness] = None
        try:
            # Every write precedes its own flush.
            for flushes in writes_by_variable.values():
                for flush in flushes:
                    engine.add_ordering(flush.premise, flush)
            # A read of the initial value precedes every flush of its
            # variable: the first of each store buffer, and program order
            # the rest.
            for read, write in reads_from.items():
                if write is None:
                    first = {}
                    for flush in writes_by_variable.get(read.variable, ()):
                        first.setdefault(flush.thread, flush)
                    for flush in first.values():
                        engine.add_ordering(read, flush)
            engine.saturate(reads_from, writes_by_variable)
        except CycleDetected as cycle:
            witness = InconsistencyWitness(
                cycle.source.node, cycle.target.node,
                _reason(cycle.source, cycle.target))

        result.details["consistent"] = witness is None
        result.details["inserted"] = engine.inserted
        result.details["reads"] = len(reads_from)
        result.details["writes"] = len(writes_by_value)
        if witness is not None:
            result.findings.append(witness)

    # ------------------------------------------------------------------ #
    # Reads-from recovery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _recover_reads_from(reads: List[Tuple[Event, Event]],
                            writes_by_value: Dict[object, _Flush]
                            ) -> Dict[Event, Optional[_Flush]]:
        """Map every read's issue to its writer's flush using the written
        values; ``reads`` pairs each read with its issue."""
        mapping: Dict[Event, Optional[_Flush]] = {}
        for read, issue in reads:
            if read.value == INITIAL_VALUE or read.value is None:
                mapping[issue] = None
                continue
            writer = writes_by_value.get(read.value)
            if writer is None or writer.premise.variable != read.variable:
                raise AnalysisError(
                    f"read {read} observes value {read.value!r} that no write "
                    "to the same variable produced"
                )
            mapping[issue] = writer
        return mapping


def check_tso_consistency(trace: Trace, backend=None,
                          **kwargs) -> AnalysisResult:
    """Convenience wrapper: run TSO consistency checking over ``trace``."""
    return TSOConsistencyAnalysis(backend, **kwargs).run(trace)
