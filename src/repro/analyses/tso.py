"""x86-TSO consistency checking (Table 4 of the paper).

Given a trace of (atomic) writes and reads annotated with values, the
consistency-testing problem asks whether some interleaving consistent with
x86-TSO explains every read's value.  The problem is NP-complete in general;
the analysis follows the polynomial-time saturation heuristic of Roy et
al. [34]: derive all orderings that *must* hold in any witness and report an
inconsistency when they form a cycle.

The store-buffer semantics of TSO is modelled exactly as in the paper's
evaluation setup: the chain DAG has **two chains per thread** -- the
program-order chain holding every event the thread issues, and a
store-buffer chain holding one flush pseudo-event per write (flushes are
FIFO, hence totally ordered within the chain).  Cross-chain edges express

* a write being ordered before its own flush,
* reads-from edges ``flush(w) -> r`` for cross-thread observations, and
* the coherence orderings inferred by saturation.

Those inferred orderings land between arbitrary events of the trace, which
is why this analysis stresses partial-order updates deep inside the order --
the workload Table 4 shows CSSTs dominating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analyses.common.base import Analysis, AnalysisResult
from repro.analyses.common.hb import Frontiers
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
        threads = trace.threads
        thread_position = {thread: position for position, thread in enumerate(threads)}
        writes_by_value: Dict[object, Event] = {}
        writes_by_variable: Dict[object, List[Event]] = {}
        flush_node: Dict[Event, Node] = {}
        issue_node: Dict[Event, Node] = {}
        flush_counts = {thread: 0 for thread in threads}

        for event in trace:
            if not event.is_access:
                continue
            position = thread_position[event.thread]
            issue_node[event] = (2 * position, event.index)
            if event.is_write:
                if event.value in writes_by_value:
                    raise AnalysisError(
                        f"duplicate written value {event.value!r}; the TSO checker "
                        "requires unique write values to recover reads-from"
                    )
                writes_by_value[event.value] = event
                writes_by_variable.setdefault(event.variable, []).append(event)
                flush_node[event] = (2 * position + 1, flush_counts[event.thread])
                flush_counts[event.thread] += 1

        frontiers = Frontiers(order)
        inserted = 0
        witness: Optional[InconsistencyWitness] = None

        def add(source: Node, target: Node, reason: str) -> bool:
            """Insert ``source -> target``; record a witness on cycles."""
            nonlocal inserted, witness
            if witness is not None:
                return False
            if source[0] == target[0]:
                if source[1] > target[1]:
                    witness = InconsistencyWitness(source, target, reason)
                return False
            if frontiers.reaches(source, target):
                return False
            if frontiers.reaches(target, source):
                witness = InconsistencyWitness(source, target, reason)
                return False
            frontiers.insert(source, target)
            inserted += 1
            return True

        # Base orderings: every write precedes its own flush.
        for write, flush in flush_node.items():
            add(issue_node[write], flush, "write before flush")

        # Reads-from edges.
        reads_from = self._recover_reads_from(trace, writes_by_value)
        for read, write in reads_from.items():
            if write is None:
                continue
            if write.thread != read.thread:
                add(flush_node[write], issue_node[read], "reads-from")
            # Same-thread early reads (store-to-load forwarding) need no edge:
            # program order already orders the write before the read.

        # Saturation: coherence-driven inference until a round inserts
        # nothing (every rule only adds edges, so the loop terminates).
        rounds = 0
        changed = 1
        while changed and witness is None:
            rounds += 1
            changed = 0
            for read, write in reads_from.items():
                if witness is not None:
                    break
                changed += self._saturate_read(
                    frontiers, add, reads_from, writes_by_variable, flush_node,
                    issue_node, read, write,
                )

        result.details["consistent"] = witness is None
        result.details["inserted"] = inserted
        result.details["rounds"] = rounds
        result.details["reads"] = len(reads_from)
        result.details["writes"] = len(writes_by_value)
        if witness is not None:
            result.findings.append(witness)

    # ------------------------------------------------------------------ #
    # Reads-from recovery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _recover_reads_from(trace: Trace, writes_by_value: Dict[object, Event]
                            ) -> Dict[Event, Optional[Event]]:
        """Map every read to its writer using the written values."""
        mapping: Dict[Event, Optional[Event]] = {}
        for event in trace:
            if not event.is_read:
                continue
            if event.value == INITIAL_VALUE or event.value is None:
                mapping[event] = None
                continue
            writer = writes_by_value.get(event.value)
            if writer is None or writer.variable != event.variable:
                raise AnalysisError(
                    f"read {event} observes value {event.value!r} that no write "
                    "to the same variable produced"
                )
            mapping[event] = writer
        return mapping

    # ------------------------------------------------------------------ #
    # Saturation rules
    # ------------------------------------------------------------------ #
    def _saturate_read(self, frontiers, add, reads_from, writes_by_variable,
                       flush_node, issue_node, read: Event,
                       write: Optional[Event]) -> int:
        """Coherence rules for one read (Roy et al. heuristic):

        for every other write ``w'`` to the same variable,

        * if ``w'`` is (already) ordered before the read, its flush must be
          ordered before the writer's flush (otherwise the read would have
          observed ``w'``);
        * if the writer's flush is ordered before ``w'``'s flush, the read
          must be ordered before ``w'``'s flush.
        """
        changed = 0
        read_node = issue_node[read]
        for competitor in writes_by_variable.get(read.variable, ()):
            if competitor is write:
                continue
            competitor_flush = flush_node[competitor]
            competitor_issue = issue_node[competitor]
            if write is None:
                # Read of the initial value: no write to the variable may be
                # flushed before the read in any witness order.
                if add(read_node, competitor_flush, "initial-value read"):
                    changed += 1
                continue
            writer_flush = flush_node[write]
            before_read = frontiers.reaches(competitor_flush, read_node) or \
                frontiers.reaches(competitor_issue, read_node)
            if before_read and not frontiers.reaches(competitor_flush,
                                                     writer_flush):
                if add(competitor_flush, writer_flush, "coherence (write before read)"):
                    changed += 1
            if frontiers.reaches(writer_flush, competitor_flush):
                if not frontiers.reaches(read_node, competitor_flush):
                    if add(read_node, competitor_flush, "coherence (read before write)"):
                        changed += 1
        return changed


def check_tso_consistency(trace: Trace, backend=None,
                          **kwargs) -> AnalysisResult:
    """Convenience wrapper: run TSO consistency checking over ``trace``."""
    return TSOConsistencyAnalysis(backend, **kwargs).run(trace)
