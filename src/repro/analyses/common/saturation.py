"""Reads-from saturation (the "saturation" rules of Section 1.1).

Several predictive analyses maintain, besides a partial order ``P``, a
reads-from assignment ``rf`` mapping every read to the write it observes.
For ``P`` and ``rf`` to be mutually consistent, additional orderings are
*forced*:

* ``rf(r) -> r`` -- a read is ordered after its writer;
* for any other write ``w'`` to the same variable:

  - if ``w' ->* r`` already, then ``w'`` must also precede the writer:
    insert ``w' -> rf(r)``;
  - if ``rf(r) ->* w'`` already, then the read must precede the competing
    write: insert ``r -> w'``.

Applying these rules until a fixed point is the saturation step used by
consistency checking, race prediction, and the memory-bug analyses (see the
citations in Section 1.1 of the paper).  Because the inserted orderings land
between arbitrary events of the trace, this is the archetypal *non-streaming*
workload CSSTs were designed for.

Both rules are asked of a :class:`~repro.analyses.common.hb.Frontiers`
memo: four frontiers per chain -- ``predecessor`` of the read and of its
writer, ``successor`` of the writer and of the read -- answer them for
every competing write on that chain (the argument is in the ``Frontiers``
docstring).  The memo drops every frontier when an edge goes in, so the
engine inserts the same edges in the same order as a loop asking
``reachable`` per competitor.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.analyses.common.base import AnalysisResult
from repro.analyses.common.hb import Frontiers, build_sync_order
from repro.core.interface import PartialOrder
from repro.errors import AnalysisError
from repro.trace.event import Event
from repro.trace.trace import Trace


class CycleDetected(AnalysisError):
    """Raised when saturation would create a cycle.

    A cycle means the current reads-from assignment is infeasible: there is
    no interleaving in which every read observes its assigned writer.
    """

    def __init__(self, source: Event, target: Event) -> None:
        super().__init__(f"ordering {source} -> {target} closes a cycle")
        self.source = source
        self.target = target


class SaturationEngine:
    """Applies the reads-from saturation rules over a partial order.

    Parameters
    ----------
    frontiers:
        The frontier memo of the partial order holding ``P``; every
        question and every insert goes through it.
    writes_by_variable:
        All write events, grouped by variable; used to locate competing
        writes for each saturated read.
    """

    def __init__(self, frontiers: Frontiers,
                 writes_by_variable: Mapping[object, List[Event]]) -> None:
        self._frontiers = frontiers
        self._writes_by_variable = writes_by_variable

    # ------------------------------------------------------------------ #
    # Edge insertion with cycle detection
    # ------------------------------------------------------------------ #
    def add_ordering(self, source: Event, target: Event) -> bool:
        """Insert ``source -> target``; raise :class:`CycleDetected` if the
        reverse ordering already holds.  Returns ``True`` if a new cross-
        chain edge was inserted."""
        if source.node == target.node:
            return False
        if source.thread == target.thread:
            if source.index > target.index:
                raise CycleDetected(source, target)
            return False
        if self._frontiers.reaches(target.node, source.node):
            raise CycleDetected(source, target)
        return self._frontiers.insert(source.node, target.node)

    # ------------------------------------------------------------------ #
    # Saturation
    # ------------------------------------------------------------------ #
    def saturate(self, reads_from: Mapping[Event, Optional[Event]],
                 max_rounds: int = 16) -> int:
        """Apply the saturation rules until a fixed point (or ``max_rounds``).

        Saturation proceeds one memory location at a time (all reads of a
        variable are handled before moving to the next), as location-centric
        predictive analyses do.  The orderings this derives therefore land
        between arbitrary events of the trace rather than following the
        trace order -- the non-streaming insertion pattern the paper's
        motivating example describes.

        Returns the number of orderings inserted.  Raises
        :class:`CycleDetected` if the assignment is infeasible.
        """
        by_location = sorted(
            (item for item in reads_from.items() if item[1] is not None),
            key=lambda item: (str(item[0].variable), item[0].thread, item[0].index),
        )
        # The competing writes of each variable, as ``(event, chain,
        # index)``, built once per call.
        competitors: Dict[object, List[Tuple[Event, int, int]]] = {}
        for read, _write in by_location:
            if read.variable not in competitors:
                competitors[read.variable] = [
                    (event, event.thread, event.index)
                    for event in self._writes_by_variable.get(read.variable, ())
                    if event.is_write]
        inserted = 0
        for _ in range(max_rounds):
            changed = 0
            for read, write in by_location:
                changed += self._saturate_read(read, write,
                                               competitors[read.variable])
            inserted += changed
            if changed == 0:
                return inserted
        return inserted

    def _saturate_read(self, read: Event, write: Event,
                       competitors: List[Tuple[Event, int, int]]) -> int:
        """Apply the rules for one read against every competing write.

        A competitor on chain ``t`` at ``index`` reaches ``read`` iff
        ``index <= predecessor(read, t)``, and ``write`` reaches it iff
        ``successor(write, t) <= index``; likewise for the other two tests.
        """
        inserted = 0
        if self.add_ordering(write, read):
            inserted += 1
        frontiers = self._frontiers
        read_node = read.node
        write_node = write.node
        write_chain, write_index = write_node
        for competitor, chain, index in competitors:
            if competitor is write or (chain == write_chain
                                       and index == write_index):
                continue
            # Competing write already before the read: force it before the writer.
            if (index <= frontiers.predecessor(read_node, chain)
                    and index > frontiers.predecessor(write_node, chain)
                    and self.add_ordering(competitor, write)):
                inserted += 1
            # Writer already before the competing write: force the read before it.
            if (frontiers.successor(write_node, chain) <= index
                    and index < frontiers.successor(read_node, chain)
                    and self.add_ordering(read, competitor)):
                inserted += 1
        return inserted


def saturate_trace(trace: Trace, order: PartialOrder, result: AnalysisResult,
                   include_locks: bool = True) -> Frontiers:
    """The closure phase of the saturation analyses.

    Builds the sync order into ``order`` (lock edges only when
    ``include_locks``), saturates the trace's observed reads-from over it,
    and records ``sync_edges``, ``saturation_edges`` and, when the
    observed assignment closes a cycle, ``closure_cycle`` in
    ``result.details``.  Returns the frontier memo, exact for the
    saturated order, for the analysis's own phase to ask.
    """
    sync_edges = build_sync_order(trace, order, include_locks=include_locks)
    frontiers = Frontiers(order)
    engine = SaturationEngine(frontiers, trace.writes_by_variable())
    try:
        saturation_edges = engine.saturate(trace.reads_from())
    except CycleDetected:
        # The observed trace itself is always feasible; a cycle can only
        # mean the caller handed in an inconsistent synthetic trace.
        result.details["closure_cycle"] = True
        saturation_edges = 0
    result.details["sync_edges"] = sync_edges
    result.details["saturation_edges"] = saturation_edges
    return frontiers
