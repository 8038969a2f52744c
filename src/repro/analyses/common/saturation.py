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

Frontier queries
----------------
Both rules ask reachability questions between one read ``r``, its writer
``w`` and each competing write ``w'``.  They are not asked one competitor
at a time.  For a fixed node ``e`` and a chain ``t``, the nodes of ``t``
that reach ``e`` form a prefix of ``t`` (program order extends any path
backwards), and the nodes ``e`` reaches form a suffix.  So the prefix's
last index, ``predecessor(e, t)``, and the suffix's first index,
``successor(e, t)``, decide the question for every node of ``t`` by one
integer comparison: ``w' ->* e`` iff ``index(w') <= predecessor(e, t)``,
and ``e ->* w'`` iff ``successor(e, t) <= index(w')``.  Four such
*frontiers* per chain -- ``predecessor(r, t)``, ``predecessor(w, t)``,
``successor(w, t)`` and ``successor(r, t)`` -- answer both rules for all
competitors on ``t``; each is queried on first use (the per-chain form of
the question that CSSTs answer in one ``O(log n)`` suffix-minima lookup).
The answers are exact, not approximations: a frontier is a fact about the
current order, and the engine drops every cached frontier whenever it
inserts an edge.  Every test therefore comes out as a ``reachable`` call
would answer it at that moment, and the engine inserts the same edges in
the same order as a loop asking ``reachable`` per competitor.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.interface import PartialOrder
from repro.errors import AnalysisError
from repro.trace.event import Event
from repro.analyses.common.hb import NO_SUCCESSOR, insert_ordering


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
    order:
        The partial-order backend holding ``P``.
    writes_by_variable:
        All write events, grouped by variable; used to locate competing
        writes for each saturated read.
    track_insertions:
        When ``True``, every edge inserted by the engine is recorded so a
        caller can undo it later (only meaningful for fully dynamic
        backends; used by the search-style analyses that explore reads-from
        choices and backtrack).
    """

    def __init__(self, order: PartialOrder,
                 writes_by_variable: Mapping[object, List[Event]],
                 track_insertions: bool = False) -> None:
        self._order = order
        self._writes_by_variable = writes_by_variable
        self._track = track_insertions
        self._inserted: List[Tuple[Event, Event]] = []

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
        if self._order.reachable(target.node, source.node):
            raise CycleDetected(source, target)
        if insert_ordering(self._order, source.node, target.node):
            if self._track:
                self._inserted.append((source, target))
            return True
        return False

    def undo(self) -> int:
        """Delete every tracked edge (most recent first) and return how many
        were removed.  Requires a backend with deletion support."""
        removed = 0
        while self._inserted:
            source, target = self._inserted.pop()
            self._order.delete_edge(source.node, target.node)
            removed += 1
        return removed

    @property
    def inserted_edges(self) -> List[Tuple[Event, Event]]:
        """Edges inserted so far (only populated when tracking is enabled)."""
        return list(self._inserted)

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

        A competitor ``c`` on chain ``t`` reaches ``read`` iff its index is
        at most ``predecessor(read, t)``, and ``write`` reaches ``c`` iff
        its index is at least ``successor(write, t)``; likewise for the
        other two tests.  So four frontiers per chain, each queried on
        first use, answer every competitor on that chain.  They are exact
        only for the current order, so every inserted edge drops them.
        """
        inserted = 0
        if self.add_ordering(write, read):
            inserted += 1
        write_chain, write_index = write.thread, write.index
        # Per chain: [pred(read), pred(write), succ(write), succ(read)].
        frontiers: Dict[int, List[Optional[int]]] = {}
        for competitor, chain, index in competitors:
            if competitor is write or (chain == write_chain
                                       and index == write_index):
                continue
            bounds = frontiers.get(chain)
            if bounds is None:
                bounds = frontiers[chain] = [None, None, None, None]
            # Competing write already before the read: force it before the writer.
            bound = bounds[0]
            if bound is None:
                bound = self._frontier(bounds, 0, read, chain)
            if index <= bound:
                bound = bounds[1]
                if bound is None:
                    bound = self._frontier(bounds, 1, write, chain)
                if index > bound and self.add_ordering(competitor, write):
                    inserted += 1
                    frontiers.clear()
                    bounds = frontiers[chain] = [None, None, None, None]
            # Writer already before the competing write: force the read before it.
            bound = bounds[2]
            if bound is None:
                bound = self._frontier(bounds, 2, write, chain)
            if index >= bound:
                bound = bounds[3]
                if bound is None:
                    bound = self._frontier(bounds, 3, read, chain)
                if index < bound and self.add_ordering(read, competitor):
                    inserted += 1
                    frontiers.clear()
        return inserted

    def _frontier(self, bounds: List[Optional[int]], slot: int,
                  event: Event, chain: int) -> int:
        """Query, store and return ``bounds[slot]`` for ``event``.

        Slots 0 and 1 hold the latest index of ``chain`` that reaches
        ``event`` (``-1`` when none does); slots 2 and 3 the earliest index
        of ``chain`` that ``event`` reaches (:data:`NO_SUCCESSOR` when
        none).  On ``event``'s own chain both are its own index.
        """
        if event.thread == chain:
            bound = event.index
        elif slot < 2:
            bound = self._order.predecessor(event.node, chain)
            if bound is None:
                bound = -1
        else:
            bound = self._order.successor(event.node, chain)
            if bound is None:
                bound = NO_SUCCESSOR
        bounds[slot] = bound
        return bound
