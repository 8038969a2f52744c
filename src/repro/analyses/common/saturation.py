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

:class:`SaturatedOrder` keeps a saturated order so that a longer prefix of
the trace extends it instead of starting over, and
:class:`SaturationAnalysis` is the base of the four analyses built on it,
which keep one such order across the flushes of a stream.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.analyses.common.base import Analysis, AnalysisResult
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
    def saturate(self, reads_from: Mapping[Event, Optional[Event]]) -> int:
        """Apply the saturation rules until a round inserts nothing.

        Saturation proceeds one memory location at a time (all reads of a
        variable are handled before moving to the next), as location-centric
        predictive analyses do.  The orderings this derives therefore land
        between arbitrary events of the trace rather than following the
        trace order -- the non-streaming insertion pattern the paper's
        motivating example describes.

        The loop ends: a round that changes the order inserts a new
        cross-chain ordering, and there are finitely many.  So it stops at
        the least fixpoint of the rules over the order it started from.

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
        while True:
            changed = 0
            for read, write in by_location:
                changed += self._saturate_read(read, write,
                                               competitors[read.variable])
            inserted += changed
            if changed == 0:
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


class SaturatedOrder:
    """A partial order holding the saturated sync order of a trace prefix.

    :meth:`extend` takes the order from the prefix it holds to the whole
    of a trace that extends that prefix.  It inserts the sync edges of the
    new events only (the lock walk resumes where it stopped), then
    saturates every read of the trace again over the kept order.  A fresh
    ``SaturatedOrder`` extended once is the closure phase of a batch run,
    operation for operation (:func:`saturate_trace`).

    Why extending is exact: every rule that builds the sync order or
    saturates it is monotone in the trace prefix.  A prefix's lock and fork
    edges are the longer trace's; its join edges leave the child's last
    event so far, which program order places before the child's last
    event later.  Each read keeps its writer, and each competing write
    stays one.  So the least fixpoint of a prefix is contained in the
    least fixpoint of any longer trace, and saturating on from it reaches
    that fixpoint: the relation a batch run on the longer trace reaches,
    whatever edges each inserted to get there.  An extension that meets a
    cycle (:attr:`cyclic`) leaves a partly saturated order that depends on
    insertion order, so it is not extended again.
    """

    def __init__(self, order: PartialOrder, include_locks: bool = True) -> None:
        self.order = order
        self.include_locks = include_locks
        #: The trace last extended to, and how many of its events' sync
        #: edges are in the order.
        self.trace: Optional[Trace] = None
        self.synced = 0
        self.sync_edges = 0
        self.saturation_edges = 0
        #: Whether the observed reads-from closed a cycle.
        self.cyclic = False
        self._last_release: Dict[object, Event] = {}

    def extends(self, trace: Trace) -> bool:
        """Whether :meth:`extend` may resume on ``trace``: it is the trace
        extended so far, or the first one, and has not shrunk."""
        return (self.trace is None or self.trace is trace) \
            and len(trace) >= self.synced

    def extend(self, trace: Trace, result: AnalysisResult) -> Frontiers:
        """Insert the sync edges of the events added since the last call and
        saturate the trace's observed reads-from.

        Records ``sync_edges`` and ``saturation_edges`` (the edges the
        order holds) and, when the observed assignment closes a cycle,
        ``closure_cycle`` in ``result.details``.  Returns a frontier memo,
        exact for the order, for the analysis's own phase to ask.
        """
        self.sync_edges += build_sync_order(
            trace, self.order, include_locks=self.include_locks,
            start=self.synced, last_release=self._last_release)
        self.trace = trace
        self.synced = len(trace)
        # A fresh memo per call, not kept: the kept order outlives the
        # flush, and the memo would be its largest part.
        frontiers = Frontiers(self.order)
        engine = SaturationEngine(frontiers, trace.writes_by_variable())
        try:
            self.saturation_edges += engine.saturate(trace.reads_from())
        except CycleDetected:
            # The observed trace itself is always feasible; a cycle can
            # only mean the caller handed in an inconsistent synthetic
            # trace.
            self.cyclic = True
            result.details["closure_cycle"] = True
        result.details["sync_edges"] = self.sync_edges
        result.details["saturation_edges"] = self.saturation_edges
        return frontiers


def saturate_trace(trace: Trace, order: PartialOrder, result: AnalysisResult,
                   include_locks: bool = True) -> Frontiers:
    """The closure phase of the saturation analyses: the sync order of
    ``trace`` built into ``order`` (lock edges only when
    ``include_locks``), then saturated (see :meth:`SaturatedOrder.extend`,
    which records the details and returns the memo)."""
    return SaturatedOrder(order, include_locks).extend(trace, result)


class SaturationAnalysis(Analysis):
    """Base of the analyses whose closure phase is :func:`saturate_trace`:
    race-prediction, deadlock-prediction, memory-bugs and use-after-free.

    A subclass implements :meth:`_analyse`, its own phase over the
    saturated order, which asks frontiers and inserts no edges.

    On an unbounded stream the analysis is native: it keeps one
    :class:`SaturatedOrder` across flushes, and each flush is a
    :meth:`run` on it that extends it to the events streamed so far, then
    runs :meth:`_analyse`.  The findings equal a batch :meth:`run` on that
    prefix (the argument is in the ``SaturatedOrder`` docstring).  The
    result's insert, query and edge counts are those of the kept order
    since it was built.  A flush rebuilds the kept order from scratch when
    the view's trace is not the one it extended, when a thread id is at or
    beyond its chain count, or after a flush that raised.  An order whose saturation met a cycle is
    dropped, and every later flush builds afresh, as batch does.  When a
    kept order meets the cycle while resuming, its run skips
    :meth:`_analyse` and the flush answers with a batch run, whose
    ``closure_cycle`` findings depend on its own insertion order.
    """

    streaming_native = True

    #: Whether the sync order holds the observed lock order.
    include_locks = True

    #: The order kept across the flushes of a stream.
    _kept: Optional[SaturatedOrder] = None

    def _run(self, trace: Trace, order: PartialOrder,
             result: AnalysisResult) -> None:
        kept = self._kept
        if kept is None or kept.order is not order:
            kept = SaturatedOrder(order, self.include_locks)
        resumed = kept.synced > 0
        frontiers = kept.extend(trace, result)
        if not (resumed and kept.cyclic):
            self._analyse(trace, frontiers, result)

    def _analyse(self, trace: Trace, frontiers: Frontiers,
                 result: AnalysisResult) -> None:
        raise NotImplementedError

    def begin(self, view) -> None:
        super().begin(view)
        self._kept = None

    def flush(self) -> AnalysisResult:
        trace = self._stream_trace()
        kept = self._kept
        if kept is None or not kept.extends(trace) \
                or self._num_chains(trace) > kept.order.num_chains:
            kept = self._kept = SaturatedOrder(self._make_order(trace),
                                               self.include_locks)
        resumed = kept.synced > 0
        try:
            result = self.run(trace, kept.order)
        except Exception:
            # A run cut short leaves the order partly extended.
            self._kept = None
            raise
        if kept.cyclic:
            self._kept = None
            if resumed:
                return self.run(trace)
        return result
