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

A write's *premise* node (the one whose reaching ``r`` makes it compete)
may differ from its *conclusion* node (the one the rules order): x86-TSO
(``tso.py``) issues a write on its thread's chain and flushes it on a
store-buffer chain.  ``rf(r) -> r`` then starts at the writer's premise
node when ``r`` is on its chain, at its conclusion node otherwise.  For
an event of the trace both are the event itself.

The engine saturates semi-naively.  A competing write whose premise
(first rule) or conclusion (second rule) is node ``(t, i)`` meets the
rule's premise iff ``i <= predecessor(r, t)`` or
``successor(rf(r), t) <= i``, respectively: on each chain, the writes
that meet the first form a prefix and those that meet the second a
suffix.  Each read keeps how far both reached at its last check.  The
order only grows, so a conclusion once drawn stays true, and a rule can
fire again only for a write that the read's predecessor frontier
(``PartialOrder.frontier``) or its writer's successor frontier newly
covers, or for a write that is new; program order then needs at most
one insert per chain and rule.  A read is checked again only after an
edge went in since its last check that lands at or before what it
depends on in the trace, or when its variable has new writes.
Different visit orders insert different but equivalent edge sets: the
least fixpoint, its reachability relation and whether it has a cycle
do not depend on them.

:class:`SaturatedOrder` keeps a saturated order, the engine's per-read
state and the analysis's live candidates (:class:`KeptCandidates`),
so that a longer prefix of the trace extends them instead of starting
over, and :class:`SaturationAnalysis` is the base of the four analyses
built on it, which keep one such order across the flushes of a stream.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from operator import attrgetter
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence)

from repro.analyses.common.base import Analysis, AnalysisResult
from repro.analyses.common.hb import Frontiers, sync_edges
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


#: A position after every event of any trace.
_NO_POSITION = 1 << 60


class _Writes:
    """The writes of one variable, per chain, in program order: each
    entry of ``chains`` is ``(premise chain, premise indices, chain,
    indices, writes)``, ``chain`` holding their conclusion nodes."""

    __slots__ = ("chains", "by_chain", "count")

    def __init__(self) -> None:
        self.chains: List[tuple] = []
        self.by_chain: Dict[int, tuple] = {}
        self.count = 0


def _premise(write: Event) -> Event:
    """A write's premise node: its ``premise``, if it has one, else
    itself."""
    return getattr(write, "premise", write)


class _Read:
    """A read's saturation state: its writer, its variable's writes, and
    how far its last check got.

    On each chain of competing writes, those whose premise nodes reach
    the read form a prefix (their premise indices are at most
    ``predecessor(read, t)``) and those the writer reaches form a suffix
    (at least ``successor(write, t)``).  ``cover`` holds per chain
    ``[prefix end, suffix start, writes seen]``: the rules are applied to
    every write of both.  The reads-from edge starts at ``source``.
    """

    __slots__ = ("key", "read", "write", "source", "writes", "cover",
                 "count", "stamp", "reach")

    def __init__(self, read: Event, write: Event, writes: _Writes) -> None:
        self.key = (str(read.variable), read.thread, read.index)
        self.read = read
        self.write = write
        premise = _premise(write)
        self.source = premise if premise.thread == read.thread else write
        self.writes = writes
        self.cover: List[List[int]] = []
        #: ``writes.count`` at the last check.
        self.count = 0
        #: ``SaturationEngine.inserted`` when the last check began
        #: (``-1`` before the first).
        self.stamp = -1
        #: The latest trace position whose predecessors the last check
        #: read: the read's own, or a suffix's next write's.
        self.reach = 0


class SaturationEngine:
    """Applies the reads-from saturation rules over a partial order.

    The engine keeps every read it has saturated, with how far its last
    check got, so that a later :meth:`saturate` over a longer trace takes
    the new reads and writes and re-checks the old reads only where their
    frontiers moved.

    Every cross-chain edge of the order goes in through
    :meth:`add_ordering`, so the engine knows where each lands and skips
    reads that no edge since their last check can affect.  If every edge
    leads forward in the trace, as the sync and saturation edges of an
    observed trace do, every path into an event ``x`` uses only edges
    whose target is at or before ``x``; so an event's predecessors, and
    with them both premises of a check, move only when an edge lands at
    or before it.  A read is skipped while every edge inserted since its
    check lands after :attr:`_Read.reach`.  The first edge that leads
    backwards turns the skip off for good.

    Nodes are asked only for ``node``, ``thread`` (the chain) and
    ``index``, reads also for ``variable``, so an analysis may hand in
    nodes of its own; a write whose premise node is another carries it
    as ``premise``.

    Parameters
    ----------
    frontiers:
        The frontier memo of the partial order holding ``P``, which holds
        no cross-chain edge yet; every question and every insert goes
        through it.
    positions:
        Per chain, the trace position of each node.  The engine reads
        it at each call, so it may grow with the trace.
    writes_by_variable:
        All writes, grouped by variable, each list in trace order; used
        to locate competing writes for each saturated read.
        :meth:`saturate` takes the writes of a longer trace.
    """

    def __init__(self, frontiers: Frontiers,
                 positions: Mapping[int, Sequence[int]],
                 writes_by_variable: Optional[
                     Mapping[object, List[Event]]] = None) -> None:
        self.frontiers = frontiers
        #: Edges inserted through :meth:`add_ordering` so far.
        self.inserted = 0
        self._positions = positions
        #: Target positions of the edges inserted since the last
        #: :meth:`saturate` ended, and whether any edge led backwards.
        self._targets: List[int] = []
        self._backward = False
        self._writes: Dict[object, _Writes] = {}
        self._reads: List[_Read] = []
        self._read_count = 0
        if writes_by_variable is not None:
            self._add_writes(writes_by_variable)

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
        if self.frontiers.reaches(target.node, source.node):
            raise CycleDetected(source, target)
        if not self.frontiers.insert(source.node, target.node):
            return False
        self.inserted += 1
        positions = self._positions
        target_position = positions[target.thread][target.index]
        self._targets.append(target_position)
        if positions[source.thread][source.index] > target_position:
            self._backward = True
        return True

    # ------------------------------------------------------------------ #
    # Saturation
    # ------------------------------------------------------------------ #
    def saturate(self, reads_from: Mapping[Event, Optional[Event]],
                 writes_by_variable: Optional[
                     Mapping[object, List[Event]]] = None) -> int:
        """Apply the saturation rules until no read's premises can change.

        ``reads_from`` and ``writes_by_variable`` extend (or equal) the
        ones of the previous call: their new entries come last.  New reads
        get one full visit, and every read whose variable has new writes
        one check.  Then every read that an edge inserted since its last
        check may affect (see above) is checked again, until none is.
        Reads go in location order (by variable, then
        thread and index), as location-centric predictive analyses visit
        them, so the orderings land between arbitrary events of the trace
        -- the non-streaming insertion pattern the paper's motivating
        example describes.

        The loop ends: each pass either inserts an edge, of which there
        are finitely many, or leaves no read to check.  It stops at the least fixpoint of the rules over the
        order it started from.

        Returns the number of orderings inserted.  Raises
        :class:`CycleDetected` if the assignment is infeasible.
        """
        if writes_by_variable is not None:
            self._add_writes(writes_by_variable)
        reads = self._reads
        known = len(reads)
        for read, write in islice(reads_from.items(), self._read_count, None):
            if write is not None:
                writes = self._writes.get(read.variable)
                if writes is None:
                    writes = self._writes[read.variable] = _Writes()
                reads.append(_Read(read, write, writes))
        self._read_count = len(reads_from)
        if len(reads) > known:
            reads.sort(key=attrgetter("key"))
        before = self.inserted
        check = self._check
        work = self._stale(fresh_writes=True)
        while work:
            for state in work:
                check(state)
            work = self._stale(fresh_writes=False)
        # Every read is now at the fixpoint: skipped ones were untouched
        # by the edges since their check.
        current = self.inserted
        for state in reads:
            state.stamp = current
        self._targets.clear()
        return self.inserted - before

    def _stale(self, fresh_writes: bool) -> List[_Read]:
        """The reads, in location order, that an edge inserted since their
        last check may affect, or (when ``fresh_writes``) whose variable
        has new writes."""
        current = self.inserted
        reads = self._reads
        if self._backward:
            return [state for state in reads if state.stamp != current
                    or fresh_writes and state.count != state.writes.count]
        # lowest[i]: the earliest target of the edges from the i-th of
        # the log on.
        targets = self._targets
        base = current - len(targets)
        lowest = targets + [_NO_POSITION]
        for position in range(len(targets) - 1, -1, -1):
            if lowest[position + 1] < lowest[position]:
                lowest[position] = lowest[position + 1]
        return [state for state in reads
                if state.stamp < 0
                or state.stamp != current
                and lowest[state.stamp - base] <= state.reach
                or fresh_writes and state.count != state.writes.count]

    def _add_writes(self, writes_by_variable: Mapping[object, List[Event]]
                    ) -> None:
        """Append, per chain, the writes beyond those seen so far."""
        table = self._writes
        for variable, events in writes_by_variable.items():
            writes = table.get(variable)
            if writes is None:
                writes = table[variable] = _Writes()
            if len(events) == writes.count:
                continue
            by_chain = writes.by_chain
            for write in islice(events, writes.count, None):
                premise = _premise(write)
                chain, index = write.node
                entry = by_chain.get(chain)
                if entry is None:
                    entry = by_chain[chain] = (premise.thread, [], chain,
                                               [], [])
                    writes.chains.append(entry)
                entry[1].append(premise.index)
                entry[3].append(index)
                entry[4].append(write)
            writes.count = len(events)

    def _check(self, state: _Read) -> None:
        """Apply the rules for one read to the competing writes that its
        prefixes and suffixes (see :class:`_Read`) newly cover.

        Each rule needs one insert per chain at most.  The newly covered
        writes of a prefix all reach the read and must reach the writer:
        once the latest of them does, program order orders the rest.  The
        read must reach the newly covered writes of a suffix, and the
        writes new since the last check if the suffix held one already:
        once it reaches the earliest of them, program order does the rest.
        A prefix grows to the read's predecessor frontier; a suffix grows
        when the writer reaches the write just before it.  An unchanged
        read costs one ``frontier`` call and a memo question per chain for
        its suffix.
        """
        read = state.read
        write = state.write
        if state.stamp < 0:
            self.add_ordering(state.source, read)
        state.stamp = self.inserted
        writes = state.writes
        state.count = writes.count
        cover = state.cover
        while len(cover) < len(writes.chains):
            cover.append([0, 0, 0])
        frontiers = self.frontiers
        reaches = frontiers.reaches
        read_node = read.node
        write_node = write.node
        positions = self._positions
        reach = positions[read.thread][read.index]
        predecessors = frontiers.order.frontier(read_node, "predecessor")
        for (premise_chain, premises, chain, indices, events), entry \
                in zip(writes.chains, cover):
            prefix, suffix, seen = entry
            count = len(indices)
            # Competing writes now before the read: force them before the
            # writer.
            if prefix < count:
                limit = predecessors[premise_chain]
                if premises[prefix] <= limit:
                    prefix = bisect_right(premises, limit, prefix)
                    competitor = events[prefix - 1]
                    if competitor is not write \
                            and not reaches(competitor.node, write_node):
                        self.add_ordering(competitor, write)
            # Writes now after the writer: force the read before them.
            first = count
            if seen < count:
                if suffix < seen:
                    first = seen
                else:
                    suffix = count
                seen = count
            if suffix and reaches(write_node, events[suffix - 1].node):
                suffix = first = bisect_left(
                    indices, frontiers.successor(write_node, chain), 0,
                    suffix)
            if first < count and events[first] is write:
                first += 1
            if first < count and not reaches(read_node,
                                             events[first].node):
                self.add_ordering(read, events[first])
            entry[0] = prefix
            entry[1] = suffix
            entry[2] = seen
            if suffix:
                boundary = positions[chain][indices[suffix - 1]]
                if boundary > reach:
                    reach = boundary
        state.reach = reach


class KeptCandidates:
    """The candidate pairs of a growing trace that its analysis checks.

    race-prediction pairs conflicting accesses.  A pair the order rules
    out (ordered) stays ruled out as the order grows, and so does a
    lock-protected pair; other verdicts, such as a witness whose cone
    window slides, do not.  So an analysis adds only
    the pairs with an event new since its last call, :meth:`sweep` drops
    the ruled-out ones for good, and the rest are checked again.  A batch
    run is the same path on a fresh instance.

    Candidates are tuples grouped by a key (a variable); each group is kept sorted, and groups keep the order of their first
    :meth:`add`.  When each tuple starts with its rank in the batch
    enumeration and the groups are added in the batch's group order,
    :meth:`sweep` yields candidates in batch order.
    """

    def __init__(self) -> None:
        #: Candidates enumerated so far, dropped ones included.
        self.total = 0
        #: How far each group's enumeration has got, in the analysis's
        #: own terms.
        self.seen: Dict[object, Any] = {}
        self._live: Dict[object, List[tuple]] = {}

    def add(self, group: object, items: List[tuple]) -> None:
        """Register ``group`` (on its first call) and merge ``items``,
        sorted, into its live candidates."""
        live = self._live.get(group)
        if live is None:
            self._live[group] = list(items)
        elif items:
            live.extend(items)
            live.sort()

    def sweep(self, ruled_out: Callable[[tuple], bool]) -> Iterator[tuple]:
        """Yield the live candidates in order, dropping for good each one
        that ``ruled_out`` holds for."""
        live_groups = self._live
        for group, items in live_groups.items():
            live = []
            for item in items:
                if not ruled_out(item):
                    live.append(item)
                    yield item
            live_groups[group] = live


class SaturatedOrder:
    """A partial order holding the saturated sync order of a trace prefix.

    :meth:`extend` takes the order from the prefix it holds to the whole
    of a trace that extends that prefix.  It inserts the sync edges of the
    new events only (the lock walk resumes where it stopped), then
    saturates on: new reads get a full visit, old reads are checked
    against new writes and where their frontiers moved.  A fresh
    ``SaturatedOrder`` extended once is the closure phase of a batch run,
    operation for operation (:func:`saturate_trace`).  The analysis's
    :class:`KeptCandidates` live here too, so that they go with the order
    they were checked against.

    Why extending is exact: every rule that builds the sync order or
    saturates it is monotone in the trace prefix.  A prefix's lock and fork
    edges are the longer trace's; its join edges leave the child's last
    event so far, which program order places before the child's last
    event later.  Each read keeps its writer, and each competing write
    stays one.  So the least fixpoint of a prefix is contained in the
    least fixpoint of any longer trace, and saturating on from it reaches
    that fixpoint: the relation a batch run on the longer trace reaches,
    whatever edges each inserted to get there.  Every sync edge is checked
    for a cycle before it goes in, as every saturation edge is, so a cycle
    is found whichever of its edges comes last.  Every edge of the order
    goes in through the engine, which is therefore given the trace
    positions (the order must be empty when this object is made).  An
    extension that meets a cycle (:attr:`cyclic`) leaves a partly
    saturated order that depends on insertion order, so it is not
    extended again.
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
        #: The analysis's candidates, checked against this order.
        self.candidates = KeptCandidates()
        self._last_release: Dict[object, Event] = {}
        self._engine: Optional[SaturationEngine] = None

    def extends(self, trace: Trace) -> bool:
        """Whether :meth:`extend` may resume on ``trace``: it is the trace
        extended so far, or the first one, and has not shrunk."""
        return (self.trace is None or self.trace is trace) \
            and len(trace) >= self.synced

    def extend(self, trace: Trace, result: AnalysisResult) -> Frontiers:
        """Insert the sync edges of the events added since the last call and
        saturate the trace's observed reads-from.

        Records ``sync_edges`` and ``saturation_edges`` (the edges the
        order holds) and, when the sync order or the observed assignment
        closes a cycle, ``closure_cycle`` in ``result.details``.  Returns a
        frontier memo, exact for the order, for the analysis's own phase
        to ask.
        """
        # A fresh memo per call, not kept: the kept order outlives the
        # flush, and the memo would be its largest part.
        frontiers = Frontiers(self.order)
        # The trace's columns grow in place, and its positions with them.
        positions = trace.columns().thread_positions
        engine = self._engine
        if engine is None:
            engine = self._engine = SaturationEngine(frontiers, positions)
        engine.frontiers = frontiers
        self.trace = trace
        try:
            for source, target in sync_edges(
                    trace, include_locks=self.include_locks,
                    start=self.synced, last_release=self._last_release):
                if engine.add_ordering(trace.event_at(source),
                                       trace.event_at(target)):
                    self.sync_edges += 1
            self.synced = len(trace)
            self.saturation_edges += engine.saturate(
                trace.reads_from(), trace.writes_by_variable())
        except CycleDetected:
            # The observed trace itself is always feasible; a cycle can
            # only mean the caller handed in an inconsistent synthetic
            # trace.
            self.cyclic = True
            result.details["closure_cycle"] = True
        finally:
            engine.frontiers = None
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
    (tso-consistency saturates through the same engine but builds no
    sync order, and on a stream re-runs in batch at each flush.)

    A subclass implements :meth:`_analyse`, its own phase over the
    saturated order, which asks frontiers and inserts no edges.  It is
    handed the order's :class:`KeptCandidates` to keep its candidate
    pairs in.

    On an unbounded stream the analysis is native: it keeps one
    :class:`SaturatedOrder` across flushes, and each flush is a
    :meth:`run` on it that extends it to the events streamed so far, then
    runs :meth:`_analyse`.  The findings equal a batch :meth:`run` on that
    prefix (the argument is in the ``SaturatedOrder`` docstring).  The
    result's insert, query and edge counts are those of the kept order
    since it was built.  A flush rebuilds the kept order from scratch when
    the view's trace is not the one it extended, when a thread id is at or
    beyond its chain count, or after a flush that raised.  An order
    whose saturation met a cycle is dropped, and every later flush builds afresh, as batch does.  When a
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
            self._analyse(trace, frontiers, kept.candidates, result)

    def _analyse(self, trace: Trace, frontiers: Frontiers,
                 kept: KeptCandidates,
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
