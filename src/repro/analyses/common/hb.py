"""Happens-before construction helpers shared by the analyses.

Most predictive analyses start from a *sync order*: program order plus
release-to-acquire edges over each lock (in the observed order) plus
fork/join edges.  This module yields the edges of that backbone
(:func:`sync_edges`), and exposes small helpers for the orderings
analyses add on top, among them :class:`Frontiers`, the memo through
which the saturation analyses ask and extend their order.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.interface import Node, PartialOrder
from repro.trace.event import WRITE_KINDS, Event, EventKind
from repro.trace.trace import Trace


def insert_ordering(order: PartialOrder, source: Node, target: Node) -> bool:
    """Insert ``source -> target`` unless it is already implied.

    Intra-chain orderings are implicit program order and never inserted.
    Returns ``True`` iff a new edge was actually inserted.
    """
    if source[0] == target[0]:
        return source[1] <= target[1]
    if order.reachable(source, target):
        return False
    order.insert_edge(source, target)
    return True


def sync_edges(trace: Trace, include_locks: bool = True, start: int = 0,
               last_release: Optional[Dict[object, Event]] = None
               ) -> Iterator[Tuple[Node, Node]]:
    """The cross-chain edges of the trace's synchronisation backbone:
    fork -> first-child-event and last-child-event -> join, and (when
    ``include_locks``) release(l) -> acquire(l) between consecutive
    critical sections of the same lock, in observed order.

    ``start`` and ``last_release`` resume the lock walk at trace position
    ``start``: the lock edges of the events before it were yielded
    already, and ``last_release`` maps each lock to its last release
    among them (updated in place).  Fork/join edges are walked over the
    whole trace, so a caller resuming meets old ones again.
    """
    if include_locks:
        if last_release is None:
            last_release = {}
        for event in islice(trace, start, None):
            if event.kind is EventKind.ACQUIRE:
                previous = last_release.get(event.variable)
                if previous is not None and previous.thread != event.thread:
                    yield previous.node, event.node
            elif event.kind is EventKind.RELEASE:
                last_release[event.variable] = event
    for source, target in trace.fork_join_edges():
        if source[0] != target[0]:
            yield source, target


def variable_conflicts(accesses: Sequence[Event], start: int = 0,
                       window: Optional[int] = None,
                       limit: Optional[int] = None) -> List[Tuple[int, int]]:
    """The conflicting pairs ``(i, j)``, ``i < j``, of one variable's
    access list whose later access ``j`` is at position ``start`` or
    beyond, in ``(i, j)`` order.  A pair conflicts when its accesses are
    on different threads and at least one writes.  ``window`` optionally
    restricts pairs to accesses at most that many positions apart in the
    list, which is how practical race detectors bound their candidate
    set.  At most ``limit`` pairs, when given; none when it is zero or
    less.

    A growing access list only ever gains pairs whose later access is
    new, so a caller that remembers ``start`` enumerates each pair once.
    """
    pairs: List[Tuple[int, int]] = []
    if limit is not None and limit <= 0:
        return pairs
    count = len(accesses)
    low = 0 if window is None else max(0, start - window)
    # Thread and write flag read once per access, not once per pair.
    threads = [event.thread for event in accesses[low:]]
    writes = [event.kind in WRITE_KINDS for event in accesses[low:]]
    for i in range(low, count):
        thread = threads[i - low]
        writes_first = writes[i - low]
        upper = count if window is None else min(count, i + 1 + window)
        for j in range(max(i + 1, start), upper):
            if threads[j - low] != thread and (writes_first
                                               or writes[j - low]):
                pairs.append((i, j))
                if limit is not None and len(pairs) >= limit:
                    return pairs
    return pairs


class Frontiers:
    """Per-chain frontiers of a partial order, kept until the order changes.

    The analyses that saturate reads-from (race-prediction,
    deadlock-prediction, memory-bugs, use-after-free, tso-consistency)
    ask and extend their order only through one such memo, held by their
    :class:`~repro.analyses.common.saturation.SaturationEngine`, from
    their first edge on.

    For a node ``e`` and a chain ``t``, the nodes of ``t`` that reach
    ``e`` form a prefix of ``t`` (program order extends any path
    backwards), and the nodes ``e`` reaches form a suffix.  The prefix's
    last index, ``predecessor(e, t)``, and the suffix's first index,
    ``successor(e, t)`` -- the two frontier operations of the
    dynamic-reachability problem (Section 2.2), one ``O(log n)``
    suffix-minima lookup on a CSST -- therefore decide every
    reachability question between ``e`` and ``t`` by one integer
    comparison: ``(t, i) ->* e`` iff ``i <= predecessor(e, t)``, and
    ``e ->* (t, i)`` iff ``successor(e, t) <= i``.  A caller that asks
    about many nodes of one chain pays one query, not one per node.

    Two kinds of question are kept.  :meth:`predecessor` and
    :meth:`successor` (and :meth:`reaches` and :meth:`ordered` on top)
    ask one chain at a time, keyed by node and chain.  :meth:`row` asks
    one node's predecessor frontier on every chain at once, through
    ``PartialOrder.frontier`` (one clock slice on ``vc-flat``, one lookup
    per chain behind one node check on the incremental CSST).  A row pays
    off where a node is asked about many chains between inserts: the
    witness cones (:meth:`cone`) and race-prediction's candidate filter,
    which run after saturation and insert nothing.  Saturation asks one
    or two chains of a node between inserts, and every insert drops the
    rows: served from rows, it got 2-5x slower at 64 threads
    (``docs/performance.md``), so it stays on the per-chain questions.

    Each answer is queried on first use and kept.  :meth:`insert` extends
    the order and drops every kept answer when an edge goes in, so each
    answer is the one a ``reachable`` call would give at that moment.
    Edges inserted or deleted on the order directly are not seen; an
    analysis that deletes edges (linearizability) asks its order
    directly.
    """

    def __init__(self, order: PartialOrder) -> None:
        self._order = order
        self._predecessors: Dict[Node, Dict[int, int]] = {}
        self._successors: Dict[Node, Dict[int, int]] = {}
        self._rows: Dict[Node, List[int]] = {}

    @property
    def order(self) -> PartialOrder:
        """The partial order the frontiers are asked of."""
        return self._order

    def insert(self, source: Node, target: Node) -> bool:
        """Insert ``source -> target`` unless it is already implied.

        Same contract and return value as :func:`insert_ordering`; every
        kept frontier is dropped when an edge goes in.
        """
        if source[0] == target[0]:
            return source[1] <= target[1]
        if self.reaches(source, target):
            return False
        self._order.insert_edge(source, target)
        self._predecessors.clear()
        self._successors.clear()
        self._rows.clear()
        return True

    def predecessor(self, node: Node, chain: int) -> int:
        """Latest index of ``chain`` reaching ``node`` (``-1`` if none)."""
        if chain == node[0]:
            return node[1]
        known = self._predecessors.get(node)
        if known is None:
            known = self._predecessors[node] = {}
        value = known.get(chain)
        if value is None:
            value = known[chain] = self._order.predecessor(node, chain)
        return value

    def successor(self, node: Node, chain: int) -> int:
        """First index of ``chain`` that ``node`` reaches
        (:data:`~repro.core.interface.NO_SUCCESSOR` if none)."""
        if chain == node[0]:
            return node[1]
        known = self._successors.get(node)
        if known is None:
            known = self._successors[node] = {}
        value = known.get(chain)
        if value is None:
            value = known[chain] = self._order.successor(node, chain)
        return value

    def row(self, node: Node) -> List[int]:
        """``predecessor(node, t)`` for every chain ``t``, in one
        ``frontier`` call; entry ``node[0]`` is the node's index.  The
        list is shared: read it, do not change it."""
        row = self._rows.get(node)
        if row is None:
            row = self._rows[node] = self._order.frontier(node, "predecessor")
        return row

    def reaches(self, source: Node, target: Node) -> bool:
        """Whether ``source`` happens before (or is) ``target``."""
        return source[1] <= self.predecessor(target, source[0])

    def ordered(self, first: Node, second: Node) -> bool:
        """Whether the two nodes are ordered either way."""
        return self.reaches(first, second) or self.reaches(second, first)

    def cone(self, anchors: Sequence[Node], threads: Iterable[int],
             inclusive: bool) -> Dict[int, int]:
        """Latest index per thread that happens before some anchor (one
        or more), read off the anchors' rows.

        On an anchor's own thread the bound is the anchor itself when
        ``inclusive``, else the event just before it.  Threads with no
        such event are left out.
        """
        rows = []
        for node in anchors:
            row = self.row(node)
            if not inclusive:
                row = row.copy()
                row[node[0]] -= 1
            rows.append(row)
        bounds = rows[0] if len(rows) == 1 else list(map(max, *rows))
        return {thread: bounds[thread] for thread in threads
                if bounds[thread] >= 0}


def lock_graph(trace: Trace) -> Dict[object, Dict[object, List[Tuple[Event, Event]]]]:
    """Build the lock-acquisition graph used by deadlock prediction.

    ``graph[l1][l2]`` lists pairs ``(outer_acquire, inner_acquire)`` where a
    thread acquired ``l2`` while holding ``l1``.
    """
    graph: Dict[object, Dict[object, List[Tuple[Event, Event]]]] = defaultdict(
        lambda: defaultdict(list)
    )
    held: Dict[int, List[Event]] = defaultdict(list)
    for event in trace:
        if event.kind is EventKind.ACQUIRE:
            for outer in held[event.thread]:
                graph[outer.variable][event.variable].append((outer, event))
            held[event.thread].append(event)
        elif event.kind is EventKind.RELEASE:
            held[event.thread] = [
                acquire for acquire in held[event.thread]
                if acquire.variable != event.variable
            ]
    return graph
