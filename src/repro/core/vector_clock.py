"""Vector Clock representation of a partial order (the "VCs" baseline).

Vector Clocks [28] summarise the whole backward set of an event as an array
of ``k`` integers: ``clock(e)[t]`` is the largest index of chain ``t`` whose
node happens-before (or equals) ``e``.  Reachability queries are therefore a
single array lookup.  The price is paid on insertion: a new ordering
``e1 -> e2`` must be propagated to *every* successor of ``e2`` -- the whole
remaining suffix of ``e2``'s chain and, transitively, the events reachable
through previously inserted cross edges -- which costs ``O(n k)`` time in
the worst case.  This is exactly the bottleneck CSSTs remove for
non-streaming analyses (Section 1 of the paper).

The implementation keeps one clock **per event** (events are materialised
lazily, up to the largest index the analysis has touched in each chain, so
memory is ``O(n k)`` like the original), packed into one int list per
chain, and includes the propagation optimization described in Section 5.1
of the paper: propagation along a chain stops as soon as joining a clock
no longer changes it.

Edge deletion is not supported (there is no efficient way to "un-join"
vector clocks), matching the paper's characterisation of the structure.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.interface import NO_SUCCESSOR, Node, PartialOrder


class VectorClockOrder(PartialOrder):
    """The ``vc-flat`` backend: one vector clock per event, packed per chain.

    The clocks of a chain are packed into a single flat int list: event
    ``j``'s clock occupies the slice ``[j * k, (j + 1) * k)``.
    Materialising an event is one ``list.extend`` of the predecessor's
    slice, and joins walk the flat buffer with offset arithmetic.
    """

    supports_deletion = False

    def __init__(self, num_chains: int, capacity_hint: int = 1024) -> None:
        super().__init__(num_chains, capacity_hint)
        #: Flat clock buffer per chain; event j occupies [j*k, (j+1)*k).
        self._clocks: List[List[int]] = [[] for _ in range(num_chains)]
        self._lengths: List[int] = [0] * num_chains
        # Cross-chain adjacency, needed to propagate joins transitively.
        self._out_edges: Dict[Node, List[Node]] = {}
        self._edge_count = 0

    # ------------------------------------------------------------------ #
    # Clock materialisation and access
    # ------------------------------------------------------------------ #
    def _ensure(self, chain: int, index: int) -> None:
        """Materialise clocks for ``chain`` up to ``index`` inclusive."""
        length = self._lengths[chain]
        if length > index:
            return
        num_chains = self._num_chains
        clocks = self._clocks[chain]
        extend = clocks.extend
        while length <= index:
            if length == 0:
                extend([-1] * num_chains)
            else:
                offset = (length - 1) * num_chains
                extend(clocks[offset:offset + num_chains])
            clocks[length * num_chains + chain] = length
            length += 1
        self._lengths[chain] = length

    def clock_of(self, node: Node) -> List[int]:
        """Return a copy of the vector clock of ``node``."""
        self._check_node(node)
        chain, index = node
        self._ensure(chain, index)
        offset = index * self._num_chains
        return self._clocks[chain][offset:offset + self._num_chains]

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def insert_edge(self, source: Node, target: Node) -> None:
        self._check_edge(source, target)
        (t1, j1), (t2, j2) = source, target
        self._ensure(t1, j1)
        self._ensure(t2, j2)
        self._out_edges.setdefault(source, []).append(target)
        self._edge_count += 1
        num_chains = self._num_chains
        offset = j1 * num_chains
        if self._join(t2, j2, self._clocks[t1][offset:offset + num_chains]):
            self._propagate(t2, j2)

    def _join(self, chain: int, index: int, incoming: List[int]) -> bool:
        """Join ``incoming`` (a materialised k-slice) into the clock of
        ``(chain, index)``; return whether anything changed.

        Taking the source as a pre-sliced list lets the propagation walk
        slice each source clock once and reuse it across every join it
        feeds, which is what makes this layout faster than per-event lists.
        """
        clocks = self._clocks[chain]
        slot = index * self._num_chains
        changed = False
        for value in incoming:
            if value > clocks[slot]:
                clocks[slot] = value
                changed = True
            slot += 1
        return changed

    def _propagate(self, chain: int, index: int) -> None:
        """Push the updated clock of ``(chain, index)`` to its successors,
        stopping along each chain as soon as a join is a no-op."""
        num_chains = self._num_chains
        worklist: List[Node] = [(chain, index)]
        out_edges = self._out_edges
        clocks_by_chain = self._clocks
        lengths = self._lengths
        join = self._join
        while worklist:
            t, j = worklist.pop()
            buffer = clocks_by_chain[t]
            length = lengths[t]
            offset = j * num_chains
            # The clock of (t, j) cannot change while this item is walked
            # (suffix joins write positions > j, cross joins write other
            # chains), so one slice serves the whole walk.
            source = buffer[offset:offset + num_chains]
            position = j + 1
            while position < length:
                slot = position * num_chains
                changed = False
                for value in source:
                    if value > buffer[slot]:
                        buffer[slot] = value
                        changed = True
                    slot += 1
                if not changed:
                    break
                targets = out_edges.get((t, position))
                if targets:
                    position_offset = position * num_chains
                    updated = buffer[position_offset:position_offset + num_chains]
                    for target in targets:
                        if join(target[0], target[1], updated):
                            worklist.append(target)
                position += 1
            for target in out_edges.get((t, j), ()):
                if join(target[0], target[1], source):
                    worklist.append(target)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def reachable(self, source: Node, target: Node) -> bool:
        t1, j1 = source
        t2, j2 = target
        num_chains = self._num_chains
        if not (0 <= t1 < num_chains and 0 <= t2 < num_chains
                and j1 >= 0 and j2 >= 0):
            self._check_node(source)
            self._check_node(target)
        if t1 == t2:
            return j1 <= j2
        clocks = self._clocks[t2]
        length = self._lengths[t2]
        if j2 < length:
            return clocks[j2 * num_chains + t1] >= j1
        # Events past the materialised frontier have no incoming cross
        # edges yet; they inherit the frontier clock.
        return length > 0 and clocks[(length - 1) * num_chains + t1] >= j1

    def successor(self, node: Node, chain: int) -> int:
        self._check_query(node, chain)
        t1, j1 = node
        if chain == t1:
            return j1
        clocks = self._clocks[chain]
        num_chains = self._num_chains
        # clock[j][t1] is non-decreasing in j: binary search the first event
        # of the chain whose backward set contains (t1, j1).
        low, high, answer = 0, self._lengths[chain] - 1, NO_SUCCESSOR
        while low <= high:
            mid = (low + high) // 2
            if clocks[mid * num_chains + t1] >= j1:
                answer = mid
                high = mid - 1
            else:
                low = mid + 1
        return answer

    def predecessor(self, node: Node, chain: int) -> int:
        self._check_query(node, chain)
        t1, j1 = node
        if chain == t1:
            return j1
        length = self._lengths[t1]
        if length == 0:
            return -1
        # An unreached chain entry of a clock is -1 already.
        index = min(j1, length - 1)
        return self._clocks[t1][index * self._num_chains + chain]

    def frontier(self, node: Node, direction: str) -> List[int]:
        """The predecessor frontier is the node's clock, one slice."""
        if direction != "predecessor":
            return super().frontier(node, direction)
        t1, j1 = node
        num_chains = self._num_chains
        if not (0 <= t1 < num_chains and j1 >= 0):
            self._check_node(node)
        length = self._lengths[t1]
        if length == 0:
            clock = [-1] * num_chains
        else:
            offset = min(j1, length - 1) * num_chains
            clock = self._clocks[t1][offset:offset + num_chains]
        clock[t1] = j1
        return clock

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def edge_count(self) -> int:
        """Number of ``insert_edge`` calls performed so far."""
        return self._edge_count

    @property
    def materialised_clocks(self) -> int:
        """Number of stored clocks (memory is this value times ``k``)."""
        return sum(self._lengths)

    @property
    def total_entries(self) -> int:
        """Total number of stored integers across all clocks."""
        return sum(len(buffer) for buffer in self._clocks)
