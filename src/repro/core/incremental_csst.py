"""Incremental Collective Sparse Segment Trees (Algorithm 3 of the paper).

Many dynamic analyses only ever *insert* orderings.  The incremental CSST
exploits this by storing *transitive* reachability in its suffix-minima
arrays: every insertion eagerly closes the order, after which every query
is a single suffix-minima operation (``O(min(log n, d))`` per query,
Theorem 2).

Closing the order after ``(t1, j1) -> (t2, j2)`` touches, for every source
chain, the latest node that reaches ``(t1, j1)`` and, for every target
chain, the first node ``(t2, j2)`` reaches.  The insert reads that target
*frontier* once (``k`` lookups), then skips every source chain whose node
already reaches ``(t2, j2)``: by transitivity it already reaches the whole
frontier.  Only the remaining rows are compared against the frontier, so
an insert costs ``O(k)`` lookups plus ``k`` per row that actually changes.
The all-pairs sweep of the paper, ``O(k^2 min(log n, d))`` per update, is
the worst case, reached when every row changes.

Crucially, the density of each array never exceeds the cross-chain density
``d`` of the underlying chain DAG (Lemma 7): transitive entries are only
ever written at source indices that already have an outgoing cross-chain
edge, so the sparse representation keeps paying off.

Departure from the paper: staircases instead of SSTs
----------------------------------------------------
The paper stores each closed array ``A[t1][t2]`` in a Sparse Segment Tree.
Here the default array is a *staircase* (:class:`_Staircase`), which keeps
only the entries no other entry dominates.  An entry ``(p, x)`` is
dominated when some ``(p', x')`` has ``p' >= p`` and ``x' <= x``.  Both
queries stay exact without it: ``suffix_min(i)`` for ``i <= p`` also sees
the smaller ``x'`` at ``p' >= i``, and ``argleq(v)`` for ``v >= x`` also
finds the later ``p'``.  The closure is what makes dropping it final: a
node reaches everything a later node of its chain reaches, so the first
node of ``t2`` that ``(t1, p)`` reaches never decreases with ``p``.  That
function is the array's ``suffix_min``, the insert writes only where an
entry lowers it, and no entry is ever raised or cleared, so a dominated
entry stays dominated.  What is left is increasing in both
coordinates: two sorted int lists, where each query is one ``bisect`` and
each update one slice assignment, inside C instead of a Python tree walk.

Lemma 7's density bound still holds, because the stored entries are a
subset of the SST's.  The fully dynamic :class:`~repro.core.csst.CSST`
stores direct edges, whose arrays are not monotone, so it keeps the SST;
the ``st`` baseline passes dense segment trees through ``array_factory``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

from repro.core.csst import ArrayFactory, ChainMatrixOrder
from repro.core.interface import NO_SUCCESSOR, Node
from repro.core.suffix_minima import SuffixMinima


class _Staircase(SuffixMinima):
    """The non-dominated entries of a closed array, as two sorted lists.

    ``positions`` and ``values`` are both strictly increasing, between a
    leading ``(-1, -1)`` and a trailing ``(NO_SUCCESSOR, NO_SUCCESSOR)``
    sentinel, so every query is one ``bisect`` and one list read.

    The contract is insert-only, as :meth:`IncrementalCSST.insert_edge`
    uses it: :meth:`update` is only called where ``suffix_min(index) >
    value``, with ``0 <= value < NO_SUCCESSOR``.  It is not a general
    suffix-minima array: it cannot raise or clear an entry, and ``get`` and
    ``items`` report only the entries that no later, smaller entry
    dominates.
    """

    __slots__ = ("_positions", "_values", "_capacity")

    def __init__(self, capacity: int = 1) -> None:
        self._positions = [-1, NO_SUCCESSOR]
        self._values = [-1, NO_SUCCESSOR]
        self._capacity = capacity

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def density(self) -> int:
        return len(self._positions) - 2

    def update(self, index: int, value: int) -> None:
        # The new entry dominates every entry at or before ``index`` whose
        # value is at least ``value``: the tail of that prefix, since the
        # values increase.  Nothing after ``index`` dominates it, because
        # ``suffix_min(index) > value``.
        if index < 0:
            self._reject_index(index)
        if index >= self._capacity:
            self._capacity = index + 1
        positions = self._positions
        values = self._values
        end = bisect_right(positions, index)
        start = bisect_left(values, value, 0, end)
        positions[start:end] = (index,)
        values[start:end] = (value,)

    def get(self, index: int) -> int:
        if index < 0:
            self._reject_index(index)
        slot = bisect_left(self._positions, index)
        return (self._values[slot] if self._positions[slot] == index
                else NO_SUCCESSOR)

    def suffix_min(self, index: int) -> int:
        if index < 0:
            self._reject_index(index)
        return self._values[bisect_left(self._positions, index)]

    def argleq(self, value: int) -> int:
        if value >= NO_SUCCESSOR:
            return self._positions[-2]
        return self._positions[bisect_right(self._values, value) - 1]

    def items(self) -> List[Tuple[int, int]]:
        return list(zip(self._positions[1:-1], self._values[1:-1]))


class IncrementalCSST(ChainMatrixOrder):
    """Insert-only CSST with eagerly maintained transitive closure.

    Edge deletion is not supported; use :class:`~repro.core.csst.CSST` for
    fully dynamic workloads.  The arrays are staircases (see the module
    docstring) unless ``array_factory`` builds others; the parameters are
    those of :class:`~repro.core.csst.ChainMatrixOrder`.
    """

    supports_deletion = False

    def __init__(self, num_chains: int, capacity_hint: int = 1024, *,
                 array_factory: Optional[ArrayFactory] = None) -> None:
        super().__init__(num_chains, capacity_hint,
                         array_factory or _Staircase)
        self._edge_count = 0

    # ------------------------------------------------------------------ #
    # Queries (straight suffix-minima lookups)
    # ------------------------------------------------------------------ #
    def reachable(self, source: Node, target: Node) -> bool:
        # A reachability query is a single suffix-minima lookup on the
        # transitively closed array (Algorithm 3, line 5).
        t1, j1 = source
        t2, j2 = target
        num_chains = self._num_chains
        if not (0 <= t1 < num_chains and 0 <= t2 < num_chains
                and j1 >= 0 and j2 >= 0):
            self._check_node(source)
            self._check_node(target)
        if t1 == t2:
            return j1 <= j2
        array = self._arrays[t1 * num_chains + t2]
        return array is not None and array.suffix_min(j1) <= j2

    def successor(self, node: Node, chain: int) -> int:
        self._check_query(node, chain)
        t1, j1 = node
        if chain == t1:
            return j1
        array = self._arrays[t1 * self._num_chains + chain]
        return NO_SUCCESSOR if array is None else array.suffix_min(j1)

    def predecessor(self, node: Node, chain: int) -> int:
        self._check_query(node, chain)
        t1, j1 = node
        if chain == t1:
            return j1
        array = self._arrays[chain * self._num_chains + t1]
        return -1 if array is None else array.argleq(j1)

    def frontier(self, node: Node, direction: str) -> List[int]:
        """The predecessor frontier is ``k`` lookups, one per chain, behind
        one node check: the node's column of the transitively closed
        matrix."""
        if direction != "predecessor":
            return super().frontier(node, direction)
        self._check_node(node)
        t1, j1 = node
        num_chains = self._num_chains
        arrays = self._arrays
        frontier = [-1] * num_chains
        for chain in range(num_chains):
            array = arrays[chain * num_chains + t1]
            if array is not None:
                frontier[chain] = array.argleq(j1)
        frontier[t1] = j1
        return frontier

    # ------------------------------------------------------------------ #
    # Updates (Algorithm 3, arrays addressed directly)
    # ------------------------------------------------------------------ #
    def insert_edge(self, source: Node, target: Node) -> None:
        """Insert ``source -> target`` and close the order transitively.

        The caller is responsible for acyclicity: inserting an edge whose
        target already reaches its source would create a cycle, which chain
        DAGs (and the analyses built on them) never do.
        """
        self._check_edge(source, target)
        (t1, j1), (t2, j2) = source, target
        self._edge_count += 1
        num_chains = self._num_chains
        arrays = self._arrays
        # The target frontier: per chain, the first node (t2, j2) reaches.
        # It stays exact for the whole insert because row t2 is never
        # updated: a source node on chain t2 reaches (t1, j1), so it is at
        # or before j2 (anything else is a cycle) and is skipped below.
        frontier: List[Tuple[int, int]] = []
        row = t2 * num_chains
        for target_chain in range(num_chains):
            if target_chain == t2:
                frontier.append((t2, j2))
            else:
                array = arrays[row + target_chain]
                if array is not None:
                    target_index = array.suffix_min(j2)
                    if target_index < NO_SUCCESSOR:
                        frontier.append((target_chain, target_index))
        for source_chain in range(num_chains):
            row = source_chain * num_chains
            if source_chain == t1:
                source_index = j1
            else:
                array = arrays[row + t1]
                source_index = array.argleq(j1) if array is not None else -1
                if source_index < 0:
                    continue
            # A source node that already reaches (t2, j2) already reaches
            # every node of the frontier (the arrays are transitively
            # closed), so its row needs no update.
            if source_chain == t2:
                if source_index <= j2:
                    continue
            else:
                array = arrays[row + t2]
                if (array is not None
                        and array.suffix_min(source_index) <= j2):
                    continue
            for target_chain, target_index in frontier:
                if target_chain == source_chain:
                    continue
                current_array = arrays[row + target_chain]
                if current_array is None:
                    self._array(source_chain, target_chain).update(
                        source_index, target_index)
                elif current_array.suffix_min(source_index) > target_index:
                    current_array.update(source_index, target_index)

    @property
    def edge_count(self) -> int:
        """Number of ``insert_edge`` calls performed so far."""
        return self._edge_count
