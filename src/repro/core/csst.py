"""Fully dynamic Collective Sparse Segment Trees (Algorithm 2 of the paper).

Both CSST variants (and the dense Segment Tree baseline) maintain one
suffix-minima array ``A[t1][t2]`` for every ordered pair of distinct chains
``t1 != t2``.  :class:`ChainMatrixOrder` holds that ``k x k`` matrix as one
flat Python list indexed ``t1 * k + t2``, each array created on first
write, so the memory footprint tracks the chain pairs that actually
interact (Section 3.3, "Space usage").  The kernels call the arrays'
``suffix_min`` / ``argleq`` / ``update`` directly, on ints.

The fully dynamic variant supports both edge insertions and deletions.  Each
suffix-minima array ``A[t1][t2]`` stores only the *direct* edges from chain
``t1`` to chain ``t2`` (the earliest target per source node, Lemma 3); the
full multiset of targets per source node lives in a small deletable min-heap
so that deleting the current minimum can expose the next one.  Reachability
queries perform a Bellman-Ford-style closure over the ``k`` chains, which
costs ``O(k^3 min(log n, d))`` per query but keeps updates at
``O(max(log δ, min(log n, d)))`` (Theorem 1).  Closures run over list
buffers sized ``k``, and ``reachable`` exits the sweep the moment the
target chain's bound drops below the queried index (closure values only
ever decrease, so the early answer is final).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.heap import DeletableMinHeap
from repro.core.interface import NO_SUCCESSOR, Node, PartialOrder
from repro.core.sparse_segment_tree import DEFAULT_BLOCK_SIZE, SparseSegmentTree
from repro.core.suffix_minima import SuffixMinima
from repro.errors import InvalidEdgeError

#: A callable building a fresh suffix-minima array with the given capacity.
ArrayFactory = Callable[[int], SuffixMinima]


class ChainMatrixOrder(PartialOrder):
    """Base class managing the lazily populated matrix of suffix-minima arrays.

    Parameters
    ----------
    num_chains:
        Number of chains ``k`` of the maintained chain DAG.
    capacity_hint:
        Expected number of events per chain; arrays grow beyond it
        automatically.
    array_factory:
        Builds the per-chain-pair suffix-minima arrays.  Each subclass
        passes its default: :class:`CSST` sparse segment trees, the
        incremental CSST its staircases, the ``st`` baseline dense segment
        trees, and the test-suite the naive reference arrays.
    """

    def __init__(self, num_chains: int, capacity_hint: int,
                 array_factory: ArrayFactory) -> None:
        super().__init__(num_chains, capacity_hint)
        self._array_factory = array_factory
        self._arrays: List[Optional[SuffixMinima]] = (
            [None] * (num_chains * num_chains))

    def _array(self, source_chain: int, target_chain: int) -> SuffixMinima:
        """The array of orderings ``source_chain -> target_chain`` (created
        on first write)."""
        slot = source_chain * self._num_chains + target_chain
        array = self._arrays[slot]
        if array is None:
            array = self._array_factory(self._capacity_hint)
            self._arrays[slot] = array
        return array

    def _iter_arrays(self) -> Iterator[Tuple[Tuple[int, int], SuffixMinima]]:
        """The created arrays, keyed by ``(source_chain, target_chain)``."""
        num_chains = self._num_chains
        for slot, array in enumerate(self._arrays):
            if array is not None:
                yield divmod(slot, num_chains), array

    # ------------------------------------------------------------------ #
    # Introspection used by benchmarks and tests
    # ------------------------------------------------------------------ #
    @property
    def max_array_density(self) -> int:
        """Largest density among the suffix-minima arrays (paper's ``q`` is
        this value normalised by the chain length)."""
        return max((a.density for _pair, a in self._iter_arrays()), default=0)

    @property
    def total_entries(self) -> int:
        """Total number of non-empty entries across every array.

        This is the dominant memory term of the structure and the quantity
        compared against the ``O(n k)`` footprint of Vector Clocks."""
        return sum(a.density for _pair, a in self._iter_arrays())


class CSST(ChainMatrixOrder):
    """Fully dynamic CSST: insertions, deletions, and reachability queries.

    Direct edges per source node live in lazily deletable min-heaps.
    ``block_size`` is the block-node threshold of the default
    :class:`~repro.core.sparse_segment_tree.SparseSegmentTree` arrays; the
    other parameters are those of :class:`ChainMatrixOrder`.
    """

    supports_deletion = True

    def __init__(self, num_chains: int, capacity_hint: int = 1024, *,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 array_factory: Optional[ArrayFactory] = None) -> None:
        if array_factory is None:
            array_factory = partial(SparseSegmentTree, block_size=block_size)
        super().__init__(num_chains, capacity_hint, array_factory)
        # slot (t1 * k + t2) -> {j1: multiset of j2 targets}
        self._heaps: List[Optional[Dict[int, DeletableMinHeap]]] = (
            [None] * (num_chains * num_chains))

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def insert_edge(self, source: Node, target: Node) -> None:
        self._check_edge(source, target)
        (t1, j1), (t2, j2) = source, target
        slot = t1 * self._num_chains + t2
        per_pair = self._heaps[slot]
        if per_pair is None:
            per_pair = self._heaps[slot] = {}
        heap = per_pair.get(j1)
        if heap is None:
            heap = per_pair[j1] = DeletableMinHeap()
        if j2 < heap.min():
            self._array(t1, t2).update(j1, j2)
        heap.insert(j2)

    def delete_edge(self, source: Node, target: Node) -> None:
        self._check_edge(source, target)
        (t1, j1), (t2, j2) = source, target
        per_pair = self._heaps[t1 * self._num_chains + t2]
        heap = per_pair.get(j1) if per_pair else None
        if heap is None or j2 not in heap:
            raise InvalidEdgeError(f"edge {source} -> {target} is not present")
        if j2 == heap.min():
            heap.delete(j2)
            self._array(t1, t2).update(j1, heap.min())
        else:
            heap.delete(j2)

    # ------------------------------------------------------------------ #
    # Queries (Algorithm 2 closures over list buffers)
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
        arrays = self._arrays
        closure = [NO_SUCCESSOR] * num_chains
        row = t1 * num_chains
        seeded = False
        for chain in range(num_chains):
            if chain == t1:
                continue
            array = arrays[row + chain]
            if array is not None:
                value = array.suffix_min(j1)
                if value < NO_SUCCESSOR:
                    closure[chain] = value
                    seeded = True
        if closure[t2] <= j2:
            return True
        if not seeded:
            return False
        changed = True
        while changed:
            changed = False
            for via in range(num_chains):
                if via == t1:
                    continue
                bound = closure[via]
                if bound >= NO_SUCCESSOR:
                    continue
                via_row = via * num_chains
                for dest in range(num_chains):
                    if dest == via or dest == t1:
                        continue
                    array = arrays[via_row + dest]
                    if array is None:
                        continue
                    candidate = array.suffix_min(bound)
                    if candidate < closure[dest]:
                        # Closure values only decrease, so reaching the
                        # query bound is a final answer.
                        if dest == t2 and candidate <= j2:
                            return True
                        closure[dest] = candidate
                        changed = True
        return closure[t2] <= j2

    def successor(self, node: Node, chain: int) -> int:
        self._check_query(node, chain)
        t1, j1 = node
        if chain == t1:
            return j1
        return self._forward_closure(t1, j1)[chain]

    def predecessor(self, node: Node, chain: int) -> int:
        self._check_query(node, chain)
        t1, j1 = node
        if chain == t1:
            return j1
        return self._backward_closure(t1, j1)[chain]

    def frontier(self, node: Node, direction: str) -> List[int]:
        """One backward closure sweep answers every chain's predecessor."""
        if direction != "predecessor":
            return super().frontier(node, direction)
        self._check_node(node)
        t1, j1 = node
        frontier = self._backward_closure(t1, j1)
        frontier[t1] = j1
        return frontier

    # ------------------------------------------------------------------ #
    # Closure computations
    # ------------------------------------------------------------------ #
    def _forward_closure(self, t1: int, j1: int) -> List[int]:
        """Earliest reachable index per chain (``NO_SUCCESSOR`` = unreachable)."""
        num_chains = self._num_chains
        arrays = self._arrays
        closure = [NO_SUCCESSOR] * num_chains
        row = t1 * num_chains
        for chain in range(num_chains):
            if chain == t1:
                continue
            array = arrays[row + chain]
            if array is not None:
                closure[chain] = array.suffix_min(j1)
        changed = True
        while changed:
            changed = False
            for via in range(num_chains):
                if via == t1:
                    continue
                bound = closure[via]
                if bound >= NO_SUCCESSOR:
                    continue
                via_row = via * num_chains
                for dest in range(num_chains):
                    if dest == via or dest == t1:
                        continue
                    array = arrays[via_row + dest]
                    if array is None:
                        continue
                    candidate = array.suffix_min(bound)
                    if candidate < closure[dest]:
                        closure[dest] = candidate
                        changed = True
        return closure

    def _backward_closure(self, t1: int, j1: int) -> List[int]:
        """Latest index per chain that reaches ``(t1, j1)`` (``-1`` = none)."""
        num_chains = self._num_chains
        arrays = self._arrays
        closure = [-1] * num_chains
        for chain in range(num_chains):
            if chain == t1:
                continue
            array = arrays[chain * num_chains + t1]
            if array is not None:
                closure[chain] = array.argleq(j1)
        changed = True
        while changed:
            changed = False
            for via in range(num_chains):
                if via == t1:
                    continue
                bound = closure[via]
                if bound < 0:
                    continue
                for dest in range(num_chains):
                    if dest == via or dest == t1:
                        continue
                    array = arrays[dest * num_chains + via]
                    if array is None:
                        continue
                    candidate = array.argleq(bound)
                    if candidate > closure[dest]:
                        closure[dest] = candidate
                        changed = True
        return closure

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def edge_count(self) -> int:
        """Number of cross-chain edges currently stored."""
        return sum(
            len(heap)
            for per_pair in self._heaps if per_pair is not None
            for heap in per_pair.values()
        )
