"""Sparse Segment Trees (SSTs) -- Section 3.2 of the paper.

An SST solves the dynamic suffix-minima problem like a classic segment tree
but with three optimizations:

* **Minima indexing.**  Every tree node stores a single array entry
  ``(pos, min)`` where ``pos`` is the largest index holding the minimum
  value of the node's range *after excluding the entries stored in its
  ancestors* (Eq. 2 in the paper).  Because suffix queries ask for
  ``min(A[i:])``, a traversal can stop as soon as it finds a node whose
  ``pos`` is inside the queried suffix.

* **Sparse representation.**  Empty (infinite) array entries are never
  represented: a node exists only because some non-empty entry had to be
  pushed into it.  Consequently the height of the tree is bounded by
  ``min(log n, d)`` where ``d`` is the number of non-empty entries
  (Lemma 1), and so is the cost of every operation.

* **Block nodes.**  Subtrees whose range is at most ``block_size`` are
  flattened into small dictionaries that are scanned directly, which keeps
  densely populated but localised regions compact (Figure 7).

Representation
--------------
The tree is stored as a structure of arrays: node ``n`` is the ``n``-th
entry of six parallel int lists (``start``, ``end``, ``pos``, ``min``,
``left``, ``right``) plus a ``block`` list holding either ``None``
(regular node) or the block dictionary.  ``-1`` encodes a missing child,
and removed nodes are pushed on a free list and recycled, so the structure
stops allocating once it reaches its working-set size.  Empty entries are
the integer sentinel :data:`~repro.core.interface.NO_SUCCESSOR`, so every
comparison is int-vs-int.  All traversals are iterative, so no Python
frame is created per tree level.

The paper's pseudocode attaches freshly created nodes at the *lowest common
ancestor* range of the new entry and the displaced subtree.  We instead
always give children their canonical half range.  This keeps insertion and
deletion purely local (no LCA computation, no re-parenting) while preserving
both bounds of Lemma 1: every node on a root-to-leaf path still stores a
distinct non-empty entry (height <= d) and ranges still halve at every level
(height <= log n).  The resulting structure supports the same operations
with the same asymptotic costs, and additionally supports *removing* entries
(needed by fully dynamic CSSTs when an edge deletion empties a heap).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.interface import NO_SUCCESSOR
from repro.core.suffix_minima import SuffixMinima
from repro.errors import InvalidNodeError

#: Default block-size threshold ``b``; the paper selects 32 via a stress test.
DEFAULT_BLOCK_SIZE = 32

#: Missing child / missing node marker in the parallel arrays.
_NIL = -1


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power *= 2
    return power


class SparseSegmentTree(SuffixMinima):
    """Dynamic suffix minima with the sparse/minima-indexed representation.

    Parameters
    ----------
    capacity:
        Initial capacity hint (rounded up to a power of two).  The tree
        grows automatically when an update targets a larger index.
    block_size:
        Threshold ``b`` below which subtrees are flattened to blocks.
        ``0`` disables block nodes entirely (useful for ablations).
    minima_indexing:
        When ``False`` the suffix-minima early exit is disabled and queries
        always descend to the bottom of the tree (ablation switch; the
        answers are unaffected).
    """

    __slots__ = (
        "_capacity", "_block_size", "_minima_indexing", "_root", "_density",
        "_start", "_end", "_pos", "_min", "_left", "_right", "_block",
        "_free",
    )

    def __init__(self, capacity: int = 1, block_size: int = DEFAULT_BLOCK_SIZE,
                 minima_indexing: bool = True) -> None:
        if capacity < 1:
            raise InvalidNodeError(f"capacity must be >= 1, got {capacity}")
        if block_size < 0:
            raise InvalidNodeError(f"block_size must be >= 0, got {block_size}")
        self._capacity = _next_power_of_two(capacity)
        self._block_size = int(block_size)
        self._minima_indexing = bool(minima_indexing)
        self._root = _NIL
        self._density = 0
        # Parallel node arrays; slot n is one tree node.
        self._start: List[int] = []
        self._end: List[int] = []
        self._pos: List[int] = []
        self._min: List[int] = []
        self._left: List[int] = []
        self._right: List[int] = []
        self._block: List[Optional[Dict[int, int]]] = []
        self._free: List[int] = []

    # ------------------------------------------------------------------ #
    # SuffixMinima interface
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def density(self) -> int:
        return self._density

    @property
    def block_size(self) -> int:
        """The block-size threshold ``b`` used by this tree."""
        return self._block_size

    def items(self) -> List[Tuple[int, int]]:
        return sorted(self._entries())

    def update(self, index: int, value: int) -> None:
        if not 0 <= index < self._capacity:
            if index < 0:
                self._reject_index(index)
            self._grow(index + 1)
        current = self.get(index)
        if current == value:
            return
        if current != NO_SUCCESSOR:
            self._remove_entry(index)
            self._density -= 1
        if value != NO_SUCCESSOR:
            self._insert(index, value)
            self._density += 1

    def get(self, index: int) -> int:
        if not 0 <= index < self._capacity:
            if index < 0:
                self._reject_index(index)
            return NO_SUCCESSOR
        pos_a = self._pos
        min_a = self._min
        block_a = self._block
        mid_base = self._start
        end_a = self._end
        left_a = self._left
        right_a = self._right
        node = self._root
        while node != _NIL:
            blk = block_a[node]
            if blk is not None:
                return blk.get(index, NO_SUCCESSOR)
            if pos_a[node] == index:
                return min_a[node]
            start = mid_base[node]
            mid = start + (end_a[node] - start) // 2
            node = left_a[node] if index <= mid else right_a[node]
        return NO_SUCCESSOR

    def suffix_min(self, index: int) -> int:
        if index < 0:
            self._reject_index(index)
        node = self._root
        if node == _NIL:
            return NO_SUCCESSOR
        start_a = self._start
        end_a = self._end
        if index > end_a[node]:
            return NO_SUCCESSOR
        pos_a = self._pos
        min_a = self._min
        left_a = self._left
        right_a = self._right
        block_a = self._block
        minima_indexing = self._minima_indexing
        # One root-to-leaf walk towards ``index``: a right child wholly
        # inside the suffix contributes its entry, which is its subtree
        # minimum, and is never entered.
        best = NO_SUCCESSOR
        while node != _NIL:
            blk = block_a[node]
            if blk is not None:
                if pos_a[node] >= index:
                    candidate = min_a[node]
                else:
                    candidate = NO_SUCCESSOR
                    for pos, value in blk.items():
                        if pos >= index and value < candidate:
                            candidate = value
                return candidate if candidate < best else best
            node_min = min_a[node]
            if minima_indexing:
                # Minima-indexing early exit: the subtree cannot beat
                # ``best``, or its minimum already lies in the suffix.
                if node_min >= best:
                    return best
                if pos_a[node] >= index:
                    return node_min
            elif pos_a[node] >= index and node_min < best:
                best = node_min
            start = start_a[node]
            if index <= start + (end_a[node] - start) // 2:
                right = right_a[node]
                if right != _NIL and min_a[right] < best:
                    best = min_a[right]
                node = left_a[node]
            else:
                node = right_a[node]
        return best

    def argleq(self, value: int) -> int:
        pos_a = self._pos
        min_a = self._min
        left_a = self._left
        right_a = self._right
        block_a = self._block
        node = self._root
        best = -1
        while node != _NIL:
            if min_a[node] > value:
                break
            blk = block_a[node]
            if blk is not None:
                for pos, entry in blk.items():
                    if entry <= value and pos > best:
                        best = pos
                break
            if pos_a[node] > best:
                best = pos_a[node]
            right = right_a[node]
            if right != _NIL and min_a[right] <= value:
                # Any qualifying index on the right beats every left index.
                node = right
            else:
                node = left_a[node]
        return best

    # ------------------------------------------------------------------ #
    # Structural introspection (Lemma 1 checks in tests)
    # ------------------------------------------------------------------ #
    @property
    def height(self) -> int:
        """Nodes on the longest root-to-leaf path (0 when empty)."""
        if self._root == _NIL:
            return 0
        left_a, right_a = self._left, self._right
        best = 0
        stack = [(self._root, 1)]
        while stack:
            node, depth = stack.pop()
            if depth > best:
                best = depth
            left = left_a[node]
            if left != _NIL:
                stack.append((left, depth + 1))
            right = right_a[node]
            if right != _NIL:
                stack.append((right, depth + 1))
        return best

    @property
    def node_count(self) -> int:
        """Live tree nodes (block nodes count as one)."""
        if self._root == _NIL:
            return 0
        left_a, right_a = self._left, self._right
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if left_a[node] != _NIL:
                stack.append(left_a[node])
            if right_a[node] != _NIL:
                stack.append(right_a[node])
        return count

    @property
    def allocated_slots(self) -> int:
        """Total node slots ever allocated (live plus free-listed)."""
        return len(self._start)

    # ------------------------------------------------------------------ #
    # Node allocation
    # ------------------------------------------------------------------ #
    def _alloc(self, start: int, end: int, pos: int, value: int) -> int:
        is_block = self._block_size > 0 and (end - start + 1) <= self._block_size
        free = self._free
        if free:
            node = free.pop()
            self._start[node] = start
            self._end[node] = end
            self._pos[node] = pos
            self._min[node] = value
            self._left[node] = _NIL
            self._right[node] = _NIL
            self._block[node] = {pos: value} if is_block else None
            return node
        node = len(self._start)
        self._start.append(start)
        self._end.append(end)
        self._pos.append(pos)
        self._min.append(value)
        self._left.append(_NIL)
        self._right.append(_NIL)
        self._block.append({pos: value} if is_block else None)
        return node

    # ------------------------------------------------------------------ #
    # Insertion (push-down: the better entry stays, the other descends)
    # ------------------------------------------------------------------ #
    def _insert(self, pos: int, value: int) -> None:
        if self._root == _NIL:
            self._root = self._alloc(0, self._capacity - 1, pos, value)
            return
        start_a = self._start
        end_a = self._end
        pos_a = self._pos
        min_a = self._min
        left_a = self._left
        right_a = self._right
        block_a = self._block
        node = self._root
        while True:
            blk = block_a[node]
            if blk is not None:
                blk[pos] = value
                node_min = min_a[node]
                if value < node_min or (value == node_min and pos > pos_a[node]):
                    pos_a[node] = pos
                    min_a[node] = value
                return
            node_min = min_a[node]
            node_pos = pos_a[node]
            if value < node_min or (value == node_min and pos > node_pos):
                # Swap the incoming entry with the node's entry; the
                # displaced entry keeps descending.
                pos_a[node] = pos
                min_a[node] = value
                pos, value = node_pos, node_min
            start = start_a[node]
            mid = start + (end_a[node] - start) // 2
            if pos <= mid:
                child = left_a[node]
                if child == _NIL:
                    left_a[node] = self._alloc(start, mid, pos, value)
                    return
            else:
                child = right_a[node]
                if child == _NIL:
                    right_a[node] = self._alloc(mid + 1, end_a[node], pos, value)
                    return
            node = child

    # ------------------------------------------------------------------ #
    # Removal (iterative descent plus pull-up cascade)
    # ------------------------------------------------------------------ #
    def _remove_entry(self, pos: int) -> None:
        """Remove the entry at ``pos`` (the caller guarantees presence)."""
        start_a = self._start
        end_a = self._end
        pos_a = self._pos
        left_a = self._left
        right_a = self._right
        block_a = self._block
        node = self._root
        parent = _NIL
        from_left = False
        while True:
            blk = block_a[node]
            if blk is not None:
                blk.pop(pos, None)
                if not blk:
                    self._detach(parent, from_left, node)
                else:
                    self._refresh_block(node)
                return
            if pos_a[node] == pos:
                break
            start = start_a[node]
            mid = start + (end_a[node] - start) // 2
            parent = node
            from_left = pos <= mid
            node = left_a[node] if from_left else right_a[node]
        self._pull_up(node, parent, from_left)

    def _pull_up(self, node: int, parent: int, from_left: bool) -> None:
        """Refill ``node`` with the best entry of its children, cascading."""
        pos_a = self._pos
        min_a = self._min
        left_a = self._left
        right_a = self._right
        block_a = self._block
        while True:
            left = left_a[node]
            right = right_a[node]
            best = left
            best_is_left = True
            if right != _NIL and (
                best == _NIL
                or min_a[right] < min_a[best]
                or (min_a[right] == min_a[best] and pos_a[right] > pos_a[best])
            ):
                best = right
                best_is_left = False
            if best == _NIL:
                self._detach(parent, from_left, node)
                return
            best_pos = pos_a[best]
            pos_a[node] = best_pos
            min_a[node] = min_a[best]
            blk = block_a[best]
            if blk is not None:
                del blk[best_pos]
                if not blk:
                    self._detach(node, best_is_left, best)
                else:
                    self._refresh_block(best)
                return
            parent = node
            from_left = best_is_left
            node = best

    def _detach(self, parent: int, from_left: bool, node: int) -> None:
        if parent == _NIL:
            self._root = _NIL
        elif from_left:
            self._left[parent] = _NIL
        else:
            self._right[parent] = _NIL
        self._block[node] = None  # release the dict before recycling
        self._free.append(node)

    def _refresh_block(self, node: int) -> None:
        """Recompute the mirrored ``(pos, min)`` of a block node."""
        best_pos = -1
        best_value = NO_SUCCESSOR
        for pos, value in self._block[node].items():
            if value < best_value or (value == best_value and pos > best_pos):
                best_pos, best_value = pos, value
        self._pos[node] = best_pos
        self._min[node] = best_value

    # ------------------------------------------------------------------ #
    # Growth
    # ------------------------------------------------------------------ #
    def _grow(self, minimum_capacity: int) -> None:
        new_capacity = self._capacity
        while new_capacity < minimum_capacity:
            new_capacity *= 2
        entries = self._entries()
        self._capacity = new_capacity
        self._root = _NIL
        self._density = 0
        del self._start[:]
        del self._end[:]
        del self._pos[:]
        del self._min[:]
        del self._left[:]
        del self._right[:]
        del self._block[:]
        del self._free[:]
        for pos, value in entries:
            self._insert(pos, value)
            self._density += 1

    # ------------------------------------------------------------------ #
    # Traversal helpers
    # ------------------------------------------------------------------ #
    def _entries(self) -> List[Tuple[int, int]]:
        if self._root == _NIL:
            return []
        left_a, right_a, block_a = self._left, self._right, self._block
        out: List[Tuple[int, int]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            blk = block_a[node]
            if blk is not None:
                out.extend(blk.items())
                continue
            out.append((self._pos[node], self._min[node]))
            if left_a[node] != _NIL:
                stack.append(left_a[node])
            if right_a[node] != _NIL:
                stack.append(right_a[node])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparseSegmentTree(capacity={self._capacity}, "
            f"density={self._density}, slots={len(self._start)})"
        )
