"""Sparse Segment Trees (SSTs) -- Section 3.2 of the paper.

An SST solves the dynamic suffix-minima problem like a classic segment tree
but with two key optimizations:

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

Implementation note
-------------------
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

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.interface import INF
from repro.core.suffix_minima import SuffixMinima, Value
from repro.errors import InvalidNodeError

#: Default block-size threshold ``b``; the paper selects 32 via a stress test.
DEFAULT_BLOCK_SIZE = 32


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power *= 2
    return power


def _better(value_a: Value, pos_a: int, value_b: Value, pos_b: int) -> bool:
    """Entry ordering used throughout the tree.

    Entry A is "better" than entry B when it has a strictly smaller value,
    or an equal value at a larger index (Eq. 2 picks the *largest* index
    among the minima so that suffix queries can stop as early as possible).
    """
    return value_a < value_b or (value_a == value_b and pos_a > pos_b)


class _Node:
    """A node of the sparse segment tree.

    Regular nodes store exactly one array entry ``(pos, min)`` plus optional
    children covering the canonical halves of their range.  Block nodes
    (``block is not None``) store a small dictionary of entries instead of
    children; their ``(pos, min)`` mirrors the best entry of the block.
    """

    __slots__ = ("start", "end", "pos", "min", "left", "right", "block")

    def __init__(self, start: int, end: int, pos: int, value: Value,
                 is_block: bool) -> None:
        self.start = start
        self.end = end
        self.pos = pos
        self.min = value
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.block: Optional[Dict[int, Value]] = {pos: value} if is_block else None

    @property
    def mid(self) -> int:
        return self.start + (self.end - self.start) // 2

    def refresh_block_best(self) -> None:
        """Recompute ``(pos, min)`` from the block dictionary."""
        best_pos = -1
        best_value = INF
        for pos, value in self.block.items():
            if _better(value, pos, best_value, best_pos):
                best_pos, best_value = pos, value
        self.pos = best_pos
        self.min = best_value


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

    def __init__(self, capacity: int = 1, block_size: int = DEFAULT_BLOCK_SIZE,
                 minima_indexing: bool = True) -> None:
        if capacity < 1:
            raise InvalidNodeError(f"capacity must be >= 1, got {capacity}")
        if block_size < 0:
            raise InvalidNodeError(f"block_size must be >= 0, got {block_size}")
        self._capacity = _next_power_of_two(capacity)
        self._block_size = int(block_size)
        self._minima_indexing = bool(minima_indexing)
        self._root: Optional[_Node] = None
        self._density = 0

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

    def update(self, index: int, value: Value) -> None:
        self._check_index(index)
        if index >= self._capacity:
            self._grow(index + 1)
        current = self.get(index)
        if current == value:
            return
        if current != INF:
            self._root = self._remove(self._root, index)
            self._density -= 1
        if value != INF:
            self._insert(index, value)
            self._density += 1

    def get(self, index: int) -> Value:
        self._check_index(index)
        if index >= self._capacity:
            return INF
        node = self._root
        while node is not None:
            if node.block is not None:
                return node.block.get(index, INF)
            if node.pos == index:
                return node.min
            node = node.left if index <= node.mid else node.right
        return INF

    def suffix_min(self, index: int) -> Value:
        self._check_index(index)
        node = self._root
        if node is None or index > node.end:
            return INF
        # One root-to-leaf walk towards ``index``.  Every node's entry is
        # the minimum of its subtree, so a right child lying wholly inside
        # the suffix contributes its own entry and is never entered.
        best = INF
        minima_indexing = self._minima_indexing
        while node is not None:
            block = node.block
            if block is not None:
                if node.pos >= index:
                    candidate = node.min
                else:
                    candidate = INF
                    for pos, value in block.items():
                        if pos >= index and value < candidate:
                            candidate = value
                return candidate if candidate < best else best
            node_min = node.min
            if minima_indexing:
                # Minima-indexing early exit: the subtree cannot beat
                # ``best``, or its minimum already lies in the suffix.
                if node_min >= best:
                    return best
                if node.pos >= index:
                    return node_min
            elif node.pos >= index and node_min < best:
                best = node_min
            start = node.start
            if index <= start + (node.end - start) // 2:
                right = node.right
                if right is not None and right.min < best:
                    best = right.min
                node = node.left
            else:
                node = node.right
        return best

    def argleq(self, value: Value) -> Optional[int]:
        node = self._root
        best = -1
        while node is not None:
            if node.min > value:
                break
            block = node.block
            if block is not None:
                for pos, entry in block.items():
                    if entry <= value and pos > best:
                        best = pos
                break
            if node.pos > best:
                best = node.pos
            right = node.right
            if right is not None and right.min <= value:
                # Any qualifying index in the right subtree beats every index
                # in the left subtree, so the left subtree can be skipped.
                node = right
            else:
                node = node.left
        return best if best >= 0 else None

    def items(self) -> List[Tuple[int, Value]]:
        return sorted(self._iter_entries(self._root))

    # ------------------------------------------------------------------ #
    # Structural introspection (used by tests for Lemma 1)
    # ------------------------------------------------------------------ #
    @property
    def height(self) -> int:
        """Number of nodes on the longest root-to-leaf path (0 when empty)."""
        return self._height(self._root)

    @property
    def node_count(self) -> int:
        """Total number of allocated tree nodes (block nodes count as one)."""
        return self._count(self._root)

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
    def _insert(self, pos: int, value: Value) -> None:
        if self._root is None:
            self._root = self._make_node(0, self._capacity - 1, pos, value)
            return
        node = self._root
        while True:
            if node.block is not None:
                node.block[pos] = value
                if _better(value, pos, node.min, node.pos):
                    node.pos, node.min = pos, value
                return
            if _better(value, pos, node.min, node.pos):
                node.pos, node.min, pos, value = pos, value, node.pos, node.min
            mid = node.mid
            if pos <= mid:
                if node.left is None:
                    node.left = self._make_node(node.start, mid, pos, value)
                    return
                node = node.left
            else:
                if node.right is None:
                    node.right = self._make_node(mid + 1, node.end, pos, value)
                    return
                node = node.right

    def _make_node(self, start: int, end: int, pos: int, value: Value) -> _Node:
        is_block = self._block_size > 0 and (end - start + 1) <= self._block_size
        return _Node(start, end, pos, value, is_block)

    # ------------------------------------------------------------------ #
    # Removal
    # ------------------------------------------------------------------ #
    def _remove(self, node: Optional[_Node], pos: int) -> Optional[_Node]:
        """Remove the entry at ``pos`` from the subtree rooted at ``node``.

        Returns the (possibly new) subtree root.  The caller guarantees the
        entry is present somewhere in the subtree.
        """
        if node is None:  # pragma: no cover - guarded by get() in update()
            return None
        if node.block is not None:
            node.block.pop(pos, None)
            if not node.block:
                return None
            node.refresh_block_best()
            return node
        if node.pos == pos:
            return self._pull_up(node)
        if pos <= node.mid:
            node.left = self._remove(node.left, pos)
        else:
            node.right = self._remove(node.right, pos)
        return node

    def _pull_up(self, node: _Node) -> Optional[_Node]:
        """Refill ``node`` with the best entry of its children, recursively."""
        left, right = node.left, node.right
        best_child = None
        if left is not None:
            best_child = left
        if right is not None and (
            best_child is None
            or _better(right.min, right.pos, best_child.min, best_child.pos)
        ):
            best_child = right
        if best_child is None:
            return None
        node.pos, node.min = best_child.pos, best_child.min
        replacement = self._remove(best_child, best_child.pos)
        if best_child is left:
            node.left = replacement
        else:
            node.right = replacement
        return node

    # ------------------------------------------------------------------ #
    # Growth
    # ------------------------------------------------------------------ #
    def _grow(self, minimum_capacity: int) -> None:
        new_capacity = self._capacity
        while new_capacity < minimum_capacity:
            new_capacity *= 2
        entries = list(self._iter_entries(self._root))
        self._capacity = new_capacity
        self._root = None
        self._density = 0
        for pos, value in entries:
            self._insert(pos, value)
            self._density += 1

    # ------------------------------------------------------------------ #
    # Traversal helpers
    # ------------------------------------------------------------------ #
    def _iter_entries(self, node: Optional[_Node]) -> Iterator[Tuple[int, Value]]:
        if node is None:
            return
        if node.block is not None:
            yield from node.block.items()
            return
        yield (node.pos, node.min)
        yield from self._iter_entries(node.left)
        yield from self._iter_entries(node.right)

    def _height(self, node: Optional[_Node]) -> int:
        if node is None:
            return 0
        return 1 + max(self._height(node.left), self._height(node.right))

    def _count(self, node: Optional[_Node]) -> int:
        if node is None:
            return 0
        return 1 + self._count(node.left) + self._count(node.right)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparseSegmentTree(capacity={self._capacity}, "
            f"density={self._density}, height={self.height})"
        )
