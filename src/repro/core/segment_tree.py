"""Dense Segment Trees for dynamic suffix minima (the "STs" baseline).

This is the classic, array-backed segment tree used by the M2 race
detector [31] and reproduced here as the ``STs`` baseline of the paper's
evaluation (Section 5.1).  Every operation runs in ``O(log n)`` time and the
structure always allocates ``O(n)`` space regardless of how sparse the
represented array is -- this is exactly the weakness that Sparse Segment
Trees (:mod:`repro.core.sparse_segment_tree`) address.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.interface import NO_SUCCESSOR
from repro.core.suffix_minima import SuffixMinima
from repro.errors import InvalidNodeError


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power *= 2
    return power


class SegmentTree(SuffixMinima):
    """Array-backed segment tree over a fixed-capacity array.

    The tree is stored implicitly in a flat list of ``2 * capacity`` slots:
    node ``i`` has children ``2i`` and ``2i + 1`` and the leaves occupy
    slots ``capacity .. 2 * capacity - 1``.  Each internal node stores the
    minimum of its subtree.  Empty entries hold
    :data:`~repro.core.interface.NO_SUCCESSOR`.

    The capacity grows automatically (by doubling and rebuilding the upper
    levels) when an update targets an index beyond the current capacity, so
    the structure can be used without knowing the trace length up front.
    """

    def __init__(self, capacity: int = 1) -> None:
        if capacity < 1:
            raise InvalidNodeError(f"capacity must be >= 1, got {capacity}")
        self._capacity = _next_power_of_two(capacity)
        self._tree: List[int] = [NO_SUCCESSOR] * (2 * self._capacity)
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

    def update(self, index: int, value: int) -> None:
        if not 0 <= index < self._capacity:
            if index < 0:
                self._reject_index(index)
            self._grow(index + 1)
        tree = self._tree
        leaf = self._capacity + index
        old = tree[leaf]
        if old == value:
            return
        if old == NO_SUCCESSOR:
            self._density += 1
        elif value == NO_SUCCESSOR:
            self._density -= 1
        tree[leaf] = value
        node = leaf // 2
        while node >= 1:
            new_min = min(tree[2 * node], tree[2 * node + 1])
            if tree[node] == new_min:
                break
            tree[node] = new_min
            node //= 2

    def get(self, index: int) -> int:
        if not 0 <= index < self._capacity:
            if index < 0:
                self._reject_index(index)
            return NO_SUCCESSOR
        return self._tree[self._capacity + index]

    def suffix_min(self, index: int) -> int:
        if not 0 <= index < self._capacity:
            if index < 0:
                self._reject_index(index)
            return NO_SUCCESSOR
        # Standard iterative range-minimum over [index, capacity).
        tree = self._tree
        result = NO_SUCCESSOR
        left = self._capacity + index
        right = 2 * self._capacity
        while left < right:
            if left & 1:
                if tree[left] < result:
                    result = tree[left]
                left += 1
            if right & 1:
                right -= 1
                if tree[right] < result:
                    result = tree[right]
            left //= 2
            right //= 2
        return result

    def argleq(self, value: int) -> int:
        tree = self._tree
        if tree[1] > value:
            return -1
        # Descend towards the right-most leaf whose value is <= value.
        node = 1
        while node < self._capacity:
            right = 2 * node + 1
            node = right if tree[right] <= value else 2 * node
        return node - self._capacity

    def items(self) -> List[Tuple[int, int]]:
        return [
            (i, self._tree[self._capacity + i])
            for i in range(self._capacity)
            if self._tree[self._capacity + i] != NO_SUCCESSOR
        ]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _grow(self, minimum_capacity: int) -> None:
        new_capacity = self._capacity
        while new_capacity < minimum_capacity:
            new_capacity *= 2
        new_tree: List[int] = [NO_SUCCESSOR] * (2 * new_capacity)
        # Copy the existing leaves and rebuild the internal levels.
        new_tree[new_capacity : new_capacity + self._capacity] = self._tree[
            self._capacity : 2 * self._capacity
        ]
        for node in range(new_capacity - 1, 0, -1):
            new_tree[node] = min(new_tree[2 * node], new_tree[2 * node + 1])
        self._capacity = new_capacity
        self._tree = new_tree

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentTree(capacity={self._capacity}, density={self._density})"
