"""A min-heap with lazy deletion of arbitrary values.

Fully dynamic CSSTs (Section 3.3) keep, for every node ``(t1, j1)`` and
every other chain ``t2``, the multiset of indices ``j2`` such that the edge
``(t1, j1) -> (t2, j2)`` is currently present.  The minimum of that multiset
is mirrored into the suffix-minima array ``A^{t2}_{t1}[j1]`` (Lemma 3 of the
paper).  Edge insertion pushes onto the heap, edge deletion removes an
arbitrary value.

Deleting arbitrary values from a binary heap is done lazily: deletions are
recorded in a counter and stale entries are discarded whenever the heap top
is inspected.  All operations are amortised ``O(log δ)`` where ``δ`` is the
number of live plus stale entries, matching the ``log δ`` term in Theorem 1.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Iterable, Iterator

from repro.core.interface import NO_SUCCESSOR
from repro.errors import ReproError


class DeletableMinHeap:
    """Min-heap of integers supporting ``insert``, ``delete`` and ``min``."""

    __slots__ = ("_heap", "_deleted", "_size")

    def __init__(self, values: Iterable[int] = ()) -> None:
        self._heap: list = list(values)
        heapq.heapify(self._heap)
        self._deleted: Counter = Counter()
        self._size = len(self._heap)

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, value: int) -> bool:
        live = self._heap.count(value) - self._deleted[value]
        return live > 0

    def __iter__(self) -> Iterator[int]:
        """Iterate over the live values (unordered, for tests/debugging)."""
        pending = Counter(self._deleted)
        for value in self._heap:
            if pending[value] > 0:
                pending[value] -= 1
            else:
                yield value

    def insert(self, value: int) -> None:
        """Insert ``value`` into the heap."""
        if self._deleted[value] > 0:
            # Re-inserting a value with a pending lazy deletion simply
            # cancels that deletion; the stale copy becomes live again.
            self._deleted[value] -= 1
            if self._deleted[value] == 0:
                del self._deleted[value]
        else:
            heapq.heappush(self._heap, value)
        self._size += 1

    def delete(self, value: int) -> None:
        """Delete one occurrence of ``value`` from the heap.

        Raises
        ------
        ReproError
            If ``value`` is not currently in the heap.
        """
        if value not in self:
            raise ReproError(f"value {value} not present in heap")
        self._deleted[value] += 1
        self._size -= 1
        self._compact()

    def min(self) -> int:
        """Return the smallest live value, or
        :data:`~repro.core.interface.NO_SUCCESSOR` if the heap is empty."""
        self._compact()
        if not self._heap:
            return NO_SUCCESSOR
        return self._heap[0]

    def pop_min(self) -> int:
        """Remove and return the smallest live value."""
        self._compact()
        if not self._heap:
            raise ReproError("pop from an empty heap")
        value = heapq.heappop(self._heap)
        self._size -= 1
        self._compact()
        return value

    def _compact(self) -> None:
        """Discard stale entries sitting at the top of the heap."""
        while self._heap and self._deleted.get(self._heap[0], 0) > 0:
            value = heapq.heappop(self._heap)
            self._deleted[value] -= 1
            if self._deleted[value] == 0:
                del self._deleted[value]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeletableMinHeap(size={self._size}, min={self.min() if self else None})"
