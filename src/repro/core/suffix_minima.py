"""The dynamic suffix-minima problem (Section 3.1 of the paper).

A suffix-minima structure maintains an array ``A`` of values in
``N ∪ {∞}`` under point updates and answers two queries:

* ``suffix_min(i)`` -- ``min(A[i:])``
* ``argleq(v)``     -- the largest index ``i`` with ``A[i] <= v``

CSSTs reduce dynamic reachability on chain DAGs to a collection of these
arrays (one per ordered pair of chains).  This module defines the common
interface plus a deliberately naive reference implementation that the tests
and hypothesis properties use as an oracle.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

from repro.core.interface import INF
from repro.errors import InvalidNodeError

Value = float  # int or float("inf")

#: Integer "empty entry" sentinel of the ``*_int`` fast-path methods.
#: Strictly larger than any event index the analyses can produce, and
#: safely summable without overflow surprises.
INT_INF = 1 << 60


class SuffixMinima(abc.ABC):
    """Interface of a dynamic suffix-minima array.

    Indices run from ``0`` to ``capacity - 1``.  Implementations may grow
    their capacity automatically when an update targets a larger index.
    Empty entries hold the value :data:`~repro.core.interface.INF`.
    """

    @property
    @abc.abstractmethod
    def capacity(self) -> int:
        """Current capacity (one past the largest representable index)."""

    @property
    @abc.abstractmethod
    def density(self) -> int:
        """Number of non-empty (non-infinite) entries currently stored."""

    @abc.abstractmethod
    def update(self, index: int, value: Value) -> None:
        """Set ``A[index] = value``.  ``value = INF`` clears the entry."""

    @abc.abstractmethod
    def get(self, index: int) -> Value:
        """Return ``A[index]`` (``INF`` when the entry is empty)."""

    @abc.abstractmethod
    def suffix_min(self, index: int) -> Value:
        """Return ``min(A[index:])`` (``INF`` when the suffix is empty)."""

    @abc.abstractmethod
    def argleq(self, value: Value) -> Optional[int]:
        """Return the largest index ``i`` with ``A[i] <= value``.

        Returns ``None`` when no entry is ``<= value``.
        """

    # Integer fast-path API: ``INT_INF`` for an empty entry, ``-1`` for "no
    # index".  The CSST kernels call only these.  The defaults translate
    # to the methods above; array-backed structures override them.
    def update_int(self, index: int, value: int) -> None:
        """Set ``A[index] = value`` (:data:`INT_INF` clears the entry)."""
        self.update(index, INF if value >= INT_INF else value)

    def suffix_min_int(self, index: int) -> int:
        """``min(A[index:])``, :data:`INT_INF` when the suffix is empty."""
        value = self.suffix_min(index)
        return INT_INF if value == INF else value

    def argleq_int(self, value: int) -> int:
        """Largest index ``i`` with ``A[i] <= value``, ``-1`` when none."""
        index = self.argleq(value)
        return -1 if index is None else index

    def clear(self, index: int) -> None:
        """Remove the entry at ``index`` (equivalent to ``update(index, INF)``)."""
        self.update(index, INF)

    def items(self) -> List[tuple]:
        """Return the non-empty entries as ``(index, value)`` pairs.

        The default implementation scans the whole array; subclasses with a
        sparse representation override it.
        """
        return [
            (i, self.get(i)) for i in range(self.capacity) if self.get(i) != INF
        ]

    # Convenience for debugging / tests.
    def to_list(self) -> List[Value]:
        """Materialise the represented array as a Python list."""
        return [self.get(i) for i in range(self.capacity)]

    @staticmethod
    def _check_index(index: int) -> None:
        if index < 0:
            raise InvalidNodeError(f"negative index {index}")


class NaiveSuffixMinima(SuffixMinima):
    """Reference implementation backed by a plain dict.

    Every operation is linear in the capacity or density; it exists purely
    as an oracle for tests (hypothesis compares the segment-tree
    implementations against it) and as executable documentation of the
    expected semantics.
    """

    def __init__(self, capacity: int = 1) -> None:
        if capacity < 1:
            raise InvalidNodeError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._entries: Dict[int, Value] = {}

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def density(self) -> int:
        return len(self._entries)

    def update(self, index: int, value: Value) -> None:
        self._check_index(index)
        if index >= self._capacity:
            self._capacity = index + 1
        if value == INF:
            self._entries.pop(index, None)
        else:
            self._entries[index] = value

    def get(self, index: int) -> Value:
        self._check_index(index)
        return self._entries.get(index, INF)

    def suffix_min(self, index: int) -> Value:
        self._check_index(index)
        candidates = [v for i, v in self._entries.items() if i >= index]
        return min(candidates) if candidates else INF

    def argleq(self, value: Value) -> Optional[int]:
        candidates = [i for i, v in self._entries.items() if v <= value]
        return max(candidates) if candidates else None

    def items(self) -> List[tuple]:
        return sorted(self._entries.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NaiveSuffixMinima(capacity={self._capacity}, density={self.density})"
