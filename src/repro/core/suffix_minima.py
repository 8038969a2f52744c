"""The dynamic suffix-minima problem (Section 3.1 of the paper).

A suffix-minima structure maintains an array ``A`` of values in
``N ∪ {∞}`` (``∞`` is :data:`~repro.core.interface.NO_SUCCESSOR`) under
point updates and answers two queries:

* ``suffix_min(i)`` -- ``min(A[i:])``
* ``argleq(v)``     -- the largest index ``i`` with ``A[i] <= v``

CSSTs reduce dynamic reachability on chain DAGs to a collection of these
arrays (one per ordered pair of chains).  This module defines the common
interface plus a deliberately naive reference implementation that the tests
and hypothesis properties use as an oracle.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Tuple

from repro.core.interface import NO_SUCCESSOR
from repro.errors import InvalidNodeError


class SuffixMinima(abc.ABC):
    """Interface of a dynamic suffix-minima array over ints.

    Indices run from ``0`` to ``capacity - 1``.  Implementations may grow
    their capacity automatically when an update targets a larger index.
    An empty entry holds :data:`~repro.core.interface.NO_SUCCESSOR`, the
    paper's ``∞``; ``-1`` means "no index".  A negative index raises
    :class:`~repro.errors.InvalidNodeError` and leaves the array unchanged.
    """

    @property
    @abc.abstractmethod
    def capacity(self) -> int:
        """Current capacity (one past the largest representable index)."""

    @property
    @abc.abstractmethod
    def density(self) -> int:
        """Number of non-empty entries currently stored."""

    @abc.abstractmethod
    def update(self, index: int, value: int) -> None:
        """Set ``A[index] = value``; ``NO_SUCCESSOR`` clears the entry."""

    @abc.abstractmethod
    def get(self, index: int) -> int:
        """Return ``A[index]`` (``NO_SUCCESSOR`` when the entry is empty)."""

    @abc.abstractmethod
    def suffix_min(self, index: int) -> int:
        """Return ``min(A[index:])`` (``NO_SUCCESSOR`` when the suffix is
        empty)."""

    @abc.abstractmethod
    def argleq(self, value: int) -> int:
        """Return the largest index ``i`` with ``A[i] <= value``, or ``-1``
        when no entry is ``<= value``."""

    @abc.abstractmethod
    def items(self) -> List[Tuple[int, int]]:
        """Return the non-empty entries as sorted ``(index, value)`` pairs."""

    @staticmethod
    def _reject_index(index: int) -> None:
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
        self._entries: Dict[int, int] = {}

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def density(self) -> int:
        return len(self._entries)

    def update(self, index: int, value: int) -> None:
        if index < 0:
            self._reject_index(index)
        if index >= self._capacity:
            self._capacity = index + 1
        if value == NO_SUCCESSOR:
            self._entries.pop(index, None)
        else:
            self._entries[index] = value

    def get(self, index: int) -> int:
        if index < 0:
            self._reject_index(index)
        return self._entries.get(index, NO_SUCCESSOR)

    def suffix_min(self, index: int) -> int:
        if index < 0:
            self._reject_index(index)
        candidates = [v for i, v in self._entries.items() if i >= index]
        return min(candidates) if candidates else NO_SUCCESSOR

    def argleq(self, value: int) -> int:
        candidates = [i for i, v in self._entries.items() if v <= value]
        return max(candidates) if candidates else -1

    def items(self) -> List[Tuple[int, int]]:
        return sorted(self._entries.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NaiveSuffixMinima(capacity={self._capacity}, density={self.density})"
