"""Common interface for dynamic partial-order (chain DAG) backends.

The paper (Section 2.2) defines the *dynamic reachability* problem on chain
DAGs: a DAG whose nodes are pairs ``(chain, index)`` where every chain is
totally ordered by program order, plus arbitrary cross-chain edges that may
be inserted and (for fully dynamic structures) deleted.  Five operations are
supported:

* ``insert_edge(u, v)``     -- insert a cross-chain edge ``u -> v``
* ``delete_edge(u, v)``     -- delete a previously inserted edge
* ``reachable(u, v)``       -- is there a path ``u ->* v``?
* ``successor(u, chain)``   -- earliest node of ``chain`` reachable from ``u``
* ``predecessor(u, chain)`` -- latest node of ``chain`` that reaches ``u``

``frontier(u, direction)`` answers one of the last two for every chain at
once.  Answers are plain ints: a ``successor`` that finds no node is
:data:`NO_SUCCESSOR`, a ``predecessor`` that finds none is ``-1``, so
``u ->* (t, i)`` iff ``successor(u, t) <= i`` and ``(t, i) ->* u`` iff
``i <= predecessor(u, t)`` hold without a special case.

Every backend in :mod:`repro.core` (CSSTs, incremental CSSTs, Segment Trees,
Vector Clocks, plain graphs) implements this interface, which is what makes
CSSTs a drop-in replacement inside the dynamic analyses of
:mod:`repro.analyses`.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Tuple

from repro.errors import InvalidEdgeError, InvalidNodeError

#: A node of the chain DAG: ``(chain id, index within the chain)``.
Node = Tuple[int, int]

#: The paper's infinity: the ``successor`` answer when no node of the
#: chain is reachable, and the value of an empty suffix-minima entry.
#: Larger than any event index.
NO_SUCCESSOR = 1 << 60


class PartialOrder(abc.ABC):
    """Abstract base class for dynamic partial-order backends.

    Concrete subclasses maintain a chain DAG over ``num_chains`` chains.
    Nodes are created implicitly: any pair ``(chain, index)`` with
    ``0 <= chain < num_chains`` and ``index >= 0`` is a valid node, and
    program order ``(t, i) -> (t, i + 1)`` is always implied.

    Parameters
    ----------
    num_chains:
        Number of totally ordered chains (``k`` in the paper).  For most
        analyses this is the number of threads of the analysed trace.
    capacity_hint:
        Optional upper bound on the number of events per chain (``n / k``).
        Backends that pre-allocate (dense segment trees, vector clocks) use
        it to size their arrays; sparse backends only use it to seed their
        root ranges and grow automatically beyond it.
    """

    #: Whether :meth:`delete_edge` is supported by this backend.
    supports_deletion: bool = False

    def __init__(self, num_chains: int, capacity_hint: int = 1024) -> None:
        if num_chains < 1:
            raise InvalidNodeError(f"num_chains must be >= 1, got {num_chains}")
        if capacity_hint < 1:
            raise InvalidNodeError(f"capacity_hint must be >= 1, got {capacity_hint}")
        self._num_chains = int(num_chains)
        self._capacity_hint = int(capacity_hint)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_chains(self) -> int:
        """Number of chains ``k`` of the maintained chain DAG."""
        return self._num_chains

    @property
    def capacity_hint(self) -> int:
        """The per-chain capacity hint supplied at construction."""
        return self._capacity_hint

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def insert_edge(self, source: Node, target: Node) -> None:
        """Insert the cross-chain edge ``source -> target``.

        Raises
        ------
        InvalidEdgeError
            If ``source`` and ``target`` belong to the same chain.
        """

    def delete_edge(self, source: Node, target: Node) -> None:
        """Delete a previously inserted cross-chain edge.

        Backends that cannot handle decremental updates raise
        :class:`~repro.errors.UnsupportedOperationError`.
        """
        from repro.errors import UnsupportedOperationError

        raise UnsupportedOperationError(
            f"{type(self).__name__} does not support edge deletion"
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def successor(self, node: Node, chain: int) -> int:
        """Return the index of the earliest node of ``chain`` reachable from
        ``node``, or :data:`NO_SUCCESSOR` if no node of ``chain`` is
        reachable.

        If ``chain`` equals the chain of ``node`` the answer is the node's
        own index (every node reaches itself reflexively).

        Raises
        ------
        InvalidNodeError
            If ``node`` or ``chain`` is out of range.
        """

    @abc.abstractmethod
    def predecessor(self, node: Node, chain: int) -> int:
        """Return the index of the latest node of ``chain`` that reaches
        ``node``, or ``-1`` if no node of ``chain`` reaches it.

        Raises
        ------
        InvalidNodeError
            If ``node`` or ``chain`` is out of range.
        """

    def frontier(self, node: Node, direction: str) -> List[int]:
        """Every chain's frontier of ``node`` in one call.

        ``direction`` is ``"predecessor"`` or ``"successor"``: entry ``t``
        of the returned list is ``predecessor(node, t)`` or
        ``successor(node, t)``, so the entry of the node's own chain is its
        index.  This loops over the chains; backends that hold a node's
        predecessors in one place (a vector clock, a closure sweep)
        override that direction.  The caller owns the returned list.
        """
        self._check_node(node)
        if direction == "predecessor":
            query = self.predecessor
        elif direction == "successor":
            query = self.successor
        else:
            raise ValueError(f"unknown frontier direction {direction!r}")
        return [query(node, chain) for chain in range(self._num_chains)]

    def reachable(self, source: Node, target: Node) -> bool:
        """Return ``True`` iff ``source ->* target`` in the chain DAG."""
        t1, j1 = source
        t2, j2 = target
        self._check_node(source)
        self._check_node(target)
        if t1 == t2:
            return j1 <= j2
        return self.successor(source, t2) <= j2

    def ordered(self, a: Node, b: Node) -> bool:
        """Return ``True`` iff ``a`` and ``b`` are ordered either way."""
        return self.reachable(a, b) or self.reachable(b, a)

    def concurrent(self, a: Node, b: Node) -> bool:
        """Return ``True`` iff ``a`` and ``b`` are unordered (concurrent)."""
        return not self.ordered(a, b)

    # ------------------------------------------------------------------ #
    # Batch APIs
    # ------------------------------------------------------------------ #
    # The per-operation methods dominate analysis code, but batch-oriented
    # callers (the benchmark kernels, bulk loaders) go through these so that
    # wrappers can count a batch at once.  Both loop over the per-operation
    # methods; only :class:`~repro.core.instrumented.InstrumentedOrder`
    # overrides them.
    def insert_many(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """Insert every edge of ``edges`` (batch update API)."""
        for source, target in edges:
            self.insert_edge(source, target)

    def query_many(self, pairs: Iterable[Tuple[Node, Node]]) -> List[bool]:
        """Answer ``reachable(source, target)`` for every pair (batch
        query API); results come back in input order."""
        return [self.reachable(source, target) for source, target in pairs]

    # ------------------------------------------------------------------ #
    # Validation helpers shared by subclasses
    # ------------------------------------------------------------------ #
    def _check_node(self, node: Node) -> None:
        chain, index = node
        if not (0 <= chain < self._num_chains):
            raise InvalidNodeError(
                f"chain {chain} out of range [0, {self._num_chains})"
            )
        if index < 0:
            raise InvalidNodeError(f"negative index {index} in node {node}")

    def _check_query(self, node: Node, chain: int) -> None:
        """Validate the arguments of ``successor``/``predecessor``."""
        self._check_node(node)
        if not 0 <= chain < self._num_chains:
            raise InvalidNodeError(
                f"chain {chain} out of range [0, {self._num_chains})"
            )

    def _check_edge(self, source: Node, target: Node) -> None:
        self._check_node(source)
        self._check_node(target)
        if source[0] == target[0]:
            raise InvalidEdgeError(
                f"edges must cross chains; both endpoints of {source} -> {target} "
                f"are in chain {source[0]}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_chains={self._num_chains})"
