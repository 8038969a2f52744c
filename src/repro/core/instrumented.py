"""Operation-counting wrapper around any partial-order backend.

The analyses report, alongside wall-clock time, how many update and query
operations they issued against the partial order.  This wrapper makes that
bookkeeping independent of the backend and keeps the analyses themselves
free of counting code.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.core.interface import Node, PartialOrder


class InstrumentedOrder(PartialOrder):
    """Delegating partial order that counts every operation performed."""

    def __init__(self, delegate: PartialOrder) -> None:
        super().__init__(delegate.num_chains, delegate.capacity_hint)
        self._delegate = delegate
        self.insert_count = 0
        self.delete_count = 0
        self.query_count = 0

    @property
    def supports_deletion(self) -> bool:  # type: ignore[override]
        return self._delegate.supports_deletion

    @property
    def delegate(self) -> PartialOrder:
        """The wrapped backend."""
        return self._delegate

    @property
    def operation_count(self) -> int:
        """Total number of operations issued so far."""
        return self.insert_count + self.delete_count + self.query_count

    # ------------------------------------------------------------------ #
    # Delegation
    # ------------------------------------------------------------------ #
    def insert_edge(self, source: Node, target: Node) -> None:
        self.insert_count += 1
        self._delegate.insert_edge(source, target)

    def delete_edge(self, source: Node, target: Node) -> None:
        self.delete_count += 1
        self._delegate.delete_edge(source, target)

    def reachable(self, source: Node, target: Node) -> bool:
        self.query_count += 1
        return self._delegate.reachable(source, target)

    def successor(self, node: Node, chain: int) -> int:
        self.query_count += 1
        return self._delegate.successor(node, chain)

    def predecessor(self, node: Node, chain: int) -> int:
        self.query_count += 1
        return self._delegate.predecessor(node, chain)

    def frontier(self, node: Node, direction: str) -> List[int]:
        # One call answers every chain and counts as one query.
        self.query_count += 1
        return self._delegate.frontier(node, direction)

    def insert_many(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        edges = list(edges)
        self.insert_count += len(edges)
        self._delegate.insert_many(edges)

    def query_many(self, pairs: Iterable[Tuple[Node, Node]]) -> List[bool]:
        pairs = list(pairs)
        self.query_count += len(pairs)
        return self._delegate.query_many(pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InstrumentedOrder({self._delegate!r}, inserts={self.insert_count}, "
            f"deletes={self.delete_count}, queries={self.query_count})"
        )
