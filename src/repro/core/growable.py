"""A chain-count-growable wrapper around the partial-order backends.

Every backend in :mod:`repro.core` fixes its number of chains at
construction, which is fine for batch analyses (the trace is complete, so
the thread count is known) but not for *streaming* use: a live event feed
may introduce a new thread at any point.  :class:`GrowableOrder` wraps a
named backend and keeps an append-only log of the cross-chain edges inserted
so far; when an operation names a chain beyond the current range, it
rebuilds the delegate with a doubled chain count and replays the log.

Replaying preserves reachability exactly (the edge set is identical and
insertion order is kept), so queries issued after a growth step answer the
same as if the final chain count had been known up front.  Growth is
amortised: chains double, so a stream that ends up with ``k`` threads pays
at most ``log2(k)`` rebuilds.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.factory import make_partial_order
from repro.core.interface import Node, PartialOrder


class GrowableOrder(PartialOrder):
    """Partial order over a chain DAG whose chain count grows on demand.

    Parameters
    ----------
    kind:
        Backend name understood by :func:`repro.core.make_partial_order`.
    num_chains:
        Initial chain count (grown automatically when exceeded).
    capacity_hint:
        Per-chain capacity hint forwarded to the delegate.
    kwargs:
        Extra keyword arguments forwarded to the delegate constructor.
    """

    def __init__(self, kind: str, num_chains: int = 1,
                 capacity_hint: int = 1024, **kwargs) -> None:
        super().__init__(num_chains, capacity_hint)
        self._kind = kind
        self._kwargs = kwargs
        self._edges: List[Tuple[Node, Node]] = []
        self._delegate = make_partial_order(kind, num_chains,
                                            capacity_hint, **kwargs)
        self.rebuild_count = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> str:
        """The delegate backend's factory name."""
        return self._kind

    @property
    def delegate(self) -> PartialOrder:
        """The current delegate backend (replaced on growth)."""
        return self._delegate

    @property
    def supports_deletion(self) -> bool:  # type: ignore[override]
        return self._delegate.supports_deletion

    @property
    def edge_count(self) -> int:
        """Number of live cross-chain edges."""
        return len(self._edges)

    # ------------------------------------------------------------------ #
    # Growth
    # ------------------------------------------------------------------ #
    def ensure_chain(self, chain: int) -> None:
        """Grow the delegate so that ``chain`` is a valid chain id."""
        if chain < self._num_chains:
            return
        new_chains = max(self._num_chains, 1)
        while new_chains <= chain:
            new_chains *= 2
        delegate = make_partial_order(self._kind, new_chains,
                                      self._capacity_hint, **self._kwargs)
        for source, target in self._edges:
            delegate.insert_edge(source, target)
        self._delegate = delegate
        self._num_chains = new_chains
        self.rebuild_count += 1

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def insert_edge(self, source: Node, target: Node) -> None:
        self.ensure_chain(max(source[0], target[0]))
        self._delegate.insert_edge(source, target)
        self._edges.append((source, target))

    def delete_edge(self, source: Node, target: Node) -> None:
        self._delegate.delete_edge(source, target)
        # Keep the replay log consistent: drop the most recent matching
        # occurrence (single reverse scan, log order preserved throughout).
        for position in range(len(self._edges) - 1, -1, -1):
            if self._edges[position] == (source, target):
                del self._edges[position]
                break

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def successor(self, node: Node, chain: int) -> int:
        self.ensure_chain(max(node[0], chain))
        return self._delegate.successor(node, chain)

    def predecessor(self, node: Node, chain: int) -> int:
        self.ensure_chain(max(node[0], chain))
        return self._delegate.predecessor(node, chain)

    def frontier(self, node: Node, direction: str) -> List[int]:
        self.ensure_chain(node[0])
        return self._delegate.frontier(node, direction)

    def reachable(self, source: Node, target: Node) -> bool:
        self.ensure_chain(max(source[0], target[0]))
        return self._delegate.reachable(source, target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GrowableOrder({self._kind!r}, num_chains={self._num_chains}, "
                f"edges={len(self._edges)})")
