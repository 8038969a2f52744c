"""Plain graph representation of a partial order (the "Graphs" baseline).

This is the straightforward, transitively-unclosed adjacency representation
used by analyses that need decremental updates before CSSTs existed (e.g.
the linearizability root-causing analysis [12]).  Updates are ``O(1)`` but
every reachability query performs a graph traversal, which is ``O(n + m)``
in the worst case -- the cost the paper's Table 7 demonstrates.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.interface import NO_SUCCESSOR, Node, PartialOrder
from repro.errors import InvalidEdgeError


class GraphOrder(PartialOrder):
    """Adjacency-list chain DAG with DFS-based queries."""

    supports_deletion = True

    def __init__(self, num_chains: int, capacity_hint: int = 1024) -> None:
        super().__init__(num_chains, capacity_hint)
        self._out_edges: Dict[Node, Set[Node]] = {}
        self._in_edges: Dict[Node, Set[Node]] = {}
        # Highest index seen per chain; program-order traversal never needs
        # to walk past it because later nodes have no outgoing cross edges.
        self._max_index: List[int] = [-1] * num_chains
        self._edge_count = 0

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def insert_edge(self, source: Node, target: Node) -> None:
        self._check_edge(source, target)
        targets = self._out_edges.setdefault(source, set())
        if target in targets:
            # The adjacency representation is a set, so re-inserting an
            # existing edge is a no-op (matching the paper's precondition
            # that insertEdge is only called on absent edges).
            return
        targets.add(target)
        self._in_edges.setdefault(target, set()).add(source)
        self._max_index[source[0]] = max(self._max_index[source[0]], source[1])
        self._max_index[target[0]] = max(self._max_index[target[0]], target[1])
        self._edge_count += 1

    def delete_edge(self, source: Node, target: Node) -> None:
        self._check_edge(source, target)
        targets = self._out_edges.get(source)
        if not targets or target not in targets:
            raise InvalidEdgeError(f"edge {source} -> {target} is not present")
        targets.discard(target)
        self._in_edges[target].discard(source)
        self._edge_count -= 1

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def reachable(self, source: Node, target: Node) -> bool:
        self._check_node(source)
        self._check_node(target)
        t1, j1 = source
        t2, j2 = target
        if t1 == t2:
            return j1 <= j2
        stack: List[Node] = [source]
        visited: Set[Node] = set()
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            chain, index = node
            if chain == t2 and index <= j2:
                return True
            if index + 1 <= self._max_index[chain]:
                stack.append((chain, index + 1))
            stack.extend(self._out_edges.get(node, ()))
        return False

    def successor(self, node: Node, chain: int) -> int:
        self._check_query(node, chain)
        if chain == node[0]:
            return node[1]
        earliest = self._closure(node, forward=True)
        return earliest.get(chain, NO_SUCCESSOR)

    def predecessor(self, node: Node, chain: int) -> int:
        self._check_query(node, chain)
        if chain == node[0]:
            return node[1]
        latest = self._closure(node, forward=False)
        return latest.get(chain, -1)

    def frontier(self, node: Node, direction: str) -> List[int]:
        """One backward traversal answers every chain's predecessor."""
        if direction != "predecessor":
            return super().frontier(node, direction)
        self._check_node(node)
        latest = self._closure(node, forward=False)
        return [latest.get(chain, -1) for chain in range(self._num_chains)]

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def _closure(self, start: Node, forward: bool) -> Dict[int, int]:
        """Earliest (forward) or latest (backward) reachable index per chain."""
        stack: List[Node] = [start]
        visited: Set[Node] = set()
        best: Dict[int, int] = {}
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            chain, index = node
            current = best.get(chain)
            if current is None:
                best[chain] = index
            elif forward and index < current:
                best[chain] = index
            elif not forward and index > current:
                best[chain] = index
            if forward:
                if index + 1 <= self._max_index[chain]:
                    stack.append((chain, index + 1))
                stack.extend(self._out_edges.get(node, ()))
            else:
                if index - 1 >= 0:
                    stack.append((chain, index - 1))
                stack.extend(self._in_edges.get(node, ()))
        # The start node is reflexively reachable from itself.
        best[start[0]] = start[1]
        return best

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def edge_count(self) -> int:
        """Number of cross-chain edges currently present."""
        return self._edge_count

    @property
    def total_entries(self) -> int:
        """Number of stored adjacency entries (proxy for memory usage)."""
        return sum(len(v) for v in self._out_edges.values()) + sum(
            len(v) for v in self._in_edges.values()
        )
