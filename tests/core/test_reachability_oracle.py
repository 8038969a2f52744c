"""Every backend against a brute-force transitive-closure oracle.

The other cross-validation suites compare backends with each other (and
with ``GraphOrder``).  Here the reference shares no code with any backend:
a boolean reachability matrix over every node of a small chain DAG, closed
by Floyd-Warshall from scratch after every operation.  On random DAGs of at
most 5 chains and 8 events per chain, every registered backend must answer
``reachable``, ``successor`` and ``predecessor`` exactly as the matrix does
after every operation: inserts only for the incremental backends, inserts
and deletes for the fully dynamic ones.

The vector clocks are also checked entry by entry on the same DAGs:
``clock_of(node)[t]`` must be the latest index of chain ``t`` that
reaches ``node``.

A sparse-query suite runs the same operations but asks only a few random
queries in between, so state that backends build lazily (the vector
clocks materialise an event's clock on first touch) is read half-built
and extended later; after the last operation every answer must match.

A second suite draws wider DAGs (8 and 12 chains) up front and inserts
their edges in shuffled order, so inserts land between arbitrary nodes
rather than following a trace, and a later edge often joins two nodes
that earlier ones already ordered transitively (the rows the incremental
CSST's insert closure skips).  The vector clocks are checked entry by
entry on these DAGs too: there an insert often lands behind clocks that
are already materialised and must be propagated into them.

Every check also asks ``frontier(node, direction)``, each backend's
one-call answer for all chains, which must equal the per-chain answers.

The frontier memo the saturation analyses share (``hb.Frontiers``) is
checked on both families of DAGs as well: its inserts interleave with
``predecessor``/``successor``/``reaches`` questions, every frontier is
cached before the next insert, and every answer after it must match the
closure, so a frontier kept across an insert shows.  Its witness cone
(``Frontiers.cone``), read off one predecessor row per anchor, is
checked against the closure the same way, inclusive and exclusive.
"""

import random

import pytest

from repro.analyses.common.hb import Frontiers
from repro.core import (
    BACKENDS,
    NO_SUCCESSOR,
    VectorClockOrder,
    make_partial_order,
)
from repro.core.factory import incremental_backends

MAX_CHAINS = 5
MAX_EVENTS = 8
SEEDS = range(25)


class ClosureOracle:
    """Reachability by Floyd-Warshall over an explicit node set."""

    def __init__(self, num_chains, per_chain):
        self.num_chains = num_chains
        self.per_chain = per_chain
        self.nodes = [(chain, index) for chain in range(num_chains)
                      for index in range(per_chain)]
        self.edges = []
        self.reach = {}
        self.close()

    def close(self):
        nodes = self.nodes
        reach = {u: {v: u == v for v in nodes} for u in nodes}
        for chain, index in nodes:
            if index + 1 < self.per_chain:
                reach[(chain, index)][(chain, index + 1)] = True
        for source, target in self.edges:
            reach[source][target] = True
        for via in nodes:
            via_row = reach[via]
            for u in nodes:
                if reach[u][via]:
                    row = reach[u]
                    for v in nodes:
                        if via_row[v]:
                            row[v] = True
        self.reach = reach

    def successor(self, node, chain):
        found = [index for index in range(self.per_chain)
                 if self.reach[node][(chain, index)]]
        return min(found, default=NO_SUCCESSOR)

    def predecessor(self, node, chain):
        found = [index for index in range(self.per_chain)
                 if self.reach[(chain, index)][node]]
        return max(found, default=-1)


def _assert_agrees(order, oracle, context):
    for u in oracle.nodes:
        for v in oracle.nodes:
            assert order.reachable(u, v) == oracle.reach[u][v], \
                (context, "reachable", u, v)
        for chain in range(oracle.num_chains):
            assert order.successor(u, chain) == oracle.successor(u, chain), \
                (context, "successor", u, chain)
            assert order.predecessor(u, chain) == \
                oracle.predecessor(u, chain), (context, "predecessor", u, chain)
        for direction in ("predecessor", "successor"):
            expected = [getattr(oracle, direction)(u, chain)
                        for chain in range(oracle.num_chains)]
            assert order.frontier(u, direction) == expected, \
                (context, "frontier", direction, u)


def _draw_insert(rng, oracle):
    """A random cross-chain edge, or None when it would close a cycle or
    re-insert a live edge (graphs keep a set, CSSTs a multiset)."""
    num_chains, per_chain = oracle.num_chains, oracle.per_chain
    source = (rng.randrange(num_chains), rng.randrange(per_chain))
    target_chain = (source[0] + rng.randrange(1, num_chains)) % num_chains
    target = (target_chain, rng.randrange(per_chain))
    if oracle.reach[target][source] or (source, target) in oracle.edges:
        return None
    return source, target


def _random_operations(rng, order, oracle, steps, dynamic):
    """Apply up to ``steps`` random operations to ``order`` and ``oracle``
    alike, yielding ``(step, operation)`` after each one: inserts, plus
    deletes of live edges when ``dynamic``."""
    for step in range(steps):
        if dynamic and oracle.edges and rng.random() < 0.35:
            edge = oracle.edges.pop(rng.randrange(len(oracle.edges)))
            order.delete_edge(*edge)
            operation = ("delete", edge)
        else:
            edge = _draw_insert(rng, oracle)
            if edge is None:
                continue
            oracle.edges.append(edge)
            order.insert_edge(*edge)
            operation = ("insert", edge)
        oracle.close()
        yield step, operation


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_backend_matches_closure_oracle(backend, seed):
    rng = random.Random(seed)
    num_chains = rng.randint(2, MAX_CHAINS)
    per_chain = rng.randint(1, MAX_EVENTS)
    dynamic = BACKENDS[backend].supports_deletion
    # A small capacity hint makes every array grow during the run.
    order = make_partial_order(backend, num_chains, capacity_hint=2)
    oracle = ClosureOracle(num_chains, per_chain)
    _assert_agrees(order, oracle, (backend, seed, "empty"))
    for step, operation in _random_operations(rng, order, oracle,
                                              3 * per_chain, dynamic):
        _assert_agrees(order, oracle, (backend, seed, step, operation))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_sparse_queries_match_closure_oracle(backend, seed):
    """A few random queries between operations, then every query at the
    end: answers read from half-built lazy state must be exact, and so
    must the state built on top of it later."""
    rng = random.Random(seed)
    num_chains = rng.randint(2, MAX_CHAINS)
    per_chain = rng.randint(1, MAX_EVENTS)
    dynamic = BACKENDS[backend].supports_deletion
    order = make_partial_order(backend, num_chains, capacity_hint=2)
    oracle = ClosureOracle(num_chains, per_chain)
    for step, operation in _random_operations(rng, order, oracle,
                                              3 * per_chain, dynamic):
        context = (backend, seed, step, operation)
        for _query in range(3):
            u, v = rng.choice(oracle.nodes), rng.choice(oracle.nodes)
            chain = rng.randrange(num_chains)
            assert order.reachable(u, v) == oracle.reach[u][v], \
                (context, "reachable", u, v)
            assert order.successor(u, chain) == oracle.successor(u, chain), \
                (context, "successor", u, chain)
            assert order.predecessor(v, chain) == \
                oracle.predecessor(v, chain), (context, "predecessor", v, chain)
    _assert_agrees(order, oracle, (backend, seed, "final"))


def _assert_clocks_agree(order, oracle, context):
    for node in oracle.nodes:
        expected = [oracle.predecessor(node, chain)
                    for chain in range(oracle.num_chains)]
        clock = order.clock_of(node)
        assert clock == expected, (context, node)
        assert clock[node[0]] == node[1], (context, node)


@pytest.mark.parametrize("seed", SEEDS)
def test_vector_clocks_match_closure_oracle(seed):
    """``clock_of(node)[t]`` is the latest index of chain ``t`` reaching
    ``node`` (-1 when none does), on the DAGs of the oracle test above."""
    rng = random.Random(seed)
    num_chains = rng.randint(2, MAX_CHAINS)
    per_chain = rng.randint(1, MAX_EVENTS)
    order = VectorClockOrder(num_chains, capacity_hint=2)
    oracle = ClosureOracle(num_chains, per_chain)
    for step in range(3 * per_chain):
        edge = _draw_insert(rng, oracle)
        if edge is None:
            continue
        oracle.edges.append(edge)
        order.insert_edge(*edge)
        oracle.close()
        # Inserts materialise clocks only up to their endpoints.
        assert order.total_entries == \
            order.materialised_clocks * num_chains
        _assert_clocks_agree(order, oracle, (seed, step, edge))
        assert order.materialised_clocks == num_chains * per_chain
        assert order.total_entries == \
            order.materialised_clocks * num_chains


WIDE_SHAPES = [(8, 4), (12, 3)]
WIDE_SEEDS = range(8)


def _shuffled_dag_edges(num_chains, per_chain, seed):
    """``2 * num_chains`` cross-chain edges of one random acyclic DAG, in
    shuffled insertion order."""
    rng = random.Random(seed)
    # Edges only go forward in one random interleaving of the chains, so
    # the whole DAG is acyclic in every insertion order.
    schedule = [chain for chain in range(num_chains)
                for _index in range(per_chain)]
    rng.shuffle(schedule)
    position = {}
    seen = [0] * num_chains
    for step, chain in enumerate(schedule):
        position[(chain, seen[chain])] = step
        seen[chain] += 1
    nodes = sorted(position)
    edges = set()
    while len(edges) < 2 * num_chains:
        source, target = rng.sample(nodes, 2)
        if source[0] == target[0]:
            continue
        if position[source] > position[target]:
            source, target = target, source
        edges.add((source, target))
    edges = sorted(edges)
    rng.shuffle(edges)
    return edges


@pytest.mark.parametrize("seed", WIDE_SEEDS)
@pytest.mark.parametrize("num_chains,per_chain", WIDE_SHAPES)
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_shuffled_inserts_match_closure_oracle(backend, num_chains, per_chain,
                                               seed):
    edges = _shuffled_dag_edges(num_chains, per_chain, seed)
    order = make_partial_order(backend, num_chains, capacity_hint=2)
    oracle = ClosureOracle(num_chains, per_chain)
    for step, edge in enumerate(edges):
        order.insert_edge(*edge)
        oracle.edges.append(edge)
        oracle.close()
        _assert_agrees(order, oracle, (backend, seed, step, edge))


@pytest.mark.parametrize("seed", WIDE_SEEDS)
@pytest.mark.parametrize("num_chains,per_chain", WIDE_SHAPES)
def test_vector_clocks_match_closure_oracle_on_shuffled_inserts(
        num_chains, per_chain, seed):
    """Shuffled inserts often land behind clocks an earlier check already
    materialised; each join must still reach every clock it changes."""
    order = VectorClockOrder(num_chains, capacity_hint=2)
    oracle = ClosureOracle(num_chains, per_chain)
    for step, edge in enumerate(
            _shuffled_dag_edges(num_chains, per_chain, seed)):
        order.insert_edge(*edge)
        oracle.edges.append(edge)
        oracle.close()
        _assert_clocks_agree(order, oracle, (seed, step, edge))
        assert order.total_entries == \
            order.materialised_clocks * num_chains


#: The backends the saturation analyses run ``Frontiers`` over.
FRONTIER_BACKENDS = sorted(incremental_backends() + ("csst",))


def _assert_frontiers_agree(frontiers, oracle, context):
    """Every frontier and every ``reaches`` pair, as the closure says."""
    for u in oracle.nodes:
        for chain in range(oracle.num_chains):
            assert frontiers.predecessor(u, chain) == \
                oracle.predecessor(u, chain), (context, "predecessor", u, chain)
            assert frontiers.successor(u, chain) == \
                oracle.successor(u, chain), (context, "successor", u, chain)
        for v in oracle.nodes:
            assert frontiers.reaches(u, v) == oracle.reach[u][v], \
                (context, "reaches", u, v)


def _frontier_insert(frontiers, oracle, edge, context):
    """``Frontiers.insert`` of ``edge``: it goes in iff the closure does
    not already imply it, and the oracle follows."""
    implied = oracle.reach[edge[0]][edge[1]]
    assert frontiers.insert(*edge) == (not implied), (context, edge)
    if not implied:
        oracle.edges.append(edge)
        oracle.close()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("backend", FRONTIER_BACKENDS)
def test_frontier_memo_matches_closure_oracle(backend, seed):
    rng = random.Random(seed)
    num_chains = rng.randint(2, MAX_CHAINS)
    per_chain = rng.randint(1, MAX_EVENTS)
    frontiers = Frontiers(make_partial_order(backend, num_chains,
                                             capacity_hint=2))
    oracle = ClosureOracle(num_chains, per_chain)
    _assert_frontiers_agree(frontiers, oracle, (backend, seed, "empty"))
    for step in range(3 * per_chain):
        edge = _draw_insert(rng, oracle)
        if edge is None:
            continue
        _frontier_insert(frontiers, oracle, edge, (backend, seed, step))
        _assert_frontiers_agree(frontiers, oracle, (backend, seed, step, edge))


@pytest.mark.parametrize("seed", WIDE_SEEDS)
@pytest.mark.parametrize("num_chains,per_chain", WIDE_SHAPES)
@pytest.mark.parametrize("backend", FRONTIER_BACKENDS)
def test_frontier_memo_matches_closure_oracle_on_shuffled_inserts(
        backend, num_chains, per_chain, seed):
    """Shuffled inserts, each also offered a second time, when the memo
    must answer that it is implied."""
    frontiers = Frontiers(make_partial_order(backend, num_chains,
                                             capacity_hint=2))
    oracle = ClosureOracle(num_chains, per_chain)
    for step, edge in enumerate(
            _shuffled_dag_edges(num_chains, per_chain, seed)):
        context = (backend, seed, step, edge)
        _frontier_insert(frontiers, oracle, edge, context)
        assert not frontiers.insert(*edge), context
        _assert_frontiers_agree(frontiers, oracle, context)


def _oracle_cone(oracle, anchors, inclusive):
    """Per chain, the latest node that reaches some anchor (the anchor
    itself only when ``inclusive``), as the closure says."""
    cone = {}
    for node in oracle.nodes:
        if any(oracle.reach[node][anchor] and (inclusive or node != anchor)
               for anchor in anchors):
            chain, index = node
            cone[chain] = max(cone.get(chain, -1), index)
    return cone


def _assert_cones_agree(frontiers, oracle, rng, context):
    """Cones of every single node and of random sets of two and three
    anchors, inclusive and exclusive."""
    nodes = oracle.nodes
    anchor_sets = [(node,) for node in nodes]
    anchor_sets += [tuple(rng.sample(nodes, size))
                    for size in (2, 2, 2, 3) for _ in range(len(nodes) // 4)]
    threads = range(oracle.num_chains)
    for anchors in anchor_sets:
        for inclusive in (True, False):
            assert frontiers.cone(anchors, threads, inclusive) == \
                _oracle_cone(oracle, anchors, inclusive), \
                (context, "cone", anchors, inclusive)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("backend", FRONTIER_BACKENDS)
def test_row_cone_matches_closure_oracle(backend, seed):
    """Every cone is asked before the next insert, so rows kept across
    an insert would show."""
    rng = random.Random(seed)
    num_chains = rng.randint(2, MAX_CHAINS)
    per_chain = rng.randint(1, MAX_EVENTS)
    frontiers = Frontiers(make_partial_order(backend, num_chains,
                                             capacity_hint=2))
    oracle = ClosureOracle(num_chains, per_chain)
    _assert_cones_agree(frontiers, oracle, rng, (backend, seed, "empty"))
    for step in range(3 * per_chain):
        edge = _draw_insert(rng, oracle)
        if edge is None:
            continue
        _frontier_insert(frontiers, oracle, edge, (backend, seed, step))
        _assert_cones_agree(frontiers, oracle, rng, (backend, seed, step))


@pytest.mark.parametrize("seed", WIDE_SEEDS)
@pytest.mark.parametrize("num_chains,per_chain", WIDE_SHAPES)
@pytest.mark.parametrize("backend", FRONTIER_BACKENDS)
def test_row_cone_matches_closure_oracle_on_shuffled_inserts(
        backend, num_chains, per_chain, seed):
    rng = random.Random(seed)
    frontiers = Frontiers(make_partial_order(backend, num_chains,
                                             capacity_hint=2))
    oracle = ClosureOracle(num_chains, per_chain)
    for step, edge in enumerate(
            _shuffled_dag_edges(num_chains, per_chain, seed)):
        _frontier_insert(frontiers, oracle, edge, (backend, seed, step))
        _assert_cones_agree(frontiers, oracle, rng, (backend, seed, step))


def test_oracle_covers_both_families():
    dynamic = [name for name, cls in BACKENDS.items() if cls.supports_deletion]
    incremental = [name for name, cls in BACKENDS.items()
                   if not cls.supports_deletion]
    assert sorted(dynamic) == ["csst", "graph"]
    assert sorted(incremental) == ["incremental-csst", "st", "vc-flat"]
