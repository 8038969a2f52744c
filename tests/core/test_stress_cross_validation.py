"""Randomised stress tests cross-validating every backend on larger DAGs.

These complement the hypothesis properties with longer operation sequences
(hundreds of edges and queries per run) at a handful of fixed seeds, so
regressions in any backend's bookkeeping show up even if they only manifest
after many operations.
"""

import random

import pytest

from repro.core import (
    CSST,
    GraphOrder,
    IncrementalCSST,
    SegmentTreeOrder,
    VectorClockOrder,
)


def _random_node(rng, num_chains, per_chain):
    return (rng.randrange(num_chains), rng.randrange(per_chain))


def _random_cross_pair(rng, num_chains, per_chain):
    source = _random_node(rng, num_chains, per_chain)
    target_chain = (source[0] + rng.randrange(1, num_chains)) % num_chains
    return source, (target_chain, rng.randrange(per_chain))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("num_chains, per_chain", [(3, 40), (6, 25), (10, 12)])
def test_incremental_backends_agree_on_long_runs(seed, num_chains, per_chain):
    rng = random.Random(seed * 1000 + num_chains)
    reference = GraphOrder(num_chains)
    backends = [
        IncrementalCSST(num_chains, 8),
        SegmentTreeOrder(num_chains, 8),
        VectorClockOrder(num_chains, 8),
        CSST(num_chains, 8),
    ]
    inserted = set()
    for _ in range(200):
        source, target = _random_cross_pair(rng, num_chains, per_chain)
        if (source, target) not in inserted and not reference.reachable(target, source):
            inserted.add((source, target))
            reference.insert_edge(source, target)
            for backend in backends:
                backend.insert_edge(source, target)
        query_source = _random_node(rng, num_chains, per_chain)
        query_target = _random_node(rng, num_chains, per_chain)
        expected = reference.reachable(query_source, query_target)
        expected_successor = reference.successor(query_source, query_target[0])
        expected_predecessor = reference.predecessor(query_source, query_target[0])
        for backend in backends:
            name = type(backend).__name__
            assert backend.reachable(query_source, query_target) == expected, name
            assert backend.successor(query_source, query_target[0]) == expected_successor, name
            assert backend.predecessor(query_source, query_target[0]) == expected_predecessor, name


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_fully_dynamic_backends_agree_under_churn(seed):
    num_chains, per_chain = 5, 20
    rng = random.Random(seed)
    reference = GraphOrder(num_chains)
    csst = CSST(num_chains, 8)
    live = []
    live_set = set()
    for step in range(400):
        action = rng.random()
        if action < 0.35 and live:
            source, target = live.pop(rng.randrange(len(live)))
            live_set.discard((source, target))
            reference.delete_edge(source, target)
            csst.delete_edge(source, target)
        else:
            source, target = _random_cross_pair(rng, num_chains, per_chain)
            if (source, target) not in live_set and not reference.reachable(target, source):
                live.append((source, target))
                live_set.add((source, target))
                reference.insert_edge(source, target)
                csst.insert_edge(source, target)
        for _ in range(3):
            a = _random_node(rng, num_chains, per_chain)
            b = _random_node(rng, num_chains, per_chain)
            assert csst.reachable(a, b) == reference.reachable(a, b), step
            assert csst.successor(a, b[0]) == reference.successor(a, b[0]), step
            assert csst.predecessor(a, b[0]) == reference.predecessor(a, b[0]), step
    assert csst.edge_count == len(live)


@pytest.mark.parametrize("block_size", [0, 2, 32])
def test_csst_block_size_variants_agree(block_size):
    """``block_size`` is a knob of the fully dynamic CSST's sparse segment
    trees; every setting answers like the default under inserts and
    deletes."""
    rng = random.Random(99)
    num_chains, per_chain = 4, 30
    reference = CSST(num_chains, per_chain)
    variant = CSST(num_chains, per_chain, block_size=block_size)
    live = []
    for _ in range(150):
        if live and rng.random() < 0.3:
            source, target = live.pop(rng.randrange(len(live)))
            reference.delete_edge(source, target)
            variant.delete_edge(source, target)
        else:
            source, target = _random_cross_pair(rng, num_chains, per_chain)
            if not reference.reachable(target, source):
                live.append((source, target))
                reference.insert_edge(source, target)
                variant.insert_edge(source, target)
        a = _random_node(rng, num_chains, per_chain)
        b = _random_node(rng, num_chains, per_chain)
        assert variant.reachable(a, b) == reference.reachable(a, b)
        assert variant.successor(a, b[0]) == reference.successor(a, b[0])
        assert variant.predecessor(a, b[0]) == reference.predecessor(a, b[0])
