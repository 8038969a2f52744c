"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    CSST,
    GraphOrder,
    IncrementalCSST,
    SegmentTreeOrder,
    VectorClockOrder,
)

#: All incremental-capable backends, keyed by their factory name.
INCREMENTAL_BACKEND_CLASSES = {
    "vc-flat": VectorClockOrder,
    "st": SegmentTreeOrder,
    "incremental-csst": IncrementalCSST,
    "csst": CSST,
    "graph": GraphOrder,
}

#: Backends supporting deletion.
DYNAMIC_BACKEND_CLASSES = {
    "csst": CSST,
    "graph": GraphOrder,
}


@pytest.fixture(params=sorted(INCREMENTAL_BACKEND_CLASSES))
def any_backend(request):
    """A fresh backend instance of every kind, with 4 chains."""
    return INCREMENTAL_BACKEND_CLASSES[request.param](4, 16)


@pytest.fixture(params=sorted(DYNAMIC_BACKEND_CLASSES))
def dynamic_backend(request):
    """A fresh deletion-capable backend instance, with 4 chains."""
    return DYNAMIC_BACKEND_CLASSES[request.param](4, 16)


@pytest.fixture
def rng():
    """A deterministic random generator for test workloads."""
    return random.Random(12345)


def insert_random_dag(order, reference, rng, num_chains, per_chain, edges):
    """Insert random acyclic cross-chain edges into ``order`` and ``reference``.

    Returns the list of inserted edges.  ``reference`` is used for the
    acyclicity check (it must already answer reachability correctly, e.g. a
    GraphOrder).
    """
    inserted = []
    for _ in range(edges):
        source_chain = rng.randrange(num_chains)
        target_chain = rng.randrange(num_chains)
        while target_chain == source_chain:
            target_chain = rng.randrange(num_chains)
        source = (source_chain, rng.randrange(per_chain))
        target = (target_chain, rng.randrange(per_chain))
        if reference.reachable(target, source):
            continue
        if (source, target) in inserted:
            continue
        reference.insert_edge(source, target)
        if order is not reference:
            order.insert_edge(source, target)
        inserted.append((source, target))
    return inserted
