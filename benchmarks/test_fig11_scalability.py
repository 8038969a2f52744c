"""Figure 11: controlled scalability of insertions and queries.

Follows the paper's protocol: partial orders of k chains and l events per
chain, random windowed cross-chain edges between unordered endpoints, then
random reachability queries.  The paper's expectation -- linear insertion
cost for Vector Clocks versus logarithmic for STs/CSSTs, and near-constant
queries for Vector Clocks -- should be visible in the per-operation times.
The inputs come from the one Figure 11 protocol builder,
:func:`repro.bench.perf.fig11_protocol`, seeded as ``run_figure11`` seeds it.
"""

import pytest

from repro.bench.perf import fig11_protocol
from repro.core import INCREMENTAL_BACKENDS, make_partial_order

CHAIN_COUNTS = (10, 20)
CHAIN_LENGTHS = (250, 500, 1000)
QUERIES = 2_000


def _prepare(num_chains: int, chain_length: int):
    return fig11_protocol(num_chains, chain_length, edges=chain_length,
                          queries=QUERIES, query_seed=7 + chain_length)


def _build_order(backend: str, num_chains: int, chain_length: int, candidates):
    order = make_partial_order(backend, num_chains, chain_length)
    inserted = 0
    for source, target in candidates:
        if order.reachable(source, target) or order.reachable(target, source):
            continue
        order.insert_edge(source, target)
        inserted += 1
    return order, inserted


@pytest.mark.parametrize("backend", INCREMENTAL_BACKENDS)
@pytest.mark.parametrize("num_chains", CHAIN_COUNTS)
@pytest.mark.parametrize("chain_length", CHAIN_LENGTHS)
def test_fig11_insertions(benchmark, backend, num_chains, chain_length):
    candidates, _queries = _prepare(num_chains, chain_length)

    def insert_all():
        return _build_order(backend, num_chains, chain_length, candidates)

    _order, inserted = benchmark.pedantic(insert_all, rounds=1, iterations=1)
    benchmark.extra_info["inserted_edges"] = inserted
    assert inserted > 0


@pytest.mark.parametrize("backend", INCREMENTAL_BACKENDS)
@pytest.mark.parametrize("num_chains", CHAIN_COUNTS)
@pytest.mark.parametrize("chain_length", CHAIN_LENGTHS)
def test_fig11_queries(benchmark, backend, num_chains, chain_length):
    candidates, queries = _prepare(num_chains, chain_length)
    order, _inserted = _build_order(backend, num_chains, chain_length, candidates)

    def query_all():
        hits = 0
        for source, target in queries:
            if order.reachable(source, target):
                hits += 1
        return hits

    hits = benchmark.pedantic(query_all, rounds=1, iterations=1)
    benchmark.extra_info["positive_queries"] = hits
    assert 0 <= hits <= QUERIES
