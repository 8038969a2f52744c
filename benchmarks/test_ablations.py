"""Ablation benchmarks for three design choices of the CSST:

* Block-size threshold ``b`` of the Sparse Segment Tree (the paper picks
  b = 32 via a randomised stress test; we sweep it).
* Minima indexing on/off (Section 3.2's first optimization).
* Fully dynamic CSSTs versus incremental CSSTs on an insert-only workload
  (the price of generality).
"""

import random

import pytest

from repro.core import CSST, NO_SUCCESSOR, IncrementalCSST, SparseSegmentTree
from repro.trace.generators import random_cross_edges

ARRAY_SIZE = 4_096
ARRAY_OPERATIONS = 4_000
BLOCK_SIZES = (0, 4, 32, 256)


def _array_workload(seed: int = 13):
    rng = random.Random(seed)
    operations = []
    for _ in range(ARRAY_OPERATIONS):
        kind = rng.random()
        if kind < 0.45:
            operations.append(("update", rng.randrange(ARRAY_SIZE), rng.randrange(ARRAY_SIZE)))
        elif kind < 0.75:
            operations.append(("suffix_min", rng.randrange(ARRAY_SIZE), None))
        else:
            operations.append(("argleq", rng.randrange(ARRAY_SIZE), None))
    return operations


def _run_array_workload(tree: SparseSegmentTree, operations) -> int:
    checksum = 0
    for kind, first, second in operations:
        if kind == "update":
            tree.update(first, second)
        elif kind == "suffix_min":
            value = tree.suffix_min(first)
            checksum += 0 if value == NO_SUCCESSOR else value
        else:
            result = tree.argleq(first)
            checksum += max(result, 0)
    return checksum


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_ablation_block_size(benchmark, block_size):
    operations = _array_workload()

    def run():
        tree = SparseSegmentTree(ARRAY_SIZE, block_size=block_size)
        return _run_array_workload(tree, operations)

    checksum = benchmark.pedantic(run, rounds=1, iterations=3)
    benchmark.extra_info["block_size"] = block_size
    assert checksum >= 0


@pytest.mark.parametrize("minima_indexing", (True, False),
                         ids=("indexed", "unindexed"))
def test_ablation_minima_indexing(benchmark, minima_indexing):
    operations = _array_workload(seed=17)

    def run():
        tree = SparseSegmentTree(ARRAY_SIZE, minima_indexing=minima_indexing)
        return _run_array_workload(tree, operations)

    checksum = benchmark.pedantic(run, rounds=1, iterations=3)
    assert checksum >= 0


@pytest.mark.parametrize("variant", ("incremental", "fully-dynamic"))
def test_ablation_dynamic_vs_incremental(benchmark, variant):
    """The fully dynamic CSST pays a k^3 closure per query; on insert-only
    workloads the incremental variant should therefore answer queries faster."""
    num_chains, chain_length = 8, 800
    candidates = random_cross_edges(num_chains, chain_length, chain_length,
                                    window=100, seed=23)
    rng = random.Random(29)
    queries = [
        (
            (rng.randrange(num_chains), rng.randrange(chain_length)),
            (rng.randrange(num_chains), rng.randrange(chain_length)),
        )
        for _ in range(2_000)
    ]

    def run():
        if variant == "incremental":
            order = IncrementalCSST(num_chains, chain_length)
        else:
            order = CSST(num_chains, chain_length)
        for source, target in candidates:
            if not order.reachable(source, target) and not order.reachable(target, source):
                order.insert_edge(source, target)
        hits = sum(1 for source, target in queries if order.reachable(source, target))
        return hits

    hits = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["positive_queries"] = hits
    assert hits >= 0
