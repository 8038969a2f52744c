"""The incremental CSST's staircase arrays against the naive oracle.

A staircase keeps only the non-dominated entries of a suffix-minima array
and takes updates of the insert-only kind: an update only where
``suffix_min(index) > value``, as :meth:`IncrementalCSST.insert_edge`
makes them.  Under that contract its ``suffix_min`` and ``argleq`` equal
the naive array's, and what it stores is the naive array's non-dominated
entries.  It is not part of the general ``SuffixMinima`` property suites,
which also raise and clear entries.
"""

import random

import pytest

from repro.core import NO_SUCCESSOR, IncrementalCSST, NaiveSuffixMinima
from repro.core.incremental_csst import _Staircase
from repro.core.sparse_segment_tree import SparseSegmentTree
from repro.errors import InvalidNodeError

SEQUENCES = 3000
SPAN = 24


def _non_dominated(naive):
    """The entries of ``naive`` that no later, smaller entry dominates."""
    return [(index, value) for index, value in naive.items()
            if value < naive.suffix_min(index + 1)]


def _assert_same(staircase, naive):
    kept = _non_dominated(naive)
    assert staircase.items() == kept
    assert set(kept) <= set(naive.items())
    assert staircase.density == len(kept)
    assert staircase.capacity == naive.capacity
    kept_at = dict(kept)
    for index in range(SPAN + 2):
        assert staircase.suffix_min(index) == naive.suffix_min(index)
        assert staircase.get(index) == kept_at.get(index, NO_SUCCESSOR)
    for value in range(-1, SPAN + 2):
        assert staircase.argleq(value) == naive.argleq(value)
    assert staircase.argleq(NO_SUCCESSOR) == naive.argleq(NO_SUCCESSOR)


def test_insert_only_sequences_match_naive_oracle():
    rng = random.Random(20261020)
    updates = 0
    for _ in range(SEQUENCES):
        capacity = rng.randint(1, SPAN)
        staircase = _Staircase(capacity)
        naive = NaiveSuffixMinima(capacity)
        _assert_same(staircase, naive)
        for _ in range(rng.randint(1, 16)):
            index = rng.randrange(SPAN)
            bound = naive.suffix_min(index)
            if bound == 0:
                continue
            value = rng.randrange(min(bound, SPAN))
            staircase.update(index, value)
            naive.update(index, value)
            updates += 1
            _assert_same(staircase, naive)
    assert updates > 5 * SEQUENCES


def test_negative_index_rejected():
    staircase = _Staircase(4)
    staircase.update(2, 5)
    for operation in (staircase.get, staircase.suffix_min,
                      lambda index: staircase.update(index, 0)):
        with pytest.raises(InvalidNodeError):
            operation(-1)
    assert staircase.items() == [(2, 5)]


def test_incremental_csst_keeps_a_subset_of_the_sst_entries():
    """Lemma 7's density bound carries over: per chain pair, the
    staircase stores a subset of what the paper's SST stores for the same
    inserts, and answers every query the same."""
    length = 40
    staircases = IncrementalCSST(8, length)
    trees = IncrementalCSST(8, length, array_factory=SparseSegmentTree)
    rng = random.Random(7)
    for _ in range(120):
        source = (rng.randrange(8), rng.randrange(length))
        target = ((source[0] + rng.randrange(1, 8)) % 8,
                  rng.randrange(length))
        if not trees.reachable(target, source):
            staircases.insert_edge(source, target)
            trees.insert_edge(source, target)
    tree_arrays = dict(trees._iter_arrays())
    for pair, array in staircases._iter_arrays():
        assert isinstance(array, _Staircase)
        assert set(array.items()) <= set(tree_arrays[pair].items())
    assert staircases.total_entries < trees.total_entries
    for chain in range(8):
        for index in range(length):
            for other in range(8):
                node = (chain, index)
                assert (staircases.successor(node, other)
                        == trees.successor(node, other))
                assert (staircases.predecessor(node, other)
                        == trees.predecessor(node, other))
