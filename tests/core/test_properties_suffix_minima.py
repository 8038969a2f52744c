"""Property-based tests (hypothesis) for the suffix-minima structures.

The naive dictionary implementation acts as the oracle; the dense and sparse
segment trees must agree with it on every operation sequence, and the sparse
tree must additionally respect the structural invariants of Lemma 1.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import (
    NO_SUCCESSOR,
    NaiveSuffixMinima,
    SegmentTree,
    SparseSegmentTree,
)

CAPACITY = 64

indexes = st.integers(min_value=0, max_value=CAPACITY - 1)
values = st.one_of(st.integers(min_value=0, max_value=200), st.just(NO_SUCCESSOR))
operations = st.lists(st.tuples(indexes, values), max_size=80)
block_sizes = st.sampled_from([0, 1, 4, 32, 128])


def _apply(operations_list, *arrays):
    for index, value in operations_list:
        for array in arrays:
            array.update(index, value)


def _final_entries(operations_list):
    """The non-empty entries the operations leave behind."""
    entries = {}
    for index, value in operations_list:
        if value == NO_SUCCESSOR:
            entries.pop(index, None)
        else:
            entries[index] = value
    return entries


@settings(max_examples=60, deadline=None)
@given(operations=operations, query=indexes, block_size=block_sizes,
       minima_indexing=st.booleans())
def test_suffix_min_agrees_with_oracle(operations, query, block_size,
                                       minima_indexing):
    """Both walks of ``suffix_min`` (with and without the minima-indexing
    early exit); an empty suffix is ``NO_SUCCESSOR`` on every array."""
    oracle = NaiveSuffixMinima(CAPACITY)
    sparse = SparseSegmentTree(CAPACITY, block_size=block_size,
                               minima_indexing=minima_indexing)
    dense = SegmentTree(CAPACITY)
    _apply(operations, oracle, sparse, dense)
    entries = _final_entries(operations)
    expected = oracle.suffix_min(query)
    assert sparse.suffix_min(query) == expected
    assert dense.suffix_min(query) == expected
    for index in range(CAPACITY):
        expected = min((v for i, v in entries.items() if i >= index),
                       default=NO_SUCCESSOR)
        assert oracle.suffix_min(index) == expected
        assert sparse.suffix_min(index) == expected
        assert dense.suffix_min(index) == expected


@settings(max_examples=60, deadline=None)
@given(operations=operations,
       threshold=st.integers(min_value=-1, max_value=250),
       block_size=block_sizes)
def test_argleq_agrees_with_oracle(operations, threshold, block_size):
    """Every array answers ``-1`` when no entry qualifies."""
    oracle = NaiveSuffixMinima(CAPACITY)
    sparse = SparseSegmentTree(CAPACITY, block_size=block_size)
    dense = SegmentTree(CAPACITY)
    _apply(operations, oracle, sparse, dense)
    expected = max((i for i, v in _final_entries(operations).items()
                    if v <= threshold), default=-1)
    assert oracle.argleq(threshold) == expected
    assert sparse.argleq(threshold) == expected
    assert dense.argleq(threshold) == expected


@settings(max_examples=60, deadline=None)
@given(operations=operations, block_size=block_sizes)
def test_density_and_items_agree_with_oracle(operations, block_size):
    oracle = NaiveSuffixMinima(CAPACITY)
    sparse = SparseSegmentTree(CAPACITY, block_size=block_size)
    _apply(operations, oracle, sparse)
    assert sparse.density == oracle.density
    assert sparse.items() == oracle.items()


@settings(max_examples=60, deadline=None)
@given(operations=operations)
def test_sparse_tree_height_respects_lemma1(operations):
    sparse = SparseSegmentTree(CAPACITY, block_size=0)
    _apply(operations, sparse)
    log_bound = int(math.log2(CAPACITY)) + 1
    if sparse.density == 0:
        assert sparse.height == 0
    else:
        assert sparse.height <= min(log_bound, sparse.density)


@settings(max_examples=40, deadline=None)
@given(operations=operations)
def test_minima_indexing_is_pure_optimisation(operations):
    indexed = SparseSegmentTree(CAPACITY, minima_indexing=True)
    unindexed = SparseSegmentTree(CAPACITY, minima_indexing=False)
    _apply(operations, indexed, unindexed)
    for query in range(0, CAPACITY, 7):
        assert indexed.suffix_min(query) == unindexed.suffix_min(query)


class SuffixMinimaMachine(RuleBasedStateMachine):
    """Stateful comparison of the sparse tree against the oracle."""

    def __init__(self):
        super().__init__()
        self.oracle = NaiveSuffixMinima(CAPACITY)
        self.tree = SparseSegmentTree(CAPACITY, block_size=4)

    @rule(index=indexes, value=values)
    def update(self, index, value):
        self.oracle.update(index, value)
        self.tree.update(index, value)

    @rule(index=indexes)
    def check_suffix_min(self, index):
        assert self.tree.suffix_min(index) == self.oracle.suffix_min(index)

    @rule(threshold=st.integers(min_value=0, max_value=220))
    def check_argleq(self, threshold):
        assert self.tree.argleq(threshold) == self.oracle.argleq(threshold)

    @rule(index=indexes)
    def check_get(self, index):
        assert self.tree.get(index) == self.oracle.get(index)

    @invariant()
    def densities_match(self):
        assert self.tree.density == self.oracle.density


TestSuffixMinimaStateMachine = SuffixMinimaMachine.TestCase
TestSuffixMinimaStateMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
