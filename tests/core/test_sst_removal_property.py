"""Randomized property tests for SparseSegmentTree entry *removal*.

The original property suite exercised updates and queries but never removal
(``update(i, NO_SUCCESSOR)``), which is exactly the path fully dynamic CSSTs hit when
an edge deletion empties a heap.  These properties drive randomized
insert/remove/query interleavings against the naive oracle -- including
block-node boundaries (block sizes around the capacity, 0 disables blocks)
and the pull-up cascade after removing internal entries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import NO_SUCCESSOR, NaiveSuffixMinima, SparseSegmentTree

CAPACITY = 64

indexes = st.integers(min_value=0, max_value=CAPACITY - 1)
values = st.integers(min_value=0, max_value=200)
#: Block sizes straddling the block-node boundary: none, single-entry
#: blocks, sub-capacity, exactly capacity, and beyond capacity (whole tree
#: is one block).
block_sizes = st.sampled_from([0, 1, 4, CAPACITY // 2, CAPACITY, 2 * CAPACITY])

#: An operation: ("set", i, v) or ("clear", i).
operations = st.lists(
    st.one_of(
        st.tuples(st.just("set"), indexes, values),
        st.tuples(st.just("clear"), indexes),
    ),
    max_size=120,
)


def _apply(operation_list, *arrays):
    for operation in operation_list:
        if operation[0] == "set":
            _op, index, value = operation
            for array in arrays:
                array.update(index, value)
        else:
            _op, index = operation
            for array in arrays:
                array.update(index, NO_SUCCESSOR)


@settings(max_examples=80, deadline=None)
@given(operations=operations, query=indexes, block_size=block_sizes)
def test_interleaved_insert_remove_matches_oracle(operations, query,
                                                  block_size):
    oracle = NaiveSuffixMinima(CAPACITY)
    sparse = SparseSegmentTree(CAPACITY, block_size=block_size)
    _apply(operations, oracle, sparse)
    assert sparse.suffix_min(query) == oracle.suffix_min(query)
    assert sparse.get(query) == oracle.get(query)
    assert sparse.density == oracle.density
    assert sparse.items() == oracle.items()


@settings(max_examples=60, deadline=None)
@given(operations=operations, value=values, block_size=block_sizes)
def test_argleq_after_removals_matches_oracle(operations, value, block_size):
    oracle = NaiveSuffixMinima(CAPACITY)
    sparse = SparseSegmentTree(CAPACITY, block_size=block_size)
    _apply(operations, oracle, sparse)
    assert sparse.argleq(value) == oracle.argleq(value)


@settings(max_examples=40, deadline=None)
@given(operations=operations, block_size=block_sizes)
def test_remove_everything_empties_the_tree(operations, block_size):
    sparse = SparseSegmentTree(CAPACITY, block_size=block_size)
    touched = set()
    for operation in operations:
        if operation[0] == "set":
            _op, index, value = operation
            sparse.update(index, value)
            touched.add(index)
    for index in touched:
        sparse.update(index, NO_SUCCESSOR)
    assert sparse.density == 0
    assert sparse.node_count == 0
    assert sparse.suffix_min(0) == NO_SUCCESSOR


class RemovalMachine(RuleBasedStateMachine):
    """Stateful interleaving of set/clear/query against the oracle."""

    def __init__(self):
        super().__init__()
        self.oracle = NaiveSuffixMinima(CAPACITY)
        self.sparse = SparseSegmentTree(CAPACITY, block_size=4)

    @rule(index=indexes, value=values)
    def set_entry(self, index, value):
        for array in (self.oracle, self.sparse):
            array.update(index, value)

    @rule(index=indexes)
    def clear_entry(self, index):
        for array in (self.oracle, self.sparse):
            array.update(index, NO_SUCCESSOR)

    @rule(index=indexes)
    def query_suffix(self, index):
        expected = self.oracle.suffix_min(index)
        assert self.sparse.suffix_min(index) == expected

    @rule(value=values)
    def query_argleq(self, value):
        expected = self.oracle.argleq(value)
        assert self.sparse.argleq(value) == expected

    @invariant()
    def densities_agree(self):
        assert self.sparse.density == self.oracle.density

    @invariant()
    def entries_agree(self):
        expected = self.oracle.items()
        assert self.sparse.items() == expected


TestRemovalMachine = RemovalMachine.TestCase
TestRemovalMachine.settings = settings(max_examples=30,
                                       stateful_step_count=40,
                                       deadline=None)
