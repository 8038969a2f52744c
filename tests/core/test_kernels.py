"""The array kernels: SST operations and slot recycling, the CSSTs'
``block_size`` forwarding and array factories, and the batch APIs of
every backend."""

import random

import pytest

from repro.core import (
    BACKENDS,
    CSST,
    NO_SUCCESSOR,
    GraphOrder,
    IncrementalCSST,
    InstrumentedOrder,
    NaiveSuffixMinima,
    SegmentTree,
    SparseSegmentTree,
    make_partial_order,
)
from repro.errors import (
    InvalidEdgeError,
    InvalidNodeError,
    UnsupportedOperationError,
)


def _random_cross_pair(rng, num_chains, per_chain):
    source = (rng.randrange(num_chains), rng.randrange(per_chain))
    target_chain = (source[0] + rng.randrange(1, num_chains)) % num_chains
    return source, (target_chain, rng.randrange(per_chain))


class TestSparseSegmentTree:
    def test_empty_tree(self):
        tree = SparseSegmentTree(8)
        assert tree.suffix_min(0) == NO_SUCCESSOR
        assert tree.argleq(100) == -1
        assert tree.get(3) == NO_SUCCESSOR
        assert tree.density == 0
        assert tree.height == 0

    def test_update_get_roundtrip(self):
        tree = SparseSegmentTree(16)
        tree.update(3, 7)
        tree.update(9, 2)
        assert tree.get(3) == 7
        assert tree.get(9) == 2
        assert tree.get(4) == NO_SUCCESSOR
        assert tree.suffix_min(0) == 2
        assert tree.suffix_min(4) == 2
        assert tree.suffix_min(10) == NO_SUCCESSOR
        assert tree.argleq(7) == 9
        assert tree.items() == [(3, 7), (9, 2)]

    def test_grows_beyond_capacity(self):
        tree = SparseSegmentTree(4)
        tree.update(100, 1)
        assert tree.capacity >= 101
        assert tree.get(100) == 1
        assert tree.suffix_min(0) == 1

    def test_negative_index_rejected(self):
        tree = SparseSegmentTree(4)
        with pytest.raises(InvalidNodeError):
            tree.update(-1, 3)
        with pytest.raises(InvalidNodeError):
            tree.get(-2)
        with pytest.raises(InvalidNodeError):
            tree.suffix_min(-1)

    def test_bad_construction_rejected(self):
        with pytest.raises(InvalidNodeError):
            SparseSegmentTree(0)
        with pytest.raises(InvalidNodeError):
            SparseSegmentTree(4, block_size=-1)

    def test_slots_are_recycled_after_removal(self):
        tree = SparseSegmentTree(64, block_size=0)
        for index in range(32):
            tree.update(index, index)
        allocated = tree.allocated_slots
        for index in range(32):
            tree.update(index, NO_SUCCESSOR)
        assert tree.density == 0
        for index in range(32):
            tree.update(index, 100 + index)
        # Reinsertions reuse the free-listed slots instead of growing.
        assert tree.allocated_slots == allocated

    @pytest.mark.parametrize("block_size", [0, 1, 4, 32])
    @pytest.mark.parametrize("minima_indexing", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_ops_match_oracle(self, block_size, minima_indexing, seed):
        rng = random.Random(seed * 31 + block_size)
        oracle = NaiveSuffixMinima(8)
        tree = SparseSegmentTree(8, block_size=block_size,
                                 minima_indexing=minima_indexing)
        live = []
        for _ in range(600):
            roll = rng.random()
            if roll < 0.5 or not live:
                index, value = rng.randrange(200), rng.randrange(60)
                for array in (oracle, tree):
                    array.update(index, value)
                live.append(index)
            elif roll < 0.7:
                index = live.pop(rng.randrange(len(live)))
                for array in (oracle, tree):
                    array.update(index, NO_SUCCESSOR)
            query = rng.randrange(200)
            assert tree.suffix_min(query) == oracle.suffix_min(query)
            value = rng.randrange(70)
            assert tree.argleq(value) == oracle.argleq(value)
            probe = rng.randrange(200)
            assert tree.get(probe) == oracle.get(probe)
            assert tree.density == oracle.density
        assert tree.items() == oracle.items()


class TestArrayFactory:
    """The CSST kernels run on any ``SuffixMinima`` implementation."""

    @pytest.mark.parametrize("array_cls", [SegmentTree, NaiveSuffixMinima])
    def test_incremental_csst_runs_on_any_suffix_minima(self, array_cls):
        order = IncrementalCSST(3, 16, array_factory=array_cls)
        order.insert_edge((0, 1), (1, 2))
        order.insert_edge((1, 4), (2, 3))
        assert order.reachable((0, 0), (2, 3))
        assert order.successor((0, 1), 2) == 3
        assert order.predecessor((2, 3), 0) == 1
        assert all(isinstance(array, array_cls)
                   for _pair, array in order._iter_arrays())


class TestBlockSize:
    # Only ``csst`` keeps sparse segment trees; the incremental CSST's
    # staircases have no blocks and take no ``block_size``.
    @pytest.mark.parametrize("name", ["csst"])
    def test_block_size_forwarded_to_every_array(self, name):
        order = make_partial_order(name, 3, block_size=4)
        order.insert_edge((0, 1), (1, 2))
        order.insert_edge((1, 3), (2, 4))
        assert order.reachable((0, 0), (2, 5))
        arrays = [array for _pair, array in order._iter_arrays()]
        assert arrays and all(array.block_size == 4 for array in arrays)


class TestValidationAndErrors:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_same_chain_edge_rejected(self, name):
        order = make_partial_order(name, 3)
        with pytest.raises(InvalidEdgeError):
            order.insert_edge((1, 0), (1, 5))

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_bad_node_rejected(self, name):
        order = make_partial_order(name, 3)
        with pytest.raises(InvalidNodeError):
            order.reachable((5, 0), (1, 2))
        with pytest.raises(InvalidNodeError):
            order.reachable((0, -1), (1, 2))

    def test_csst_delete_missing_edge_rejected(self):
        order = CSST(3)
        order.insert_edge((0, 1), (1, 2))
        with pytest.raises(InvalidEdgeError):
            order.delete_edge((0, 1), (1, 3))

    @pytest.mark.parametrize("name", sorted(
        name for name, cls in BACKENDS.items() if not cls.supports_deletion))
    def test_incremental_deletion_unsupported(self, name):
        with pytest.raises(UnsupportedOperationError):
            make_partial_order(name, 3).delete_edge((0, 1), (1, 2))


class TestBatchAPIs:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_insert_many_matches_individual_inserts(self, name):
        rng = random.Random(5)
        edges = []
        reference = GraphOrder(4)
        for _ in range(40):
            source, target = _random_cross_pair(rng, 4, 20)
            if not reference.reachable(target, source):
                reference.insert_edge(source, target)
                edges.append((source, target))
        batch = make_partial_order(name, 4, 8)
        single = make_partial_order(name, 4, 8)
        batch.insert_many(edges)
        for source, target in edges:
            single.insert_edge(source, target)
        pairs = [_random_cross_pair(rng, 4, 20) for _ in range(60)]
        assert batch.query_many(pairs) == single.query_many(pairs) \
            == [reference.reachable(s, t) for s, t in pairs]

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_query_many_validates_nodes(self, name):
        order = make_partial_order(name, 3)
        with pytest.raises(InvalidNodeError):
            order.query_many([((9, 0), (1, 1))])

    def test_instrumented_order_counts_batch_operations(self):
        order = InstrumentedOrder(IncrementalCSST(3))
        order.insert_many([((0, 1), (1, 2)), ((1, 3), (2, 4))])
        assert order.insert_count == 2
        answers = order.query_many([((0, 0), (1, 5)), ((2, 0), (0, 0))])
        assert order.query_count == 2
        assert answers == [True, False]
