"""Tests specific to incremental CSSTs (Algorithm 3) and the Segment Tree
baseline that shares their transitive-closure logic."""

from pathlib import Path

import pytest

from repro.analyses.common.base import Analysis
from repro.core import GraphOrder, IncrementalCSST, SegmentTreeOrder
from repro.core.sparse_segment_tree import SparseSegmentTree
from repro.errors import UnsupportedOperationError
from repro.trace.generators import build_trace


@pytest.fixture(params=["incremental-csst", "segment-tree"])
def incremental_order(request):
    cls = IncrementalCSST if request.param == "incremental-csst" else SegmentTreeOrder
    return cls(4, 16)


class TestTransitiveClosure:
    def test_insert_closes_across_all_chain_pairs(self, incremental_order):
        """Example 7 / Figure 9 of the paper."""
        incremental_order.insert_edge((0, 1), (1, 0))
        incremental_order.insert_edge((2, 0), (3, 2))
        incremental_order.insert_edge((1, 1), (2, 0))
        # The transitive edge (0,1) ->* (3,2) must now be answerable with a
        # single suffix-minima query.
        assert incremental_order.reachable((0, 1), (3, 2))
        assert incremental_order.successor((0, 1), 3) == 2
        assert incremental_order.predecessor((3, 2), 0) == 1

    def test_insertion_order_does_not_matter(self):
        edges = [((0, 1), (1, 0)), ((1, 1), (2, 0)), ((2, 0), (3, 2))]
        first = IncrementalCSST(4, 8)
        second = IncrementalCSST(4, 8)
        for source, target in edges:
            first.insert_edge(source, target)
        for source, target in reversed(edges):
            second.insert_edge(source, target)
        for chain in range(4):
            for index in range(4):
                for other in range(4):
                    assert (
                        first.successor((chain, index), other)
                        == second.successor((chain, index), other)
                    )

    def test_redundant_edge_adds_no_entries(self, incremental_order):
        incremental_order.insert_edge((0, 1), (1, 5))
        before = incremental_order.total_entries
        # An edge that is already implied transitively (later source, later
        # target) must not add information.
        incremental_order.insert_edge((0, 2), (1, 9))
        assert incremental_order.reachable((0, 2), (1, 9))
        assert incremental_order.total_entries >= before

    def test_edge_count_property(self, incremental_order):
        incremental_order.insert_edge((0, 1), (1, 5))
        incremental_order.insert_edge((1, 1), (2, 5))
        assert incremental_order.edge_count == 2

    def test_deletion_unsupported(self, incremental_order):
        incremental_order.insert_edge((0, 1), (1, 5))
        with pytest.raises(UnsupportedOperationError):
            incremental_order.delete_edge((0, 1), (1, 5))


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_dags_match_graph_reference(self, seed, rng, incremental_order):
        import random

        local = random.Random(seed)
        reference = GraphOrder(4)
        for _ in range(40):
            source_chain = local.randrange(4)
            target_chain = (source_chain + local.randrange(1, 4)) % 4
            source = (source_chain, local.randrange(12))
            target = (target_chain, local.randrange(12))
            if reference.reachable(target, source):
                continue
            reference.insert_edge(source, target)
            incremental_order.insert_edge(source, target)
        for _ in range(60):
            a = (local.randrange(4), local.randrange(12))
            b = (local.randrange(4), local.randrange(12))
            assert incremental_order.reachable(a, b) == reference.reachable(a, b)


class TestSparsity:
    def test_transitive_entries_only_at_cross_edge_sources(self):
        """Lemma 7: entries are only ever written at indices that already
        have an outgoing cross-chain edge."""
        order = IncrementalCSST(4, 64)
        edges = [((0, 10), (1, 20)), ((1, 30), (2, 40)), ((2, 50), (3, 60))]
        for source, target in edges:
            order.insert_edge(source, target)
        source_indices = {}
        for source, _target in edges:
            source_indices.setdefault(source[0], set()).add(source[1])
        for (source_chain, _target_chain), array in order._iter_arrays():
            entry_indices = {index for index, _value in array.items()}
            assert entry_indices <= source_indices.get(source_chain, set())

    def test_max_array_density_bounded_by_sources(self):
        order = IncrementalCSST(3, 64)
        for index in range(0, 20, 2):
            order.insert_edge((0, index), (1, index + 1))
        assert order.max_array_density <= 10

    def test_capacity_hint_grows_transparently(self):
        order = IncrementalCSST(3, 4)
        order.insert_edge((0, 100), (1, 200))
        assert order.reachable((0, 50), (1, 300))


#: The insert_edge sequence of the round loop tso-consistency once ran,
#: on tso 64 threads x 50 events, seed 1 (2,883 edges).
TSO_64X50_EDGES = Path(__file__).resolve().parent / "data" \
    / "tso_64x50_seed1_edges.txt"


class TestInsertCost:
    """The insert closure reads one target frontier per insert and skips
    source rows that already reach the target; it must still make the
    updates of the all-pairs sweep, one for one."""

    def test_tso_64_threads_counts(self, monkeypatch):
        counts = {"update": 0, "suffix_min": 0}

        def counting(name):
            method = getattr(SparseSegmentTree, name)

            def wrapper(self, *args):
                counts[name] += 1
                return method(self, *args)

            return wrapper

        edges = [tuple(map(int, line.split()))
                 for line in TSO_64X50_EDGES.read_text().splitlines()
                 if not line.startswith("#")]
        assert len(edges) == 2883
        trace = build_trace("tso", num_threads=64, events=50, seed=1)
        order = IncrementalCSST(128, trace.max_thread_length)
        for name in counts:
            monkeypatch.setattr(SparseSegmentTree, name, counting(name))
        for source_chain, source, target_chain, target in edges:
            order.insert_edge((source_chain, source), (target_chain, target))
        # The all-pairs sweep made the same 68,107 updates with 11.83M
        # suffix-minima lookups.
        assert counts["update"] == 68_107
        assert counts["suffix_min"] <= 600_000

    def test_tso_64_threads_agrees_with_vc_flat(self):
        trace = build_trace("tso", num_threads=64, events=50, seed=1)
        analysis_cls = Analysis.by_name("tso-consistency")
        reference = analysis_cls("vc-flat").run(trace)
        result = analysis_cls("incremental-csst").run(trace)
        assert result.insert_count == reference.insert_count
        assert [str(f) for f in result.findings] == \
            [str(f) for f in reference.findings]
        assert result.details == reference.details
