"""GrowableOrder: chain growth by rebuild-and-replay."""

import pytest

from repro.core import NO_SUCCESSOR, GrowableOrder, make_partial_order
from repro.errors import InvalidNodeError, UnsupportedOperationError


class TestGrowth:
    def test_starts_small_and_grows_on_demand(self):
        order = GrowableOrder("incremental-csst", num_chains=1)
        assert order.num_chains == 1
        order.insert_edge((0, 3), (5, 1))
        assert order.num_chains >= 6
        assert order.rebuild_count == 1

    def test_growth_preserves_reachability(self):
        order = GrowableOrder("incremental-csst", num_chains=2)
        reference = make_partial_order("incremental-csst", num_chains=16,
                                       capacity_hint=64)
        edges = [((0, 1), (1, 2)), ((1, 3), (2, 0)), ((2, 1), (7, 4)),
                 ((7, 5), (3, 2)), ((3, 0), (12, 1))]
        for source, target in edges:
            order.insert_edge(source, target)
            reference.insert_edge(source, target)
        nodes = [(0, 0), (0, 1), (1, 2), (2, 1), (7, 4), (7, 5), (3, 2),
                 (12, 1), (12, 0)]
        for source in nodes:
            for target in nodes:
                assert order.reachable(source, target) == \
                    reference.reachable(source, target), (source, target)

    def test_queries_grow_chains_too(self):
        order = GrowableOrder("vc-flat", num_chains=1)
        assert order.successor((0, 0), 9) == NO_SUCCESSOR
        assert order.num_chains >= 10

    def test_negative_query_chain_rejected(self):
        order = GrowableOrder("incremental-csst", num_chains=2)
        with pytest.raises(InvalidNodeError):
            order.successor((0, 0), -1)
        with pytest.raises(InvalidNodeError):
            order.predecessor((0, 0), -1)
        assert order.num_chains == 2

    def test_growth_is_amortised_doubling(self):
        order = GrowableOrder("incremental-csst", num_chains=1)
        for chain in range(1, 65):
            order.ensure_chain(chain)
        # 1 -> 2 -> 4 -> ... -> 128: seven rebuilds cover chain ids 1..64.
        assert order.rebuild_count == 7


class TestDelegation:
    def test_supports_deletion_follows_backend(self):
        assert not GrowableOrder("vc-flat").supports_deletion
        assert GrowableOrder("csst").supports_deletion

    def test_deletion_updates_replay_log(self):
        order = GrowableOrder("csst", num_chains=4, capacity_hint=16)
        order.insert_edge((0, 1), (1, 1))
        order.insert_edge((1, 2), (2, 1))
        order.delete_edge((0, 1), (1, 1))
        assert order.edge_count == 1
        # Growth replays only the surviving edge.
        order.ensure_chain(8)
        assert not order.reachable((0, 1), (1, 1))
        assert order.reachable((1, 2), (2, 1))

    def test_deletion_unsupported_backend_raises(self):
        order = GrowableOrder("vc-flat", num_chains=2)
        order.insert_edge((0, 1), (1, 1))
        with pytest.raises(UnsupportedOperationError):
            order.delete_edge((0, 1), (1, 1))
