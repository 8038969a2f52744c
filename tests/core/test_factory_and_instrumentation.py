"""Tests for the backend factory and the instrumentation wrapper."""

import pytest

from repro.core import (
    BACKENDS,
    CSST,
    DYNAMIC_BACKENDS,
    INCREMENTAL_BACKENDS,
    GraphOrder,
    IncrementalCSST,
    InstrumentedOrder,
    SegmentTreeOrder,
    VectorClockOrder,
    make_partial_order,
)
from repro.errors import ReproError


class TestFactory:
    @pytest.mark.parametrize("kind, expected", [
        ("csst", CSST),
        ("incremental-csst", IncrementalCSST),
        ("st", SegmentTreeOrder),
        ("vc-flat", VectorClockOrder),
        ("graph", GraphOrder),
    ])
    def test_factory_builds_expected_class(self, kind, expected):
        order = make_partial_order(kind, num_chains=3, capacity_hint=8)
        assert isinstance(order, expected)
        assert order.num_chains == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown partial-order backend"):
            make_partial_order("treeclock", 2)

    def test_extra_kwargs_forwarded(self):
        order = make_partial_order("csst", 2, block_size=8)
        order.insert_edge((0, 1), (1, 1))
        assert order.reachable((0, 0), (1, 3))

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(ReproError,
                           match="backend 'vc-flat' does not accept "
                                 "'block_size'") as caught:
            make_partial_order("vc-flat", 3, block_size=4)
        assert type(caught.value) is ReproError

    def test_one_vector_clock_backend(self):
        with pytest.raises(ReproError, match="unknown partial-order backend"):
            make_partial_order("vc", 2)
        assert INCREMENTAL_BACKENDS == ("st", "incremental-csst", "vc-flat")

    def test_backend_name_groups_are_consistent(self):
        assert set(INCREMENTAL_BACKENDS) <= set(BACKENDS)
        assert set(DYNAMIC_BACKENDS) <= set(BACKENDS)
        for name in DYNAMIC_BACKENDS:
            assert BACKENDS[name].supports_deletion
        for name in INCREMENTAL_BACKENDS:
            assert not BACKENDS[name].supports_deletion or name == "csst"


class TestInstrumentedOrder:
    def test_counts_inserts_and_queries(self):
        wrapped = InstrumentedOrder(IncrementalCSST(3, 8))
        wrapped.insert_edge((0, 1), (1, 2))
        wrapped.reachable((0, 0), (1, 5))
        wrapped.successor((0, 0), 1)
        wrapped.predecessor((1, 5), 0)
        assert wrapped.insert_count == 1
        assert wrapped.query_count == 3
        assert wrapped.operation_count == 4

    def test_counts_deletions(self):
        wrapped = InstrumentedOrder(CSST(3, 8))
        wrapped.insert_edge((0, 1), (1, 2))
        wrapped.delete_edge((0, 1), (1, 2))
        assert wrapped.delete_count == 1

    def test_delegates_results(self):
        wrapped = InstrumentedOrder(IncrementalCSST(3, 8))
        wrapped.insert_edge((0, 1), (1, 2))
        assert wrapped.reachable((0, 1), (1, 2))
        assert wrapped.successor((0, 1), 1) == 2
        assert wrapped.predecessor((1, 2), 0) == 1

    def test_exposes_deletion_support_of_delegate(self):
        assert InstrumentedOrder(CSST(2)).supports_deletion
        assert not InstrumentedOrder(VectorClockOrder(2)).supports_deletion

    def test_delegate_accessor(self):
        inner = IncrementalCSST(2, 8)
        assert InstrumentedOrder(inner).delegate is inner
