"""Tests for the reads-from saturation engine."""

import random
from types import SimpleNamespace

import pytest

from repro.analyses.common.hb import Frontiers, build_sync_order, insert_ordering
from repro.analyses.common.saturation import (
    CycleDetected,
    SaturatedOrder,
    SaturationEngine,
    saturate_trace,
)
from repro.analyses.race_prediction import RacePredictionAnalysis
from repro.core import IncrementalCSST
from repro.core.factory import incremental_backends, make_partial_order
from repro.trace import Trace
from repro.trace.generators import build_trace


def _simple_rf_trace():
    """w(x) in thread 0, competing w(x) in thread 2, read in thread 1."""
    trace = Trace(name="rf")
    writer = trace.write(0, "x", value=1)
    competitor = trace.write(2, "x", value=2)
    reader = trace.read(1, "x", value=1)
    return trace, writer, competitor, reader


class TestAddOrdering:
    def test_adds_cross_thread_edge(self):
        trace, writer, _competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = SaturationEngine(Frontiers(order), trace.writes_by_variable())
        assert engine.add_ordering(writer, reader)
        assert order.reachable(writer.node, reader.node)

    def test_implied_ordering_not_reinserted(self):
        trace, writer, _competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = SaturationEngine(Frontiers(order), trace.writes_by_variable())
        engine.add_ordering(writer, reader)
        assert not engine.add_ordering(writer, reader)

    def test_program_order_is_implicit(self):
        trace = Trace()
        first = trace.write(0, "x", value=1)
        second = trace.read(0, "x", value=1)
        order = IncrementalCSST(1, 4)
        engine = SaturationEngine(Frontiers(order), trace.writes_by_variable())
        assert not engine.add_ordering(first, second)

    def test_reverse_program_order_is_a_cycle(self):
        trace = Trace()
        first = trace.write(0, "x", value=1)
        second = trace.write(0, "x", value=2)
        order = IncrementalCSST(1, 4)
        engine = SaturationEngine(Frontiers(order), trace.writes_by_variable())
        with pytest.raises(CycleDetected):
            engine.add_ordering(second, first)

    def test_cycle_across_threads_detected(self):
        trace, writer, _competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = SaturationEngine(Frontiers(order), trace.writes_by_variable())
        engine.add_ordering(writer, reader)
        with pytest.raises(CycleDetected):
            engine.add_ordering(reader, writer)


class TestSaturate:
    def test_reads_from_edge_inserted(self):
        trace, writer, _competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = SaturationEngine(Frontiers(order), trace.writes_by_variable())
        inserted = engine.saturate({reader: writer})
        assert inserted >= 1
        assert order.reachable(writer.node, reader.node)

    def test_competing_write_before_read_forced_before_writer(self):
        trace, writer, competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        # Force the competitor before the read first.
        order.insert_edge(competitor.node, reader.node)
        engine = SaturationEngine(Frontiers(order), trace.writes_by_variable())
        engine.saturate({reader: writer})
        assert order.reachable(competitor.node, writer.node)

    def test_writer_before_competitor_forces_read_before_competitor(self):
        trace, writer, competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        order.insert_edge(writer.node, competitor.node)
        engine = SaturationEngine(Frontiers(order), trace.writes_by_variable())
        engine.saturate({reader: writer})
        assert order.reachable(reader.node, competitor.node)

    def test_saturate_reaches_fixed_point(self):
        trace, writer, competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        order.insert_edge(writer.node, competitor.node)
        engine = SaturationEngine(Frontiers(order), trace.writes_by_variable())
        engine.saturate({reader: writer})
        # A second saturation must not add anything new.
        assert engine.saturate({reader: writer}) == 0

    def test_reads_without_writer_are_skipped(self):
        trace = Trace()
        reader = trace.read(0, "x")
        order = IncrementalCSST(1, 4)
        engine = SaturationEngine(Frontiers(order), trace.writes_by_variable())
        assert engine.saturate({reader: None}) == 0

    def test_infeasible_assignment_raises(self):
        trace = Trace(name="infeasible")
        writer = trace.write(0, "x", value=1)
        reader = trace.read(1, "x", value=1)
        order = IncrementalCSST(2, 4)
        order.insert_edge(reader.node, writer.node)   # read forced before writer
        engine = SaturationEngine(Frontiers(order), trace.writes_by_variable())
        with pytest.raises(CycleDetected):
            engine.saturate({reader: writer})


class TestSaturateTrace:
    def test_records_the_closure_and_returns_its_memo(self):
        trace, writer, competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        result = SimpleNamespace(details={})
        frontiers = saturate_trace(trace, order, result)
        assert result.details == {"sync_edges": 0, "saturation_edges": 1}
        # The observed writer is the write just before the read: the
        # competitor.
        assert frontiers.reaches(competitor.node, reader.node)
        assert not frontiers.ordered(writer.node, reader.node)

    def test_an_inconsistent_observed_trace_is_a_closure_cycle(self):
        # The read observes a write of the thread it forks only later.
        trace = Trace()
        trace.write(1, "x", value=1)
        trace.read(0, "x", value=1)
        trace.fork(0, 1)
        result = SimpleNamespace(details={})
        saturate_trace(trace, IncrementalCSST(2, 4), result)
        assert result.details == {"closure_cycle": True, "sync_edges": 1,
                                  "saturation_edges": 0}


class _PerCompetitorEngine(SaturationEngine):
    """The saturation loop before frontier queries: up to four
    ``reachable`` questions per competing write, and a raw
    ``reachable`` cycle check per insert, all asked of the order itself
    and none of the frontier memo.  Test-only reference."""

    def add_ordering(self, source, target):
        if source.node == target.node:
            return False
        if source.thread == target.thread:
            if source.index > target.index:
                raise CycleDetected(source, target)
            return False
        order = self._frontiers.order
        if order.reachable(target.node, source.node):
            raise CycleDetected(source, target)
        return insert_ordering(order, source.node, target.node)

    def _saturate_read(self, read, write, competitors):
        inserted = 0
        if self.add_ordering(write, read):
            inserted += 1
        for competitor in self._writes_by_variable.get(read.variable, ()):
            if competitor is write or not competitor.is_write:
                continue
            if competitor.node == write.node:
                continue
            if self._reaches(competitor, read) and \
                    not self._reaches(competitor, write):
                if self.add_ordering(competitor, write):
                    inserted += 1
            if self._reaches(write, competitor) and \
                    not self._reaches(read, competitor):
                if self.add_ordering(read, competitor):
                    inserted += 1
        return inserted

    def _reaches(self, source, target):
        if source.thread == target.thread:
            return source.index <= target.index
        return self._frontiers.order.reachable(source.node, target.node)


def _assignments(trace, seed):
    """The observed reads-from map, then reshuffled ones (each read picks
    a random write of its variable) that are often infeasible."""
    observed = trace.reads_from()
    yield observed
    writes = trace.writes_by_variable()
    rng = random.Random(seed)
    for _ in range(3):
        yield {read: (rng.choice(writes[read.variable])
                      if writes.get(read.variable) else None)
               for read in observed}


def _recording(engine_cls):
    """``engine_cls`` with every ``add_ordering`` call and its result
    logged.  An engine acting on a stale frontier would make calls the
    reference does not (ones that find the ordering already implied), so
    comparing the logs checks the frontiers, not only the edges."""

    class Recording(engine_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.calls = []

        def add_ordering(self, source, target):
            try:
                result = super().add_ordering(source, target)
            except CycleDetected:
                self.calls.append((source.node, target.node, "cycle"))
                raise
            self.calls.append((source.node, target.node, result))
            return result

    return Recording


def _saturation_outcome(engine_cls, backend, trace, reads_from):
    order = make_partial_order(backend, max(trace.threads) + 1,
                               trace.max_thread_length)
    build_sync_order(trace, order)
    engine = _recording(engine_cls)(Frontiers(order),
                                    trace.writes_by_variable())
    try:
        outcome = engine.saturate(reads_from)
    except CycleDetected as cycle:
        outcome = ("cycle", cycle.source, cycle.target)
    inserted = [(source, target) for source, target, result in engine.calls
                if result is True]
    return outcome, inserted, engine.calls


SHAPES = [("racy", 4, 60, 1), ("racy", 3, 90, 4), ("deadlock", 4, 50, 2),
          ("deadlock", 3, 70, 5), ("memory", 4, 60, 3), ("memory", 5, 40, 6)]


class TestFrontierEquivalence:
    """Frontier queries insert exactly the per-competitor loop's edges,
    in the same order, with the same return values and cycles, through
    the same sequence of ``add_ordering`` calls."""

    @pytest.mark.parametrize("backend", incremental_backends() + ("csst",))
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
    def test_matches_per_competitor_reference(self, backend, shape):
        kind, threads, events, seed = shape
        trace = build_trace(kind, threads, events, seed=seed)
        cycles = 0
        for reads_from in _assignments(trace, seed):
            expected = _saturation_outcome(_PerCompetitorEngine, backend,
                                           trace, reads_from)
            actual = _saturation_outcome(SaturationEngine, backend, trace,
                                         reads_from)
            assert actual == expected
            cycles += isinstance(expected[0], tuple)
        assert cycles < 4  # the observed assignment is always feasible

    def test_reshuffled_assignments_reach_cycles(self):
        """The reshuffled assignments exercise the CycleDetected path."""
        outcomes = [
            _saturation_outcome(SaturationEngine, "incremental-csst",
                                trace, reads_from)[0]
            for kind, threads, events, seed in SHAPES
            for trace in [build_trace(kind, threads, events, seed=seed)]
            for reads_from in _assignments(trace, seed)]
        assert any(isinstance(outcome, tuple) for outcome in outcomes)
        assert any(isinstance(outcome, int) and outcome > 0
                   for outcome in outcomes)

    def test_race_prediction_query_count_is_pinned(self):
        """Frontiers answer every competitor on a chain: on racy 4x800
        seed 1 the per-competitor loop issued 411,374 queries."""
        trace = build_trace("racy", 4, 800, seed=1)
        result = RacePredictionAnalysis(backend="vc-flat").run(trace)
        assert result.query_count < 411_374 // 2
        assert result.insert_count == 987
        assert len(result.findings) == 64


class TestFixpoint:
    """``saturate`` loops until a round inserts nothing, so its order is
    the least fixpoint, and the kept order of a stream reaches it too."""

    @pytest.mark.parametrize("backend", incremental_backends())
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
    def test_a_second_saturate_inserts_nothing(self, backend, shape):
        kind, threads, events, seed = shape
        trace = build_trace(kind, threads, events, seed=seed)
        order = make_partial_order(backend, max(trace.threads) + 1,
                                   trace.max_thread_length)
        build_sync_order(trace, order)
        engine = SaturationEngine(Frontiers(order), trace.writes_by_variable())
        assert engine.saturate(trace.reads_from()) > 0
        assert engine.saturate(trace.reads_from()) == 0

    @pytest.mark.parametrize("include_locks", (True, False))
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
    def test_extending_a_prefix_reaches_the_batch_relation(self, shape,
                                                           include_locks):
        kind, threads, events, seed = shape
        full = build_trace(kind, threads, events, seed=seed)
        chains, capacity = max(full.threads) + 1, full.max_thread_length
        live = Trace()
        kept = SaturatedOrder(make_partial_order("vc-flat", chains, capacity),
                              include_locks)
        for position, event in enumerate(full, 1):
            live.add(event)
            if position % 37 == 0 or position == len(full):
                kept.extend(live, SimpleNamespace(details={}))
        batch = make_partial_order("incremental-csst", chains, capacity)
        saturate_trace(full, batch, SimpleNamespace(details={}),
                       include_locks)
        nodes = [event.node for event in full]
        for source in nodes:
            for chain in range(chains):
                assert kept.order.successor(source, chain) \
                    == batch.successor(source, chain), (source, chain)
