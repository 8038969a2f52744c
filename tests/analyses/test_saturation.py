"""Tests for the reads-from saturation engine."""

import random
from types import SimpleNamespace

import pytest

from repro.analyses.common.hb import Frontiers, sync_edges
from repro.analyses.common.saturation import (
    CycleDetected,
    KeptCandidates,
    SaturatedOrder,
    SaturationEngine,
    saturate_trace,
)
from repro.analyses.race_prediction import RacePredictionAnalysis
from repro.core import NO_SUCCESSOR, IncrementalCSST
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


def _engine(trace, order):
    """An engine over ``order``, which holds no cross-chain edge yet."""
    return SaturationEngine(Frontiers(order), trace.columns().thread_positions,
                            trace.writes_by_variable())


def _sync(engine, trace, include_locks=True):
    """Insert the trace's sync edges through the engine."""
    for source, target in sync_edges(trace, include_locks):
        engine.add_ordering(trace.event_at(source), trace.event_at(target))


class TestAddOrdering:
    def test_adds_cross_thread_edge(self):
        trace, writer, _competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = _engine(trace, order)
        assert engine.add_ordering(writer, reader)
        assert order.reachable(writer.node, reader.node)

    def test_implied_ordering_not_reinserted(self):
        trace, writer, _competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = _engine(trace, order)
        engine.add_ordering(writer, reader)
        assert not engine.add_ordering(writer, reader)

    def test_program_order_is_implicit(self):
        trace = Trace()
        first = trace.write(0, "x", value=1)
        second = trace.read(0, "x", value=1)
        order = IncrementalCSST(1, 4)
        engine = _engine(trace, order)
        assert not engine.add_ordering(first, second)

    def test_reverse_program_order_is_a_cycle(self):
        trace = Trace()
        first = trace.write(0, "x", value=1)
        second = trace.write(0, "x", value=2)
        order = IncrementalCSST(1, 4)
        engine = _engine(trace, order)
        with pytest.raises(CycleDetected):
            engine.add_ordering(second, first)

    def test_cycle_across_threads_detected(self):
        trace, writer, _competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = _engine(trace, order)
        engine.add_ordering(writer, reader)
        with pytest.raises(CycleDetected):
            engine.add_ordering(reader, writer)


class TestSaturate:
    def test_reads_from_edge_inserted(self):
        trace, writer, _competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = _engine(trace, order)
        inserted = engine.saturate({reader: writer})
        assert inserted >= 1
        assert order.reachable(writer.node, reader.node)

    def test_competing_write_before_read_forced_before_writer(self):
        trace, writer, competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = _engine(trace, order)
        # Force the competitor before the read first.
        engine.add_ordering(competitor, reader)
        engine.saturate({reader: writer})
        assert order.reachable(competitor.node, writer.node)

    def test_writer_before_competitor_forces_read_before_competitor(self):
        trace, writer, competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = _engine(trace, order)
        engine.add_ordering(writer, competitor)
        engine.saturate({reader: writer})
        assert order.reachable(reader.node, competitor.node)

    def test_saturate_reaches_fixed_point(self):
        trace, writer, competitor, reader = _simple_rf_trace()
        order = IncrementalCSST(3, 4)
        engine = _engine(trace, order)
        engine.add_ordering(writer, competitor)
        engine.saturate({reader: writer})
        # A second saturation must not add anything new.
        assert engine.saturate({reader: writer}) == 0

    def test_reads_without_writer_are_skipped(self):
        trace = Trace()
        reader = trace.read(0, "x")
        order = IncrementalCSST(1, 4)
        engine = _engine(trace, order)
        assert engine.saturate({reader: None}) == 0

    def test_infeasible_assignment_raises(self):
        trace = Trace(name="infeasible")
        writer = trace.write(0, "x", value=1)
        reader = trace.read(1, "x", value=1)
        order = IncrementalCSST(2, 4)
        engine = _engine(trace, order)
        engine.add_ordering(reader, writer)   # read forced before writer
        with pytest.raises(CycleDetected):
            engine.saturate({reader: writer})

    @pytest.mark.parametrize("backend", incremental_backends())
    def test_an_edge_against_trace_order_turns_the_position_skip_off(
            self, backend):
        # ``a`` reads ``b``, a later write: the edge b -> a leads backwards.
        # At the next call ``r`` is checked before ``r2`` inserts u -> b,
        # which lands after ``r`` and after every write ``r`` depends on,
        # yet gives competitor -> u -> b -> a -> r: ``r`` must be checked
        # again and force the competitor before its writer.
        trace = Trace()
        competitor = trace.write(2, "x", value=3)
        writer = trace.write(0, "x", value=1)
        a = trace.read(0, "y", value=2)
        r = trace.read(0, "x", value=1)
        b = trace.write(1, "y", value=2)
        trace.write(2, "y", value=4)   # u
        r2 = trace.read(2, "y", value=2)
        order = make_partial_order(backend, 3, trace.max_thread_length)
        engine = _engine(trace, order)
        engine.saturate({a: b})
        engine.saturate({a: b, r: writer, r2: b})
        assert order.reachable(competitor.node, writer.node)


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


class SaturationOracle:
    """Reads-from saturation over an explicit reachability relation.

    Shares no code with the engine or any backend: ``reach[u]`` is the
    bitset of trace positions ``u`` reaches, closed after every edge.  The
    rules run in rounds, as the engine once did: every read in location
    order, every competing write in trace order, each insert visible at
    once, until a round inserts nothing.  Test-only reference.
    """

    def __init__(self, trace, reads_from, include_locks=True):
        self.trace = trace
        events = list(trace)
        self.position = {event.node: position
                         for position, event in enumerate(events)}
        self.reach = [1 << position for position in range(len(events))]
        for chain in trace.threads:
            chain_events = trace.thread_events(chain)
            for earlier, later in zip(chain_events, chain_events[1:]):
                self._close(self.position[earlier.node],
                            self.position[later.node])
        #: Productive rounds until the fixpoint, and whether an insert
        #: closed a cycle (the rules stop there).
        self.rounds = 0
        self.cyclic = False
        try:
            for source, target in sync_edges(trace, include_locks):
                self._insert(self.position[source], self.position[target])
            self._saturate(reads_from)
        except CycleDetected:
            self.cyclic = True

    def _close(self, source, target):
        added = self.reach[target]
        bit = 1 << source
        for node, reached in enumerate(self.reach):
            if reached & bit:
                self.reach[node] = reached | added

    def reaches(self, source, target):
        return bool(self.reach[source] >> target & 1)

    def _insert(self, source, target):
        if self.reaches(source, target):
            return False
        if self.reaches(target, source):
            raise CycleDetected(source, target)
        self._close(source, target)
        return True

    def _saturate(self, reads_from):
        writes = self.trace.writes_by_variable()
        position = self.position
        reads = sorted((read for read, write in reads_from.items()
                        if write is not None),
                       key=lambda read: (str(read.variable), read.thread,
                                         read.index))
        while True:
            changed = False
            for read in reads:
                r = position[read.node]
                w = position[reads_from[read].node]
                changed |= self._insert(w, r)
                for competitor in writes.get(read.variable, ()):
                    c = position[competitor.node]
                    if c == w:
                        continue
                    if self.reaches(c, r) and not self.reaches(c, w):
                        changed |= self._insert(c, w)
                    if self.reaches(w, c) and not self.reaches(r, c):
                        changed |= self._insert(r, c)
            if not changed:
                return
            self.rounds += 1

    def successors(self, num_chains):
        """``successor(e, t)`` for every event ``e`` and chain ``t``."""
        chains = [self.trace.thread_events(chain)
                  for chain in range(num_chains)]
        return [min((other.index for other in chains[chain]
                     if self.reaches(self.position[event.node],
                                     self.position[other.node])),
                    default=NO_SUCCESSOR)
                for event in self.trace for chain in range(num_chains)]


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


def _engine_outcome(backend, trace, reads_from):
    """The engine's saturation of ``reads_from`` over the sync order:
    ``(cyclic, successor of every event on every chain)``, the relation
    only when acyclic.  Reshuffled assignments insert edges that lead
    backwards in the trace, which turns the engine's skip by trace
    position off."""
    chains = max(trace.threads) + 1
    order = make_partial_order(backend, chains, trace.max_thread_length)
    engine = _engine(trace, order)
    try:
        _sync(engine, trace)
        engine.saturate(reads_from)
    except CycleDetected:
        return True, None
    return False, [order.successor(event.node, chain)
                   for event in trace for chain in range(chains)]


SHAPES = [("racy", 4, 60, 1), ("racy", 3, 90, 4), ("deadlock", 4, 50, 2),
          ("deadlock", 3, 70, 5), ("memory", 4, 60, 3), ("memory", 5, 40, 6)]


class TestClosureOracle:
    """The semi-naive engine reaches the oracle's fixpoint: the same
    reachability relation and the same cycle verdict, on observed and on
    reshuffled (often infeasible) assignments.  The edges it inserts to
    get there may differ."""

    @pytest.mark.parametrize("backend", incremental_backends() + ("csst",))
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
    def test_matches_closure_oracle(self, backend, shape):
        kind, threads, events, seed = shape
        trace = build_trace(kind, threads, events, seed=seed)
        cycles = 0
        for reads_from in _assignments(trace, seed):
            oracle = SaturationOracle(trace, reads_from)
            cyclic, relation = _engine_outcome(backend, trace, reads_from)
            assert cyclic == oracle.cyclic
            if not cyclic:
                assert relation == oracle.successors(max(trace.threads) + 1)
            cycles += cyclic
        assert cycles < 4  # the observed assignment is always feasible

    @pytest.mark.parametrize("backend", incremental_backends())
    def test_edges_against_trace_order_match_the_oracle(self, backend):
        """A feasible assignment whose writer follows its read in the trace
        inserts an edge that leads backwards, after which the engine checks
        reads without its skip by trace position."""
        backward = 0
        for seed in range(20):
            trace = build_trace("racy", 3, 8, seed=seed)
            positions = trace.columns().thread_positions
            for reads_from in _assignments(trace, seed):
                oracle = SaturationOracle(trace, reads_from)
                cyclic, relation = _engine_outcome(backend, trace, reads_from)
                assert cyclic == oracle.cyclic
                if cyclic:
                    continue
                assert relation == oracle.successors(max(trace.threads) + 1)
                backward += any(
                    positions[write.thread][write.index]
                    > positions[read.thread][read.index]
                    for read, write in reads_from.items() if write is not None)
        assert backward

    def test_reshuffled_assignments_reach_cycles(self):
        """The reshuffled assignments exercise the CycleDetected path."""
        outcomes = [
            _engine_outcome("incremental-csst", trace, reads_from)[0]
            for kind, threads, events, seed in SHAPES
            for trace in [build_trace(kind, threads, events, seed=seed)]
            for reads_from in _assignments(trace, seed)]
        assert True in outcomes and False in outcomes

    def test_race_prediction_query_count_is_pinned(self):
        """Frontiers answer every competitor on a chain: on racy 4x800
        seed 1 the per-competitor loop issued 411,374 queries."""
        trace = build_trace("racy", 4, 800, seed=1)
        result = RacePredictionAnalysis(backend="vc-flat").run(trace)
        assert result.query_count < 411_374 // 2
        assert result.insert_count == INSERTS_RACY_4X800
        assert len(result.findings) == 64


def _deep_trace(gadgets):
    """A trace whose fixpoint the round loop reaches one gadget per round.

    Gadget ``i`` is a write ``w_i`` and its read ``r_i`` on thread 0, and
    a competing write ``c_i`` on thread 1 after both.  Its second rule
    fires once ``w_i ->* c_i`` and inserts ``r_i -> c_i``.  Thread 0 runs
    ``w_{i+1}`` between ``w_i`` and ``r_i`` and ``w_{i+2}`` after ``r_i``,
    so that edge gives ``w_{i+1} ->* r_i -> c_i ->* c_{i+1}``: gadget
    ``i + 1``'s premise, and no later gadget's.  A lock handed from thread
    0 to 1 right after ``w_0`` starts the chain.  Variables sort in
    reverse gadget order, so each round visits gadget ``i + 1`` before
    the edge of gadget ``i`` goes in.
    """
    names = [f"v{gadgets - i:03d}" for i in range(gadgets)]
    trace = Trace(name="deep")
    trace.acquire(0, "l")
    trace.write(0, names[0], value=0)
    trace.release(0, "l")
    trace.acquire(1, "l")
    trace.release(1, "l")
    trace.write(0, names[1], value=0)
    for i in range(gadgets):
        trace.read(0, names[i], value=0)
        if i + 2 < gadgets:
            trace.write(0, names[i + 2], value=0)
    for name in names:
        trace.write(1, name, value=1)
    return trace


class TestDeepFixpoint:
    """A fixpoint more than 16 rounds deep."""

    GADGETS = 24

    def test_the_round_loop_needs_a_round_per_gadget(self):
        trace = _deep_trace(self.GADGETS)
        oracle = SaturationOracle(trace, trace.reads_from())
        assert not oracle.cyclic
        assert oracle.rounds == self.GADGETS > 16

    @pytest.mark.parametrize("backend", incremental_backends())
    def test_engine_reaches_the_oracle_fixpoint(self, backend):
        trace = _deep_trace(self.GADGETS)
        oracle = SaturationOracle(trace, trace.reads_from())
        order = make_partial_order(backend, 2, trace.max_thread_length)
        result = SimpleNamespace(details={})
        saturate_trace(trace, order, result)
        assert "closure_cycle" not in result.details
        assert result.details["saturation_edges"] == self.GADGETS
        assert [order.successor(event.node, chain)
                for event in trace for chain in range(2)] \
            == oracle.successors(2)

    @pytest.mark.parametrize("backend", incremental_backends())
    def test_a_stream_reaches_it_too(self, backend):
        full = _deep_trace(self.GADGETS)
        oracle = SaturationOracle(full, full.reads_from())
        live = Trace()
        kept = SaturatedOrder(make_partial_order(backend, 2,
                                                 full.max_thread_length))
        for position, event in enumerate(full, 1):
            live.add(event)
            if position % 7 == 0 or position == len(full):
                kept.extend(live, SimpleNamespace(details={}))
        assert [kept.order.successor(event.node, chain)
                for event in full for chain in range(2)] \
            == oracle.successors(2)


class TestResumedSyncCycle:
    def test_a_resumed_fork_edge_closing_a_cycle_is_recorded(self):
        # Thread 0 reads a write of thread 1, then forks thread 1: the
        # fork edge arrives after the reads-from edge it closes a cycle
        # with, and no read is new.
        trace = Trace()
        trace.write(1, "x", value=1)
        trace.read(0, "x", value=1)
        kept = SaturatedOrder(IncrementalCSST(2, 4))
        first = SimpleNamespace(details={})
        kept.extend(trace, first)
        assert "closure_cycle" not in first.details and not kept.cyclic
        trace.fork(0, 1)
        second = SimpleNamespace(details={})
        kept.extend(trace, second)
        assert second.details["closure_cycle"] and kept.cyclic
        batch = SimpleNamespace(details={})
        saturate_trace(trace, IncrementalCSST(2, 4), batch)
        assert batch.details["closure_cycle"]


class TestKeptCandidates:
    def test_groups_keep_first_add_order_and_items_merge_sorted(self):
        kept = KeptCandidates()
        kept.add("b", [(2, "b2")])
        kept.add("a", [])
        kept.add("b", [(1, "b1"), (3, "b3")])
        kept.add("a", [(0, "a0")])
        assert list(kept.sweep(lambda item: False)) == [
            (1, "b1"), (2, "b2"), (3, "b3"), (0, "a0")]

    def test_ruled_out_candidates_leave_for_good(self):
        kept = KeptCandidates()
        kept.add("x", [(0, "keep"), (1, "drop")])
        assert list(kept.sweep(lambda item: item[1] == "drop")) \
            == [(0, "keep")]
        seen = []
        assert list(kept.sweep(lambda item: seen.append(item))) \
            == [(0, "keep")]
        assert seen == [(0, "keep")]


#: Edges race-prediction inserts on racy 4x800 seed 1 (sync plus
#: saturation).
INSERTS_RACY_4X800 = 984


class TestFixpoint:
    """``saturate`` checks reads until none is stale, so its order is the
    least fixpoint, and the kept order of a stream reaches it too."""

    @pytest.mark.parametrize("backend", incremental_backends())
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
    def test_a_second_saturate_inserts_nothing(self, backend, shape):
        kind, threads, events, seed = shape
        trace = build_trace(kind, threads, events, seed=seed)
        order = make_partial_order(backend, max(trace.threads) + 1,
                                   trace.max_thread_length)
        engine = _engine(trace, order)
        _sync(engine, trace)
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
