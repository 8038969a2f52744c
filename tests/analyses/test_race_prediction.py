"""Tests for the predictive race-detection analysis."""

import random

import pytest

from repro.analyses.common.hb import Frontiers, insert_ordering, sync_edges
from repro.analyses.common.saturation import SaturatedOrder, saturate_trace
from repro.analyses.race_prediction import (
    Race,
    RacePredictionAnalysis,
    _WitnessCheck,
    predict_races,
)
from repro.core import make_partial_order
from repro.core.factory import incremental_backends
from repro.trace import Trace
from repro.trace.generators import build_trace, racy_trace


def _unprotected_race_trace():
    trace = Trace(name="unprotected")
    trace.write(0, "x", value=1)
    trace.read(0, "y")
    trace.write(1, "x", value=2)
    trace.read(1, "y")
    return trace


def _lock_protected_trace():
    trace = Trace(name="protected")
    trace.acquire(0, "l")
    trace.write(0, "x", value=1)
    trace.release(0, "l")
    trace.acquire(1, "l")
    trace.write(1, "x", value=2)
    trace.release(1, "l")
    return trace


def _fork_join_ordered_trace():
    trace = Trace(name="fork-join")
    trace.write(0, "x", value=1)
    trace.fork(0, 1)
    trace.write(1, "x", value=2)
    trace.join(0, 1)
    trace.write(0, "x", value=3)
    return trace


class TestFindings:
    def test_unprotected_conflict_is_a_race(self):
        result = predict_races(_unprotected_race_trace())
        assert result.finding_count >= 1
        race = result.findings[0]
        assert race.variable == "x"
        assert {race.first.thread, race.second.thread} == {0, 1}

    def test_common_lock_suppresses_race(self):
        result = predict_races(_lock_protected_trace())
        assert result.finding_count == 0

    def test_fork_join_order_suppresses_race(self):
        result = predict_races(_fork_join_ordered_trace())
        assert result.finding_count == 0

    def test_read_read_is_never_a_race(self):
        trace = Trace()
        trace.read(0, "x")
        trace.read(1, "x")
        result = predict_races(trace)
        assert result.finding_count == 0

    def test_race_str_mentions_variable(self):
        result = predict_races(_unprotected_race_trace())
        assert "x" in str(result.findings[0])


class TestResultMetadata:
    def test_result_records_counts_and_backend(self):
        result = predict_races(_unprotected_race_trace(), backend="incremental-csst")
        assert result.analysis == "race-prediction"
        assert result.backend == "incremental-csst"
        assert result.trace_events == 4
        assert result.trace_threads == 2
        assert result.query_count > 0
        assert result.elapsed_seconds >= 0
        assert "candidates" in result.details

    def test_summary_is_one_line(self):
        result = predict_races(_unprotected_race_trace())
        assert "\n" not in result.summary()
        assert "race-prediction" in result.summary()

    def test_max_candidates_caps_work(self):
        trace = racy_trace(num_threads=4, events_per_thread=60, seed=3)
        capped = RacePredictionAnalysis(max_candidates=5).run(trace)
        assert capped.details["candidates"] <= 5

    @pytest.mark.parametrize("cap", [0, -3])
    def test_non_positive_cap_examines_no_candidate(self, cap):
        trace = racy_trace(num_threads=4, events_per_thread=60, seed=3)
        result = RacePredictionAnalysis(max_candidates=cap).run(trace)
        assert result.details["candidates"] == 0
        assert result.details["checked"] == 0
        assert result.finding_count == 0


class TestBackendIndependence:
    @pytest.mark.parametrize("backend", ["vc-flat", "st", "incremental-csst", "csst"])
    def test_same_races_on_every_backend(self, backend):
        trace = racy_trace(num_threads=3, events_per_thread=60, seed=7)
        reference = predict_races(trace, backend="incremental-csst")
        result = predict_races(trace, backend=backend)
        assert result.finding_count == reference.finding_count
        assert result.insert_count == reference.insert_count
        assert result.query_count == reference.query_count


class _ReachableLoopRace(RacePredictionAnalysis):
    """Reference detector: the per-candidate ``reachable`` loop the
    frontier witness check replaced, kept here to pin that both answer
    alike.  Candidates come from ``Event.conflicts_with``, ordering from
    ``order.ordered`` and every witness test from ``reachable``; the
    closure phase is the analysis's own ``saturate_trace``."""

    def _run(self, trace, order, result):
        saturate_trace(trace, order, result)
        candidates = self._conflicting_pairs(trace)
        result.details["candidates"] = len(candidates)
        reads_from = trace.reads_from()
        writes = trace.writes_by_variable()
        locks_held = trace.locks_held_map()
        checked = 0
        for first, second in candidates:
            checked += 1
            if locks_held[first.node] & locks_held[second.node]:
                continue
            if order.ordered(first.node, second.node):
                continue
            if self._witness_feasible(trace, order, first, second,
                                      reads_from, writes):
                result.findings.append(Race(first, second))
        result.details["checked"] = checked

    def _conflicting_pairs(self, trace):
        cap = self._max_candidates
        window = self._candidate_window
        pairs = []
        if cap is not None and cap <= 0:
            return pairs
        for accesses in trace.accesses_by_variable().values():
            for i, first in enumerate(accesses):
                upper = len(accesses)
                if window is not None:
                    upper = min(upper, i + 1 + window)
                for second in accesses[i + 1 : upper]:
                    if first.conflicts_with(second):
                        pairs.append((first, second))
                        if cap is not None and len(pairs) >= cap:
                            return pairs
        return pairs

    def _witness_feasible(self, trace, order, first, second, reads_from,
                          writes):
        cone = self._cone(trace, order, first, second)
        for thread, limit in cone.items():
            events = trace.thread_events(thread)
            start = max(0, limit + 1 - self._witness_window)
            for event in events[start : limit + 1]:
                if not event.is_read or event is first or event is second:
                    continue
                writer = reads_from.get(event)
                if writer is None:
                    continue
                if not self._inside_cone(cone, writer):
                    return False
                for competitor in writes.get(event.variable, ()):
                    if (competitor is writer
                            or not self._inside_cone(cone, competitor)):
                        continue
                    if (order.reachable(writer.node, competitor.node)
                            and order.reachable(competitor.node, event.node)):
                        return False
        return True

    @staticmethod
    def _cone(trace, order, first, second):
        cone = {}
        for thread in trace.threads:
            best = -1
            for anchor in (first, second):
                if thread == anchor.thread:
                    best = max(best, anchor.index - 1)
                    continue
                predecessor = order.predecessor(anchor.node, thread)
                if predecessor is not None:
                    best = max(best, predecessor)
            if best >= 0:
                cone[thread] = best
        return cone

    @staticmethod
    def _inside_cone(cone, event):
        return event.index <= cone.get(event.thread, -1)


def _race_nodes(result):
    return [(race.first.node, race.second.node) for race in result.findings]


class TestFrontierWitness:
    """The memoized frontier witness check against the reference loop."""

    @pytest.mark.parametrize("backend",
                             RacePredictionAnalysis.applicable_backends())
    @pytest.mark.parametrize("options", [
        {}, {"candidate_window": None}, {"max_candidates": 40},
    ], ids=["default-window", "no-window", "capped"])
    @pytest.mark.parametrize("kind", ["racy", "locked-mix"])
    @pytest.mark.parametrize("num_threads,events,seed", [
        (2, 120, 1), (4, 60, 2), (16, 12, 3),
    ])
    def test_same_answers_as_reachable_loop(self, backend, options, kind,
                                             num_threads, events, seed):
        trace = build_trace(kind, num_threads=num_threads, events=events,
                            seed=seed)
        reference = _ReachableLoopRace(backend, **options).run(trace)
        result = RacePredictionAnalysis(backend, **options).run(trace)
        assert _race_nodes(result) == _race_nodes(reference)
        assert result.findings == reference.findings
        assert result.details == reference.details
        assert result.insert_count == reference.insert_count
        assert result.query_count <= reference.query_count

    def test_racy_64_threads_asks_a_twentieth_of_the_reference_queries(self):
        # The reference loop asks 30.7M queries here (about 40 s on
        # vc-flat), so the bound is pinned rather than re-measured.
        trace = build_trace("racy", num_threads=64, events=50, seed=1)
        result = RacePredictionAnalysis("vc-flat").run(trace)
        assert result.details["candidates"] == 20581
        assert result.query_count <= 1_500_000

    @pytest.mark.parametrize("backend",
                             RacePredictionAnalysis.applicable_backends())
    @pytest.mark.parametrize("seed", range(6))
    def test_blocked_reads_match_reference_on_unsaturated_orders(self, backend,
                                                                 seed):
        # After saturation no competing write is ever forced between a
        # writer and its read, so the blocked bit needs an order that was
        # not saturated: sync order plus random acyclic cross-thread edges.
        trace = build_trace("racy", num_threads=4, events=30, seed=seed)
        order = make_partial_order(backend, trace.num_threads,
                                   capacity_hint=32)
        for source, target in sync_edges(trace):
            insert_ordering(order, source, target)
        rng = random.Random(seed)
        nodes = [event.node for event in trace]
        for _ in range(60):
            source, target = rng.sample(nodes, 2)
            if (source[0] != target[0]
                    and not order.reachable(target, source)
                    and not order.reachable(source, target)):
                order.insert_edge(source, target)
        reference = _ReachableLoopRace(backend)
        check = _WitnessCheck(trace, Frontiers(order), window=40)
        reads_from = trace.reads_from()
        writes = trace.writes_by_variable()
        verdicts = []
        for first, second in reference._conflicting_pairs(trace):
            expected = reference._witness_feasible(trace, order, first, second,
                                                   reads_from, writes)
            assert check.feasible(first, second) == expected, (first, second)
            verdicts.append(expected)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("backend",
                             RacePredictionAnalysis.applicable_backends())
    def test_competitor_at_the_read_frontier_blocks_the_read(self, backend):
        # r reads x from a, but the order forces c between them: a -> c -> r.
        # c is exactly predecessor(r, 2), the edge of the prefix of thread
        # 2 that reaches r.
        trace = Trace()
        writer = trace.write(0, "x", value=1)
        read = trace.read(1, "x")
        first = trace.write(1, "y", value=1)
        second = trace.write(3, "y", value=2)
        competitor = trace.write(2, "x", value=2)
        order = make_partial_order(backend, 4, capacity_hint=4)
        order.insert_edge(writer.node, competitor.node)
        order.insert_edge(competitor.node, read.node)
        reference = _ReachableLoopRace(backend)
        assert not reference._witness_feasible(
            trace, order, first, second, trace.reads_from(),
            trace.writes_by_variable())
        check = _WitnessCheck(trace, Frontiers(order), window=40)
        assert not check.feasible(first, second)


class _AssignedTrace(Trace):
    """A growing trace whose reads observe ``assignment`` (read -> writer
    or ``None``).  A read's entry appears once the read and its writer
    are both in the trace, after the entries before it, so an entry whose
    writer follows its read is an edge that leads backwards in the
    trace."""

    def __init__(self, assignment):
        super().__init__(name="assigned")
        self._assignment = assignment
        self._present = set()
        self._waiting = {}
        self._entries = {}

    def add(self, event):
        super().add(event)
        self._present.add(event)
        if event in self._assignment:
            writer = self._assignment[event]
            if writer is None or writer in self._present:
                self._entries[event] = writer
            else:
                self._waiting.setdefault(writer, []).append(event)
        for read in self._waiting.pop(event, ()):
            self._entries[read] = event
        return event

    def reads_from(self):
        return dict(self._entries)


def _reshuffled(trace, rng):
    """Each read of ``trace`` observes a random other write of its
    variable, wherever it sits in the trace."""
    writes = trace.writes_by_variable()
    assignment = {}
    for read in trace.reads_from():
        others = [write for write in writes.get(read.variable, ())
                  if write is not read]
        assignment[read] = rng.choice(others) if others else None
    return assignment


def _flushed_candidates(backend, events, grown, flush_every):
    """Feed ``events`` into the empty trace ``grown`` and run
    race-prediction on its kept order every ``flush_every`` events, as a
    stream flush does.  Yields, after each flush that met no cycle, the
    trace, the order and the live candidates as node pairs."""
    analysis = RacePredictionAnalysis(backend)
    full = Trace()
    for event in events:
        full.add(event)
    order = analysis._make_order(full)
    analysis._kept = SaturatedOrder(order)
    for position, event in enumerate(events, 1):
        grown.add(event)
        if position % flush_every and position != len(events):
            continue
        result = analysis.run(grown, order)
        if "closure_cycle" in result.details:
            return
        yield grown, order, {
            (first.node, second.node) for _i, _j, first, second
            in analysis._kept.candidates.sweep(lambda pair: False)}


def _reference_candidates(trace, order):
    """The conflicting pairs of ``trace`` in the default window that no
    common lock protects and ``reachable`` orders neither way, and how
    many pairs only the later access's path to the earlier one orders."""
    locks_held = trace.locks_held_map()
    live, backwards = set(), 0
    for first, second in _ReachableLoopRace()._conflicting_pairs(trace):
        if locks_held[first.node] & locks_held[second.node]:
            continue
        if order.reachable(first.node, second.node):
            continue
        if order.reachable(second.node, first.node):
            backwards += 1
            continue
        live.add((first.node, second.node))
    return live, backwards


class TestLiveCandidates:
    """After every flush the kept candidates are exactly the unprotected
    conflicting pairs that pairwise ``reachable`` leaves unordered, on the
    observed assignment and on reshuffled ones whose edges lead
    backwards in the trace, where the reverse test decides."""

    KINDS = [("racy", 3, 14), ("locked-mix", 3, 24), ("racy", 6, 10)]

    @pytest.mark.parametrize("backend", incremental_backends())
    @pytest.mark.parametrize("kind,threads,events", KINDS)
    def test_observed_assignment(self, backend, kind, threads, events):
        for seed in range(4):
            trace = build_trace(kind, num_threads=threads, events=events,
                                seed=seed)
            flushes = 0
            for prefix, order, live in _flushed_candidates(
                    backend, list(trace), Trace(), flush_every=7):
                assert live == _reference_candidates(prefix, order)[0]
                flushes += 1
            assert flushes == -(-len(trace) // 7)

    @pytest.mark.parametrize("backend", incremental_backends())
    def test_reshuffled_assignments(self, backend):
        backwards = flushes = 0
        for kind, threads, events in self.KINDS:
            for seed in range(6):
                trace = build_trace(kind, num_threads=threads,
                                    events=events, seed=seed)
                rng = random.Random(seed)
                for _ in range(3):
                    grown = _AssignedTrace(_reshuffled(trace, rng))
                    for prefix, order, live in _flushed_candidates(
                            backend, list(trace), grown, flush_every=7):
                        expected, reverse = _reference_candidates(prefix,
                                                                  order)
                        assert live == expected
                        backwards += reverse
                        flushes += 1
        assert flushes and backwards
