"""Tests for the predictive deadlock-detection analysis."""

import pytest

from repro.analyses.deadlock import DeadlockPredictionAnalysis, predict_deadlocks
from repro.trace import Trace
from repro.trace.generators import deadlock_trace


def _inverted_lock_order_trace(with_guard: bool = False):
    trace = Trace(name="inverted")
    if with_guard:
        trace.acquire(0, "g")
    trace.acquire(0, "a")
    trace.acquire(0, "b")
    trace.release(0, "b")
    trace.release(0, "a")
    if with_guard:
        trace.release(0, "g")
    if with_guard:
        trace.acquire(1, "g")
    trace.acquire(1, "b")
    trace.acquire(1, "a")
    trace.release(1, "a")
    trace.release(1, "b")
    if with_guard:
        trace.release(1, "g")
    return trace


class TestFindings:
    def test_inverted_lock_order_is_a_deadlock(self):
        result = predict_deadlocks(_inverted_lock_order_trace())
        assert result.finding_count == 1
        pattern = result.findings[0]
        assert set(pattern.locks) == {"a", "b"}
        assert set(pattern.threads) == {0, 1}

    def test_guard_lock_suppresses_deadlock(self):
        result = predict_deadlocks(_inverted_lock_order_trace(with_guard=True))
        assert result.finding_count == 0

    def test_consistent_lock_order_has_no_deadlock(self):
        trace = Trace()
        for thread in (0, 1):
            trace.acquire(thread, "a")
            trace.acquire(thread, "b")
            trace.release(thread, "b")
            trace.release(thread, "a")
        result = predict_deadlocks(trace)
        assert result.finding_count == 0

    def test_single_thread_cannot_deadlock(self):
        trace = Trace()
        trace.acquire(0, "a")
        trace.acquire(0, "b")
        trace.release(0, "b")
        trace.release(0, "a")
        trace.acquire(0, "b")
        trace.acquire(0, "a")
        trace.release(0, "a")
        trace.release(0, "b")
        result = predict_deadlocks(trace)
        assert result.finding_count == 0

    def test_pattern_str_mentions_locks(self):
        result = predict_deadlocks(_inverted_lock_order_trace())
        text = str(result.findings[0])
        assert "a" in text and "b" in text

    def test_max_patterns_cap(self):
        trace = deadlock_trace(num_threads=4, events_per_thread=120,
                               inversion_fraction=0.5, seed=3)
        capped = DeadlockPredictionAnalysis(max_patterns=1).run(trace)
        assert capped.finding_count <= 1


class TestBackendIndependence:
    @pytest.mark.parametrize("backend", ["vc-flat", "st", "incremental-csst"])
    def test_same_deadlocks_on_every_backend(self, backend):
        trace = deadlock_trace(num_threads=4, events_per_thread=90, seed=11)
        reference = predict_deadlocks(trace, backend="incremental-csst")
        result = predict_deadlocks(trace, backend=backend)
        assert result.finding_count == reference.finding_count
        assert result.query_count == reference.query_count
