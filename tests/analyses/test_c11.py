"""Tests for the C11 race-detection analysis."""

import pytest

from repro.analyses.c11 import C11Race, C11RaceAnalysis, detect_c11_races
from repro.trace import MemoryOrder, Trace
from repro.trace.generators import build_trace, c11_trace


def _racy_plain_accesses():
    trace = Trace(name="plain-race")
    trace.write(0, "data", value=1)
    trace.read(1, "data")
    return trace


def _release_acquire_synchronised():
    """The message-passing idiom: the data write is ordered before the data
    read through a release store / acquire load on a flag."""
    trace = Trace(name="mp")
    trace.write(0, "data", value=1)
    trace.atomic_write(0, "flag", value=1, memory_order=MemoryOrder.RELEASE)
    trace.atomic_read(1, "flag", value=1, memory_order=MemoryOrder.ACQUIRE)
    trace.read(1, "data")
    return trace


def _relaxed_unsynchronised():
    """Relaxed atomics create no synchronizes-with edge, so the plain
    accesses still race."""
    trace = Trace(name="relaxed")
    trace.write(0, "data", value=1)
    trace.atomic_write(0, "flag", value=1, memory_order=MemoryOrder.RELAXED)
    trace.atomic_read(1, "flag", value=1, memory_order=MemoryOrder.RELAXED)
    trace.read(1, "data")
    return trace


class TestFindings:
    def test_unsynchronised_plain_accesses_race(self):
        result = detect_c11_races(_racy_plain_accesses())
        assert result.finding_count == 1
        assert result.findings[0].variable == "data"

    def test_release_acquire_suppresses_race(self):
        result = detect_c11_races(_release_acquire_synchronised())
        assert result.finding_count == 0
        assert result.details["sw_edges"] == 1

    def test_relaxed_atomics_do_not_synchronise(self):
        result = detect_c11_races(_relaxed_unsynchronised())
        assert result.finding_count == 1
        assert result.details["sw_edges"] == 0

    def test_lock_synchronisation_counts(self):
        trace = Trace()
        trace.acquire(0, "m")
        trace.write(0, "data", value=1)
        trace.release(0, "m")
        trace.acquire(1, "m")
        trace.read(1, "data")
        trace.release(1, "m")
        result = detect_c11_races(trace)
        assert result.finding_count == 0

    def test_atomic_accesses_never_race(self):
        trace = Trace()
        trace.atomic_write(0, "a", value=1, memory_order=MemoryOrder.RELAXED)
        trace.atomic_write(1, "a", value=2, memory_order=MemoryOrder.RELAXED)
        result = detect_c11_races(trace)
        assert result.finding_count == 0

    def test_duplicate_races_deduplicated_by_default(self):
        trace = Trace()
        trace.write(0, "data", value=1)
        trace.read(1, "data")
        trace.write(0, "data", value=2)
        trace.read(1, "data")
        deduplicated = detect_c11_races(trace)
        everything = detect_c11_races(trace, report_all=True)
        assert deduplicated.finding_count <= everything.finding_count


class TestBackendIndependence:
    @pytest.mark.parametrize("backend", ["vc-flat", "st", "incremental-csst"])
    def test_findings_are_backend_independent(self, backend):
        trace = c11_trace(num_threads=4, events_per_thread=80, seed=21)
        reference = detect_c11_races(trace, backend="vc-flat")
        result = detect_c11_races(trace, backend=backend)
        assert result.finding_count == reference.finding_count
        assert result.details["sw_edges"] == reference.details["sw_edges"]


class _ReachableLoopC11(C11RaceAnalysis):
    """Reference detector: the per-access ``reachable`` loop the frontier
    kernel replaced, kept here to pin that the kernel answers alike."""

    def _check_races(self, order, state, event, findings):
        per_thread = state.last_accesses.setdefault(event.variable, {})
        for thread, history in per_thread.items():
            if thread == event.thread:
                continue
            for previous in history:
                if not (previous.is_write or event.is_write):
                    continue
                if order.reachable(previous.node, event.node):
                    continue
                key = (event.variable, previous.thread, event.thread)
                if not self._report_all and key in state.reported:
                    continue
                state.reported.add(key)
                findings.append(C11Race(previous, event))
        history = per_thread.setdefault(event.thread, [])
        history[:] = [e for e in history if e.is_write != event.is_write][-1:]
        history.append(event)


def _race_nodes(result):
    return [(race.first.node, race.second.node) for race in result.findings]


class TestFrontierKernel:
    """The ``predecessor``-frontier race check against the reference loop."""

    @pytest.mark.parametrize("backend", C11RaceAnalysis.applicable_backends())
    @pytest.mark.parametrize("report_all", [False, True])
    @pytest.mark.parametrize("num_threads,events,seed", [
        (2, 200, 1), (2, 200, 2), (4, 300, 3), (4, 300, 4),
        (16, 60, 5), (16, 60, 6),
    ])
    def test_same_answers_as_reachable_loop(self, backend, report_all,
                                             num_threads, events, seed):
        trace = build_trace("c11", num_threads=num_threads, events=events,
                            seed=seed)
        reference = _ReachableLoopC11(backend, report_all=report_all).run(trace)
        result = C11RaceAnalysis(backend, report_all=report_all).run(trace)
        assert _race_nodes(result) == _race_nodes(reference)
        assert result.findings == reference.findings
        assert result.details == reference.details
        assert result.insert_count == reference.insert_count
        assert result.query_count <= reference.query_count

    @pytest.mark.parametrize("report_all", [False, True])
    def test_online_feed_matches_reference(self, report_all):
        trace = build_trace("c11", num_threads=4, events=300, seed=7)
        reference = _ReachableLoopC11("vc-flat", report_all=report_all).run(trace)
        analysis = C11RaceAnalysis("vc-flat", report_all=report_all)
        analysis.begin(Trace(name=trace.name))
        fed = [race for event in trace for race in analysis.feed(event)]
        result = analysis.flush()
        assert fed == reference.findings
        assert result.findings == reference.findings
        assert result.details == reference.details
        assert result.insert_count == reference.insert_count

    def test_issues_at_most_a_fifth_of_the_reference_queries(self):
        trace = build_trace("c11", num_threads=8, events=350, seed=7)
        reference = _ReachableLoopC11("incremental-csst").run(trace)
        result = C11RaceAnalysis("incremental-csst").run(trace)
        assert result.findings == reference.findings
        assert result.query_count * 5 <= reference.query_count
