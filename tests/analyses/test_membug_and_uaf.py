"""Tests for the memory-bug prediction and use-after-free query generation."""

import pytest

from repro.analyses.membug import predict_memory_bugs
from repro.analyses.uaf import generate_uaf_queries
from repro.trace import Trace
from repro.trace.generators import memory_trace


def _escaping_object_trace():
    """Thread 0 allocates and frees; thread 1 uses the object unsynchronised."""
    trace = Trace(name="uaf-candidate")
    trace.alloc(0, "p")
    trace.write(0, "p", value=1)
    trace.read(1, "p")
    trace.free(0, "p")
    return trace


def _join_protected_trace():
    """The free happens only after joining the using thread."""
    trace = Trace(name="join-protected")
    trace.alloc(0, "p")
    trace.fork(0, 1)
    trace.read(1, "p")
    trace.join(0, 1)
    trace.free(0, "p")
    return trace


def _double_free_trace():
    trace = Trace(name="double-free")
    trace.alloc(0, "p")
    trace.free(0, "p")
    trace.free(1, "p")
    return trace


class TestMemoryBugFindings:
    def test_unordered_use_and_free_is_reported(self):
        result = predict_memory_bugs(_escaping_object_trace())
        kinds = {finding.kind for finding in result.findings}
        assert "use-after-free" in kinds

    def test_join_ordering_suppresses_use_after_free(self):
        result = predict_memory_bugs(_join_protected_trace())
        assert all(finding.kind != "use-after-free" for finding in result.findings)

    def test_double_free_reported(self):
        result = predict_memory_bugs(_double_free_trace())
        kinds = {finding.kind for finding in result.findings}
        assert "double-free" in kinds

    def test_common_lock_suppresses_bug(self):
        trace = Trace()
        trace.alloc(0, "p")
        trace.acquire(0, "l")
        trace.free(0, "p")
        trace.release(0, "l")
        trace.acquire(1, "l")
        trace.read(1, "p")
        trace.release(1, "l")
        result = predict_memory_bugs(trace)
        assert result.finding_count == 0

    def test_finding_reports_address(self):
        result = predict_memory_bugs(_escaping_object_trace())
        assert result.findings[0].address == "p"
        assert "p" in str(result.findings[0])

    def test_accesses_to_untracked_memory_ignored(self):
        trace = Trace()
        trace.write(0, "global", value=1)
        trace.free(1, "q")          # freed but never allocated in the trace
        trace.alloc(1, "q")
        result = predict_memory_bugs(trace)
        assert result.details["candidates"] == 0


class TestUafQueries:
    def test_query_generated_for_candidate(self):
        result = generate_uaf_queries(_escaping_object_trace())
        assert result.finding_count == 1
        query = result.findings[0]
        assert query.address == "p"
        assert query.constraint_count >= 1
        assert query.constraints[0].reason == "target order"

    def test_no_query_when_order_excludes_candidate(self):
        result = generate_uaf_queries(_join_protected_trace())
        assert result.finding_count == 0

    def test_constraint_totals_recorded(self):
        result = generate_uaf_queries(_escaping_object_trace())
        assert result.details["constraints_generated"] >= result.finding_count

    def test_cone_covers_both_threads(self):
        result = generate_uaf_queries(_escaping_object_trace())
        cone = dict(result.findings[0].cone_sizes)
        assert 0 in cone and 1 in cone

    def test_query_str_mentions_address(self):
        result = generate_uaf_queries(_escaping_object_trace())
        assert "p" in str(result.findings[0])


class TestBackendIndependence:
    @pytest.mark.parametrize("backend", ["vc-flat", "st", "incremental-csst"])
    def test_membug_findings_backend_independent(self, backend):
        trace = memory_trace(num_threads=3, events_per_thread=80, seed=5)
        reference = predict_memory_bugs(trace, backend="incremental-csst")
        result = predict_memory_bugs(trace, backend=backend)
        assert result.finding_count == reference.finding_count

    @pytest.mark.parametrize("backend", ["vc-flat", "st", "incremental-csst"])
    def test_uaf_queries_backend_independent(self, backend):
        trace = memory_trace(num_threads=3, events_per_thread=80, seed=6)
        reference = generate_uaf_queries(trace, backend="incremental-csst")
        result = generate_uaf_queries(trace, backend=backend)
        assert result.finding_count == reference.finding_count
        assert result.details["constraints_generated"] == \
            reference.details["constraints_generated"]
