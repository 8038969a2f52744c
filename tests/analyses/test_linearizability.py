"""Tests for the linearizability root-causing analysis."""

import pytest

from repro.analyses.linearizability import (
    LinearizabilityAnalysis,
    QueueSpec,
    RegisterSpec,
    SetSpec,
    check_linearizability,
    extract_operations,
)
from repro.errors import AnalysisError, TraceError
from repro.trace import Trace
from repro.trace.generators import history_trace


def _sequential_set_history():
    trace = Trace(name="sequential")
    trace.begin(0, "add", argument=1)
    trace.end(0, "add", result=True)
    trace.begin(1, "contains", argument=1)
    trace.end(1, "contains", result=True)
    trace.begin(1, "remove", argument=1)
    trace.end(1, "remove", result=True)
    return trace


def _overlapping_linearizable_history():
    """contains(1) overlaps add(1); returning False is explained by
    linearizing the contains before the add."""
    trace = Trace(name="overlapping")
    trace.begin(0, "add", argument=1)
    trace.begin(1, "contains", argument=1)
    trace.end(1, "contains", result=False)
    trace.end(0, "add", result=True)
    trace.begin(1, "contains", argument=1)
    trace.end(1, "contains", result=True)
    return trace


def _violating_history():
    """contains(5) returns True although 5 was never added and the only add
    (of key 1) completed before it started: not linearizable."""
    trace = Trace(name="violation")
    trace.begin(0, "add", argument=1)
    trace.end(0, "add", result=True)
    trace.begin(1, "contains", argument=5)
    trace.end(1, "contains", result=True)
    return trace


class TestOperationExtraction:
    def test_operations_extracted_in_completion_order(self):
        operations = extract_operations(_sequential_set_history())
        assert [op.name for op in operations] == ["add", "contains", "remove"]
        assert operations[0].thread == 0
        assert operations[1].ordinal == 0
        assert operations[2].ordinal == 1

    def test_nested_begin_rejected(self):
        trace = Trace()
        trace.begin(0, "add", argument=1)
        trace.begin(0, "add", argument=2)
        with pytest.raises(TraceError):
            extract_operations(trace)

    def test_unmatched_end_rejected(self):
        trace = Trace()
        trace.end(0, "add", result=True)
        with pytest.raises(TraceError):
            extract_operations(trace)

    def test_unfinished_operation_rejected(self):
        trace = Trace()
        trace.begin(0, "add", argument=1)
        with pytest.raises(TraceError):
            extract_operations(trace)


class TestSequentialSpecs:
    def test_set_spec_semantics(self):
        spec = SetSpec()
        state = spec.initial_state()
        operations = extract_operations(_sequential_set_history())
        result, state = spec.apply(state, operations[0])
        assert result is True
        result, state = spec.apply(state, operations[1])
        assert result is True
        result, state = spec.apply(state, operations[2])
        assert result is True and state == frozenset()

    def test_queue_spec_semantics(self):
        spec = QueueSpec()
        trace = Trace()
        trace.begin(0, "enqueue", argument=3)
        trace.end(0, "enqueue", result=True)
        trace.begin(0, "dequeue")
        trace.end(0, "dequeue", result=3)
        trace.begin(0, "dequeue")
        trace.end(0, "dequeue", result=None)
        operations = extract_operations(trace)
        state = spec.initial_state()
        outcomes = []
        for operation in operations:
            outcome, state = spec.apply(state, operation)
            outcomes.append(outcome)
        assert outcomes == [True, 3, None]

    def test_register_spec_semantics(self):
        spec = RegisterSpec(initial_value=7)
        trace = Trace()
        trace.begin(0, "read")
        trace.end(0, "read", result=7)
        trace.begin(0, "write", argument=3)
        trace.end(0, "write", result=True)
        trace.begin(0, "read")
        trace.end(0, "read", result=3)
        operations = extract_operations(trace)
        state = spec.initial_state()
        outcomes = []
        for operation in operations:
            outcome, state = spec.apply(state, operation)
            outcomes.append(outcome)
        assert outcomes == [7, True, 3]

    def test_unknown_operation_rejected(self):
        trace = Trace()
        trace.begin(0, "pop")
        trace.end(0, "pop", result=None)
        operation = extract_operations(trace)[0]
        with pytest.raises(AnalysisError):
            SetSpec().apply(frozenset(), operation)

    def test_unknown_spec_name_rejected(self):
        with pytest.raises(AnalysisError):
            LinearizabilityAnalysis(spec="btree")


class TestVerdicts:
    def test_sequential_history_is_linearizable(self):
        result = check_linearizability(_sequential_set_history())
        assert result.details["verdict"] == "linearizable"
        assert result.finding_count == 0

    def test_overlapping_history_is_linearizable(self):
        result = check_linearizability(_overlapping_linearizable_history())
        assert result.details["verdict"] == "linearizable"

    def test_violation_detected_with_blocking_window(self):
        result = check_linearizability(_violating_history())
        assert result.details["verdict"] == "violation"
        violation = result.findings[0]
        assert any(op.name == "contains" for op in violation.blocking)
        assert "contains" in str(violation)

    def test_generated_history_without_violation_is_linearizable(self):
        trace = history_trace(num_threads=3, operations_per_thread=12,
                              inject_violation=False, seed=3)
        result = check_linearizability(trace)
        assert result.details["verdict"] == "linearizable"

    def test_generated_queue_history_is_linearizable(self):
        trace = history_trace(num_threads=3, operations_per_thread=10,
                              data_structure="queue", inject_violation=False,
                              seed=4)
        result = check_linearizability(trace, spec="queue")
        assert result.details["verdict"] == "linearizable"

    def test_max_steps_produces_unknown(self):
        trace = history_trace(num_threads=3, operations_per_thread=12,
                              inject_violation=True, seed=5)
        result = check_linearizability(trace, max_steps=3)
        assert result.details["verdict"] in ("unknown", "violation", "linearizable")
        assert result.details["steps"] <= 4


class TestDynamicBackendRequirement:
    def test_incremental_backend_rejected(self):
        with pytest.raises(AnalysisError, match="decremental"):
            check_linearizability(_sequential_set_history(), backend="vc-flat")

    @pytest.mark.parametrize("backend", ["csst", "graph"])
    def test_verdicts_agree_across_dynamic_backends(self, backend):
        trace = history_trace(num_threads=3, operations_per_thread=10,
                              inject_violation=True, seed=9)
        reference = check_linearizability(trace, backend="csst")
        result = check_linearizability(trace, backend=backend)
        assert result.details["verdict"] == reference.details["verdict"]
        assert result.details["steps"] == reference.details["steps"]

    def test_deletions_occur_when_backtracking(self):
        trace = history_trace(num_threads=3, operations_per_thread=12,
                              inject_violation=True, seed=13)
        result = check_linearizability(trace, backend="csst")
        # A violating search must backtrack, and backtracking deletes edges.
        if result.details["verdict"] == "violation":
            assert result.delete_count > 0
