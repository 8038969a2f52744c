"""Tests for the x86-TSO consistency-checking analysis."""

import pytest

from repro.analyses.tso import TSOConsistencyAnalysis, check_tso_consistency
from repro.core import INCREMENTAL_BACKENDS
from repro.errors import AnalysisError
from repro.trace import MemoryOrder, Trace
from repro.trace.generators import build_trace, tso_trace

from test_saturation import TSOSaturationOracle, tso_outcome


def _sb_litmus_trace():
    """The classic store-buffering litmus test: both reads observe the
    initial value.  Forbidden under sequential consistency, allowed under
    x86-TSO thanks to store buffers."""
    trace = Trace(name="sb")
    trace.atomic_write(0, "x", value=1, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_read(0, "y", value=0, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_write(1, "y", value=2, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_read(1, "x", value=0, memory_order=MemoryOrder.SEQ_CST)
    return trace


def _coherence_violation_trace():
    """A read observes a value and a later read of the same variable goes
    back to the initial value: no TSO execution explains this."""
    trace = Trace(name="coherence-violation")
    trace.atomic_write(0, "x", value=1, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_read(1, "x", value=1, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_read(1, "x", value=0, memory_order=MemoryOrder.SEQ_CST)
    return trace


def _simple_consistent_trace():
    trace = Trace(name="simple")
    trace.atomic_write(0, "x", value=1, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_read(1, "x", value=1, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_write(1, "y", value=2, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_read(0, "y", value=2, memory_order=MemoryOrder.SEQ_CST)
    return trace


class TestVerdicts:
    def test_store_buffering_is_tso_consistent(self):
        result = check_tso_consistency(_sb_litmus_trace())
        assert result.details["consistent"] is True
        assert result.finding_count == 0

    def test_coherence_violation_is_inconsistent(self):
        result = check_tso_consistency(_coherence_violation_trace())
        assert result.details["consistent"] is False
        assert result.finding_count == 1

    def test_simple_message_passing_is_consistent(self):
        result = check_tso_consistency(_simple_consistent_trace())
        assert result.details["consistent"] is True

    def test_sc_like_generated_trace_is_consistent(self):
        trace = tso_trace(num_threads=3, events_per_thread=80,
                          stale_read_fraction=0.0, seed=2)
        result = check_tso_consistency(trace)
        assert result.details["consistent"] is True

    def test_witness_mentions_reason(self):
        result = check_tso_consistency(_coherence_violation_trace())
        assert "cycle" in str(result.findings[0])


class TestMechanics:
    def test_two_chains_per_thread(self):
        analysis = TSOConsistencyAnalysis()
        assert analysis._num_chains(_sb_litmus_trace()) == 4

    def test_duplicate_write_values_rejected(self):
        trace = Trace()
        trace.atomic_write(0, "x", value=7, memory_order=MemoryOrder.SEQ_CST)
        trace.atomic_write(1, "x", value=7, memory_order=MemoryOrder.SEQ_CST)
        with pytest.raises(AnalysisError, match="duplicate written value"):
            check_tso_consistency(trace)

    def test_read_of_unknown_value_rejected(self):
        trace = Trace()
        trace.atomic_read(0, "x", value=99, memory_order=MemoryOrder.SEQ_CST)
        with pytest.raises(AnalysisError, match="no write"):
            check_tso_consistency(trace)

    def test_details_report_counts(self):
        result = check_tso_consistency(_sb_litmus_trace())
        assert result.details["reads"] == 2
        assert result.details["writes"] == 2
        assert result.insert_count > 0


class TestBackendIndependence:
    @pytest.mark.parametrize("backend", ["vc-flat", "st", "incremental-csst"])
    def test_verdict_is_backend_independent(self, backend):
        trace = tso_trace(num_threads=3, events_per_thread=60,
                          stale_read_fraction=0.2, seed=8)
        reference = check_tso_consistency(trace, backend="incremental-csst")
        result = check_tso_consistency(trace, backend=backend)
        assert result.details["consistent"] == reference.details["consistent"]
        assert result.insert_count == reference.insert_count


class TestFixpoint:
    """Saturation runs to the least fixpoint of the rules: the relation
    of the round-by-round oracle, on consistent traces whose fixpoint
    that oracle needs several rounds for."""

    @pytest.mark.parametrize("backend", INCREMENTAL_BACKENDS)
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_consistent_multi_round_traces_reach_a_fixpoint(
            self, backend, seed):
        trace = build_trace("tso", num_threads=4, events=50, seed=seed,
                            stale_read_fraction=0.0)
        oracle = TSOSaturationOracle(trace)
        assert not oracle.cyclic and oracle.rounds >= 2
        consistent, relation = tso_outcome(backend, trace, oracle.nodes)
        assert consistent
        assert relation == oracle.successors(2 * len(trace.threads))
