"""Tests for the analysis scaffolding (result container, backend handling)."""

import pytest

from repro import analyses
from repro.analyses.common.base import Analysis, AnalysisResult
from repro.core import CSST, IncrementalCSST, InstrumentedOrder
from repro.errors import AnalysisError
from repro.trace import Trace
from repro.trace.generators import GENERATOR_REGISTRY, build_trace


class _CountingAnalysis(Analysis):
    """Minimal analysis used to exercise the base-class machinery."""

    name = "counting"

    def _run(self, trace, order, result):
        for event in trace:
            if event.thread != 0:
                order.insert_edge((0, 0), event.node)
        result.findings.append("done")
        result.details["events"] = len(trace)


class _DeletingAnalysis(_CountingAnalysis):
    name = "deleting"
    requires_deletion = True


@pytest.fixture
def two_thread_trace():
    trace = Trace(name="tiny")
    trace.write(0, "x", value=1)
    trace.read(1, "x", value=1)
    trace.read(1, "y")
    return trace


class TestAnalysisRun:
    def test_run_populates_result(self, two_thread_trace):
        result = _CountingAnalysis("incremental-csst").run(two_thread_trace)
        assert isinstance(result, AnalysisResult)
        assert result.analysis == "counting"
        assert result.trace_name == "tiny"
        assert result.trace_events == 3
        assert result.trace_threads == 2
        assert result.findings == ["done"]
        assert result.insert_count == 2
        assert result.details["events"] == 3
        assert result.elapsed_seconds >= 0

    def test_backend_name_recorded_for_string_spec(self, two_thread_trace):
        result = _CountingAnalysis("vc-flat").run(two_thread_trace)
        assert result.backend == "vc-flat"

    def test_backend_instance_accepted(self, two_thread_trace):
        backend = IncrementalCSST(2, 4)
        result = _CountingAnalysis(backend).run(two_thread_trace)
        assert result.backend == "IncrementalCSST"
        assert backend.edge_count == 2

    def test_capacity_hint_derived_from_trace(self, two_thread_trace):
        analysis = _CountingAnalysis("incremental-csst")
        order = analysis._make_order(two_thread_trace)
        assert isinstance(order, InstrumentedOrder)
        assert order.capacity_hint == two_thread_trace.max_thread_length

    def test_deletion_requirement_enforced(self, two_thread_trace):
        with pytest.raises(AnalysisError, match="decremental"):
            _DeletingAnalysis("vc-flat").run(two_thread_trace)

    def test_deletion_requirement_satisfied_by_csst(self, two_thread_trace):
        result = _DeletingAnalysis("csst").run(two_thread_trace)
        assert result.findings == ["done"]

    def test_deletion_requirement_with_instance(self, two_thread_trace):
        result = _DeletingAnalysis(CSST(2, 4)).run(two_thread_trace)
        assert result.findings == ["done"]


class TestAnalysisRegistry:
    def test_library_analyses_are_auto_registered(self):
        registry = Analysis.registered()
        assert set(registry) == {
            "race-prediction", "deadlock-prediction", "memory-bugs",
            "tso-consistency", "use-after-free", "c11-races",
            "linearizability"}

    def test_ad_hoc_subclasses_stay_out_of_the_registry(self):
        # _CountingAnalysis lives in this test module, not in repro.*.
        assert "counting" not in Analysis.registered()
        assert "deleting" not in Analysis.registered()

    def test_by_name_resolves_and_rejects(self):
        from repro.analyses.race_prediction import RacePredictionAnalysis

        assert Analysis.by_name("race-prediction") is RacePredictionAnalysis
        with pytest.raises(AnalysisError, match="unknown analysis"):
            Analysis.by_name("fuzzing")

    def test_explicit_register_hook(self):
        from repro.analyses.common.base import _ANALYSIS_REGISTRY

        try:
            Analysis.register(_CountingAnalysis)
            assert Analysis.by_name("counting") is _CountingAnalysis
        finally:
            _ANALYSIS_REGISTRY.pop("counting", None)

    def test_register_requires_a_name(self):
        class Anonymous(Analysis):
            name = ""

        with pytest.raises(AnalysisError, match="name"):
            Analysis.register(Anonymous)

    def test_backend_capability_classmethods(self):
        assert _CountingAnalysis.default_backend() == "incremental-csst"
        assert _DeletingAnalysis.default_backend() == "csst"
        assert "vc-flat" in _CountingAnalysis.applicable_backends()
        assert set(_DeletingAnalysis.applicable_backends()) == {
            "graph", "csst"}


class TestAnalysisResult:
    def test_operation_count_sums_components(self):
        result = AnalysisResult("a", "t", 10, 2, "vc-flat",
                                insert_count=3, delete_count=1, query_count=5)
        assert result.operation_count == 9
        assert result.finding_count == 0

    def test_summary_contains_key_fields(self):
        result = AnalysisResult("a", "t", 10, 2, "vc-flat", findings=["x"],
                                elapsed_seconds=0.5)
        summary = result.summary()
        assert "a[vc-flat]" in summary and "1 findings" in summary


#: The module-level convenience wrapper of every registered analysis.
_WRAPPERS = {
    "race-prediction": analyses.predict_races,
    "deadlock-prediction": analyses.predict_deadlocks,
    "memory-bugs": analyses.predict_memory_bugs,
    "use-after-free": analyses.generate_uaf_queries,
    "tso-consistency": analyses.check_tso_consistency,
    "c11-races": analyses.detect_c11_races,
    "linearizability": analyses.check_linearizability,
}


class TestDefaultBackend:
    """Constructor, wrapper and ``default_backend()`` name one default."""

    def test_every_analysis_has_a_wrapper(self):
        assert set(_WRAPPERS) == set(Analysis.registered())

    @pytest.mark.parametrize("name", sorted(_WRAPPERS))
    def test_constructor_and_wrapper_use_default_backend(self, name):
        cls = Analysis.by_name(name)
        kind = next(kind for kind, entry in sorted(GENERATOR_REGISTRY.items())
                    if name in entry.analyses)
        trace = build_trace(kind, num_threads=2, events=4, seed=1)
        assert cls().run(trace).backend == cls.default_backend()
        assert _WRAPPERS[name](trace).backend == cls.default_backend()


class TestBackendOptions:
    """A keyword no backend constructor takes is a typed error when the
    analysis is built, not a ``TypeError`` from the backend at run time."""

    @pytest.mark.parametrize("backend", ["vc-flat", "incremental-csst"])
    def test_block_size_rejected_by_backends_without_blocks(self, backend):
        cls = Analysis.by_name("deadlock-prediction")
        with pytest.raises(AnalysisError,
                           match=f"backend '{backend}' does not accept "
                                 f"'block_size'"):
            cls(backend, block_size=4)

    def test_capacity_hint_is_not_an_option(self):
        with pytest.raises(AnalysisError, match="'capacity_hint'"):
            Analysis.by_name("deadlock-prediction")("csst", capacity_hint=8)

    def test_csst_takes_block_size(self):
        cls = Analysis.by_name("linearizability")
        trace = build_trace("history", num_threads=2, events=8, seed=1)
        assert cls.default_backend() == "csst"
        assert (cls(block_size=4).run(trace).findings
                == cls().run(trace).findings)
