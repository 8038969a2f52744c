"""Tests for the differential fuzzer and its delta-debugging minimizer."""

import json

import pytest

from repro.analyses.common.base import Analysis
from repro.core import INCREMENTAL_BACKENDS
from repro.errors import FuzzError
from repro.gen import fuzz as fuzz_module
from repro.gen.fuzz import (
    FuzzCase,
    comparison_plan,
    minimize_trace,
    plan_cases,
    rebuild_trace,
    run_fuzz,
)
from repro.trace.generators import build_trace
from repro.trace.trace import Trace


class TestPlanning:
    def test_plan_is_deterministic(self):
        assert plan_cases(20, quick=True) == plan_cases(20, quick=True)

    def test_kinds_rotate_round_robin(self):
        cases = plan_cases(24, kinds=["racy", "c11"], quick=True)
        assert [case.kind for case in cases[:4]] == \
            ["racy", "c11", "racy", "c11"]

    def test_scenario_kinds_get_scheduler_params(self):
        cases = plan_cases(3, kinds=["locked-mix"], quick=True)
        schedulers = [dict(case.params)["scheduler"] for case in cases]
        assert schedulers == ["rr", "weighted", "adversarial"]

    def test_schedulers_cycle_per_kind_even_with_multiple_of_three_kinds(self):
        # Regression: with a kind count divisible by the scheduler-cycle
        # length, indexing by the global case index would pin every kind
        # to one scheduler forever.
        kinds = ["locked-mix", "mpmc-queue", "fork-join"]
        cases = plan_cases(9, kinds=kinds, quick=True)
        for kind in kinds:
            schedulers = [dict(c.params)["scheduler"] for c in cases
                          if c.kind == kind]
            assert schedulers == ["rr", "weighted", "adversarial"], kind

    def test_history_shapes_stay_tiny(self):
        for case in plan_cases(6, kinds=["history"]):
            assert case.events <= 8

    def test_unknown_kind_rejected(self):
        with pytest.raises(FuzzError, match="unknown kinds"):
            plan_cases(5, kinds=["quantum"])

    def test_zero_seeds_rejected(self):
        with pytest.raises(FuzzError, match="seeds >= 1"):
            plan_cases(0)

    def test_case_build_is_reproducible(self):
        case = plan_cases(1, kinds=["mpmc-queue"], quick=True)[0]
        assert [str(e) for e in case.build()] == \
            [str(e) for e in case.build()]


class TestComparisonPlan:
    def test_covers_every_other_applicable_backend(self):
        plans = comparison_plan("racy")
        pairs = {(left, right) for _a, left, right in plans}
        # Every other incremental backend is compared against the default.
        reference = Analysis.by_name("race-prediction").default_backend()
        others = [backend for backend in INCREMENTAL_BACKENDS
                  if backend != reference]
        assert len(others) == len(INCREMENTAL_BACKENDS) - 1
        for backend in others:
            assert (reference, backend) in pairs

    def test_covers_streaming_vs_batch(self):
        plans = comparison_plan("racy")
        assert any(right == "stream" for _a, _l, right in plans)
        plans = comparison_plan("racy", stream=False)
        assert not any(right == "stream" for _a, _l, right in plans)

    def test_deletion_analyses_compare_dynamic_backends(self):
        plans = comparison_plan("history")
        rights = {right for _a, _l, right in plans}
        assert "graph" in rights and "csst" not in rights

    def test_unknown_kind_yields_no_plan(self):
        assert comparison_plan("quantum") == []


class TestCleanRun:
    def test_small_fuzz_run_is_clean(self, tmp_path):
        report = run_fuzz(seeds=12, quick=True, out_dir=tmp_path / "out")
        assert report.ok
        assert report.cases == 12
        assert report.comparisons > report.cases
        assert not (tmp_path / "out").exists()  # no artifacts when clean
        assert "0 divergence" in report.summary()

    def test_progress_hook_sees_every_case(self, tmp_path):
        seen = []
        run_fuzz(seeds=4, quick=True, kinds=["racy"],
                 out_dir=tmp_path / "out", on_case=seen.append)
        assert len(seen) == 4

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(FuzzError, match="unknown backends"):
            run_fuzz(seeds=1, backends=["vcc"], out_dir=tmp_path)


class TestMinimizer:
    def test_rebuild_reassigns_indexes(self):
        trace = build_trace("racy", num_threads=3, events=20, seed=1)
        events = [e for e in trace if e.thread != 1]
        rebuilt = rebuild_trace(events, "cut")
        assert len(rebuilt) == len(events)
        for thread in rebuilt.threads:
            indexes = [e.index for e in rebuilt.thread_events(thread)]
            assert indexes == list(range(len(indexes)))

    def test_minimize_shrinks_to_the_core(self):
        trace = Trace(name="big")
        for i in range(30):
            trace.write(0, f"noise{i}")
        trace.write(1, "x", value=1)
        for i in range(30):
            trace.read(2, f"other{i}")
        trace.read(3, "x")

        def predicate(candidate):
            threads = {e.thread for e in candidate if e.variable == "x"}
            return 1 in threads and 3 in threads

        minimal = minimize_trace(trace, predicate)
        assert len(minimal) == 2
        assert {e.thread for e in minimal} == {1, 3}

    def test_minimize_requires_a_holding_predicate(self):
        trace = Trace(name="t")
        trace.write(0, "x")
        with pytest.raises(FuzzError, match="does not hold"):
            minimize_trace(trace, lambda _t: False)

    def test_minimize_respects_check_budget(self):
        trace = build_trace("racy", num_threads=3, events=30, seed=0)
        calls = []

        def predicate(candidate):
            calls.append(1)
            return True

        minimize_trace(trace, predicate, max_checks=10)
        assert len(calls) <= 10


class TestInjectedDivergence:
    """End-to-end divergence path: a deliberately broken backend must be
    caught, delta-debugged, and written to disk."""

    #: The broken backend: one the plan compares against race-prediction's
    #: default.
    BROKEN = "st"

    @pytest.fixture
    def broken_flat(self, monkeypatch):
        assert (Analysis.by_name("race-prediction").default_backend()
                != self.BROKEN)
        real = fuzz_module._run_findings

        def buggy(analysis, backend, trace):
            findings = real(analysis, backend, trace)
            if backend == self.BROKEN and findings:
                return findings[:-1]  # silently drop one finding
            return findings

        monkeypatch.setattr(fuzz_module, "_run_findings", buggy)

    def test_divergence_is_caught_minimized_and_reported(self, broken_flat,
                                                         tmp_path):
        report = run_fuzz(seeds=4, quick=True, kinds=["racy"],
                          out_dir=tmp_path / "cex", max_checks=120)
        assert not report.ok
        divergence = report.divergences[0]
        assert divergence.right == self.BROKEN
        assert divergence.counterexample is not None
        assert divergence.minimized_events is not None
        assert divergence.minimized_events <= divergence.case.events * \
            divergence.case.threads
        # Both artifacts exist and the JSON report is structured.
        cex_files = list((tmp_path / "cex").glob("*.std"))
        reports = list((tmp_path / "cex").glob("*.json"))
        assert cex_files and reports
        document = json.loads(reports[0].read_text())
        assert document["analysis"] == divergence.analysis
        assert document["left_findings"] != document["right_findings"]
        assert "DIVERGENCE" in report.summary()

    def test_no_minimize_keeps_divergence_unwritten(self, broken_flat,
                                                    tmp_path):
        report = run_fuzz(seeds=2, quick=True, kinds=["racy"],
                          out_dir=tmp_path / "cex", minimize=False)
        assert not report.ok
        assert report.divergences[0].counterexample is None
        assert not (tmp_path / "cex").exists()


class TestErrorDivergence:
    def test_backend_error_is_a_divergence_not_a_crash(self, monkeypatch,
                                                       tmp_path):
        from repro.errors import AnalysisError

        real = fuzz_module._run_findings

        def exploding(analysis, backend, trace):
            if backend == "vc-flat":
                raise AnalysisError("injected failure")
            return real(analysis, backend, trace)

        monkeypatch.setattr(fuzz_module, "_run_findings", exploding)
        report = run_fuzz(seeds=1, quick=True, kinds=["racy"],
                          out_dir=tmp_path / "cex")
        errors = [d for d in report.divergences if d.error]
        assert errors and "injected failure" in errors[0].error
        # The failing input itself is the artifact (no minimization).
        assert errors[0].counterexample is not None


class TestCaseIds:
    def test_case_id_shares_the_trace_spec_format(self):
        from repro.runner.corpus import TraceSpec

        spec = TraceSpec(kind="racy", threads=2, events=10, seed=30)
        case = FuzzCase(index=3, spec=spec)
        assert case.case_id == f"fuzz0003-{spec.trace_id}"
        assert (case.kind, case.threads, case.events, case.seed) == \
            ("racy", 2, 10, 30)
        with_params = FuzzCase(index=0, spec=TraceSpec(
            kind="locked-mix", threads=2, events=10, seed=0,
            params=(("scheduler", "rr"),)))
        assert with_params.case_id.endswith("-scheduler=rr")
