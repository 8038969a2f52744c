"""Tests for the parallel sweep executor."""

import pytest

from repro.errors import ReproError
from repro.runner.corpus import Suite, TraceSpec, get_suite, grid
from repro.runner.executor import (
    SweepJob,
    analyses_for_kind,
    execute_job,
    plan_jobs,
    run_jobs,
    run_suite,
)
from repro.runner.results import STATUS_ERROR, STATUS_OK


def tiny_suite(name="tiny"):
    return Suite(name=name, description="test suite",
                 specs=grid(["racy", "history"], [2], [16]))


class TestPlanning:
    def test_every_kind_maps_to_registered_analyses(self):
        from repro.analyses.common.base import Analysis
        from repro.trace.generators import GENERATOR_REGISTRY

        registry = Analysis.registered()
        for kind, entry in GENERATOR_REGISTRY.items():
            assert entry.analyses, kind
            for analysis in entry.analyses:
                assert analysis in registry, (kind, analysis)

    def test_plan_expands_trace_x_analysis_x_backend(self):
        jobs = plan_jobs(tiny_suite())
        # racy -> race-prediction on 3 incremental backends;
        # history -> linearizability on 2 dynamic backends.
        assert len(jobs) == 5
        assert [job.backend for job in jobs] == [
            "st", "incremental-csst", "vc-flat", "graph", "csst"]

    def test_plan_is_deterministic(self):
        assert plan_jobs(tiny_suite()) == plan_jobs(tiny_suite())

    def test_backend_filter_is_scoped_per_analysis(self):
        jobs = plan_jobs(tiny_suite(), backends=["vc-flat", "csst"])
        pairs = {(job.analysis, job.backend) for job in jobs}
        # 'vc-flat' cannot serve linearizability and is skipped there, not rejected.
        assert pairs == {("race-prediction", "vc-flat"), ("linearizability", "csst")}

    def test_analysis_filter(self):
        jobs = plan_jobs(tiny_suite(), analyses=["linearizability"])
        assert {job.analysis for job in jobs} == {"linearizability"}

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ReproError, match="unknown analyses"):
            plan_jobs(tiny_suite(), analyses=["fuzzing"])

    def test_unknown_backend_rejected(self):
        # A typo must not silently plan a zero-job sweep.
        with pytest.raises(ReproError, match="unknown backends"):
            plan_jobs(tiny_suite(), backends=["vcc"])

    def test_unknown_kind_yields_no_jobs(self):
        assert analyses_for_kind("quantum") == ()

    def test_unmapped_kind_is_a_planning_error(self):
        # A generator registered without target analyses must not silently
        # plan a zero-job sweep.
        from repro.trace.generators import GENERATOR_REGISTRY, racy_trace, \
            register_generator

        register_generator("oddkind", racy_trace)
        try:
            suite = Suite(name="odd", description="odd",
                          specs=grid(["oddkind"], [2], [10]))
            with pytest.raises(ReproError, match="no analyses declared"):
                plan_jobs(suite)
        finally:
            GENERATOR_REGISTRY.pop("oddkind", None)

    def test_registered_kind_with_analyses_plans_jobs(self):
        from repro.trace.generators import GENERATOR_REGISTRY, racy_trace, \
            register_generator

        register_generator("oddkind", racy_trace,
                           analyses=("race-prediction",))
        try:
            suite = Suite(name="odd", description="odd",
                          specs=grid(["oddkind"], [2], [10]))
            jobs = plan_jobs(suite)
            assert {job.analysis for job in jobs} == {"race-prediction"}
        finally:
            GENERATOR_REGISTRY.pop("oddkind", None)

    def test_empty_plan_is_an_error_not_a_silent_noop(self):
        # Valid names whose intersection is empty: linearizability cannot
        # run on vc, so nothing would be planned.
        with pytest.raises(ReproError, match="sweep plan is empty"):
            plan_jobs(tiny_suite(), analyses=["linearizability"],
                      backends=["vc-flat"])

    def test_partially_unsatisfiable_analysis_request_is_an_error(self):
        # 'scaling'-style suite with no history kind: race-prediction would
        # plan fine, but the also-requested linearizability matches nothing
        # and must not be dropped silently.
        suite = Suite(name="racy-only", description="test",
                      specs=grid(["racy"], [2], [16]))
        with pytest.raises(ReproError, match="produce no job"):
            plan_jobs(suite, analyses=["race-prediction", "linearizability"])


class TestExecuteJob:
    def test_successful_job_produces_full_record(self):
        job = SweepJob(suite="t", spec=TraceSpec(kind="racy", threads=2, events=20),
                       analysis="race-prediction", backend="vc-flat")
        record = execute_job(job)
        assert record.status == STATUS_OK
        assert record.trace_id == "racy-t2-n20-s0"
        assert record.kind == "racy" and record.threads == 2
        assert record.operation_count > 0
        assert record.elapsed_seconds > 0
        assert record.error is None

    def test_incompatible_backend_is_captured_not_raised(self):
        job = SweepJob(suite="t", spec=TraceSpec(kind="history", threads=2, events=6),
                       analysis="linearizability", backend="vc-flat")
        record = execute_job(job)
        assert record.status == STATUS_ERROR
        assert "deletion" in record.error
        assert record.finding_count == 0


class TestRunJobs:
    def test_serial_and_parallel_agree_modulo_elapsed(self):
        jobs = plan_jobs(tiny_suite())
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=2)
        assert len(serial.records) == len(parallel.records) == len(jobs)
        for left, right in zip(serial.records, parallel.records):
            left_data, right_data = left.to_dict(), right.to_dict()
            for timing_field in ("elapsed_seconds", "elapsed_median_seconds"):
                left_data.pop(timing_field)
                right_data.pop(timing_field)
            assert left_data == right_data

    def test_records_come_back_in_plan_order(self):
        jobs = plan_jobs(tiny_suite())
        result = run_jobs(jobs, workers=3)
        observed = [(r.trace_id, r.analysis, r.backend) for r in result.records]
        expected = [(j.spec.trace_id, j.analysis, j.backend) for j in jobs]
        assert observed == expected

    def test_failures_do_not_sink_the_sweep(self):
        good = SweepJob(suite="t", spec=TraceSpec(kind="racy", threads=2, events=16),
                        analysis="race-prediction", backend="vc-flat")
        bad = SweepJob(suite="t", spec=TraceSpec(kind="history", threads=2, events=6),
                       analysis="linearizability", backend="st")
        result = run_jobs([good, bad, good], workers=2)
        assert [record.status for record in result.records] == [
            STATUS_OK, STATUS_ERROR, STATUS_OK]
        assert len(result.failures()) == 1

    def test_timeout_records_and_does_not_hang_pool_shutdown(self):
        import time

        # ~6s of real analysis work; the collector only waits 0.2s for it.
        slow = SweepJob(suite="t",
                        spec=TraceSpec(kind="racy", threads=4, events=1500),
                        analysis="race-prediction", backend="st")
        start = time.perf_counter()
        result = run_jobs([slow], workers=1 + 1, timeout_seconds=0.2)
        elapsed = time.perf_counter() - start
        assert [record.status for record in result.records] == ["timeout"]
        assert "did not complete" in result.records[0].error
        # The straggler worker is terminated, so shutdown must not block
        # for the job's full duration.
        assert elapsed < 5.0

    def test_empty_job_list(self):
        result = run_jobs([], workers=2, suite_name="empty")
        assert result.records == [] and result.suite == "empty"

    def test_workers_must_be_positive(self):
        with pytest.raises(ReproError, match="workers"):
            run_jobs([], workers=0)


class TestRunSuite:
    def test_smoke_suite_runs_clean(self):
        result = run_suite("smoke", workers=2)
        assert len(result.records) == 20  # 6 x 3 incremental + 2 dynamic
        assert not result.failures()
        analyses = {record.analysis for record in result.records}
        assert len(analyses) == 7  # every analysis of the paper

    def test_suite_respects_filters(self):
        result = run_suite("smoke", workers=1,
                           analyses=["race-prediction"], backends=["vc-flat", "st"])
        assert {record.analysis for record in result.records} == {"race-prediction"}
        assert {record.backend for record in result.records} == {"vc-flat", "st"}


class TestSeedOverride:
    def test_run_suite_seed_rebinds_every_spec(self):
        result = run_suite("smoke", analyses=["race-prediction"],
                           backends=["vc-flat"], seed=17)
        assert result.records
        assert all(record.seed == 17 for record in result.records)
        assert all("-s17" in record.trace_id for record in result.records)

    def test_override_seed_deduplicates_collapsed_specs(self):
        from repro.runner.corpus import get_suite, override_seed

        # The 'seeds' suite repeats each shape across four seeds; one
        # uniform seed collapses each group to a single spec.
        original = get_suite("seeds")
        rebound = override_seed(original, 5)
        assert len(rebound.specs) == len(original.specs) // 4
        assert all(spec.seed == 5 for spec in rebound.specs)
        assert rebound.name == original.name

    def test_seed_none_leaves_suite_untouched(self):
        baseline = run_suite("smoke", analyses=["race-prediction"],
                             backends=["vc-flat"])
        seeds = {record.seed for record in baseline.records}
        assert seeds == {0}


class TestRepeats:
    def test_single_shot_defaults(self):
        job = plan_jobs(tiny_suite(), analyses=["race-prediction"],
                        backends=["vc-flat"])[0]
        record = execute_job(job)
        assert record.repeats == 1
        assert record.elapsed_median_seconds == record.elapsed_seconds

    def test_repeats_report_min_and_median(self):
        job = plan_jobs(tiny_suite(), analyses=["race-prediction"],
                        backends=["vc-flat"])[0]
        record = execute_job(job, repeats=3)
        assert record.status == STATUS_OK
        assert record.repeats == 3
        # min <= median by construction, and both are real measurements.
        assert 0 <= record.elapsed_seconds <= record.elapsed_median_seconds

    def test_repeats_keep_findings_deterministic(self):
        job = plan_jobs(tiny_suite(), analyses=["race-prediction"],
                        backends=["incremental-csst"])[0]
        single = execute_job(job, repeats=1)
        repeated = execute_job(job, repeats=4)
        assert repeated.finding_count == single.finding_count
        assert repeated.insert_count == single.insert_count
        assert repeated.query_count == single.query_count

    def test_run_jobs_propagates_repeats_serial_and_parallel(self):
        jobs = plan_jobs(tiny_suite(), analyses=["race-prediction"],
                         backends=["vc-flat", "st"])
        serial = run_jobs(jobs, workers=1, repeats=2)
        parallel = run_jobs(jobs, workers=2, repeats=2)
        assert all(record.repeats == 2 for record in serial.records)
        assert all(record.repeats == 2 for record in parallel.records)

    def test_repeats_must_be_positive(self):
        with pytest.raises(ReproError, match="repeats"):
            run_jobs([], workers=1, repeats=0)
