"""The paper's tables as sweep suites, Figure 10 from sweep records, Figure
11's kernel protocol, and the ``python -m repro.bench`` entry point."""

from dataclasses import replace

import pytest

import repro.bench.__main__ as bench_cli
from repro.bench.__main__ import main as bench_main
from repro.bench.perf import fig11_protocol, run_figure11
from repro.bench.tables import TABLE_SUITES, format_figure10
from repro.runner.corpus import (
    SUITES,
    Suite,
    TraceSpec,
    get_suite,
    grid,
    register_suite,
    scale_suite,
)
from repro.runner.executor import plan_jobs, run_jobs, run_suite
from repro.runner.results import STATUS_OK, SweepRecord, SweepResult

TINY = 0.05


class TestTableSuites:
    def test_every_table_is_a_suite_of_one_analysis(self):
        assert TABLE_SUITES == tuple(f"table{i}" for i in range(1, 8))
        for name in TABLE_SUITES:
            suite = get_suite(name)
            assert len(suite.specs) >= 5
            assert len(suite.analyses) == 1
            assert {job.analysis for job in plan_jobs(suite)} \
                == {suite.analyses[0][0]}

    def test_memory_tables_run_only_their_own_analysis(self):
        # 'memory' traces feed memory-bugs and use-after-free; each table
        # declares one of them.
        assert {job.analysis for job in plan_jobs(get_suite("table3"))} \
            == {"memory-bugs"}
        assert {job.analysis for job in plan_jobs(get_suite("table5"))} \
            == {"use-after-free"}

    def test_benchmark_names_are_unique_trace_ids(self):
        for name in TABLE_SUITES:
            ids = [spec.trace_id for spec in get_suite(name)]
            assert len(ids) == len(set(ids))
        spec = get_suite("table4").specs[0]
        assert spec.trace_id == "dekker"
        assert spec.build().name == "dekker"

    def test_a_benchmark_is_a_named_spec_with_generator_params(self):
        spec = get_suite("table1").specs[0]
        assert spec == TraceSpec(kind="racy", threads=4, events=350, seed=101,
                                 params=(("num_locks", 3),
                                         ("num_variables", 24)),
                                 name="clean")

    def test_scale_keeps_the_eight_event_floor(self):
        suite = scale_suite(get_suite("table1"), 0.005)
        assert {spec.events for spec in suite} == {8}
        assert [spec.name for spec in suite] \
            == [spec.name for spec in get_suite("table1")]

    def test_scaling_down_never_grows_a_spec(self):
        suite = Suite(name="s", description="s",
                      specs=grid(["history"], [4], [4, 6, 40]))
        assert [spec.events for spec in scale_suite(suite, 0.1)] == [4, 6, 8]

    def test_scaling_dedupes_collapsed_specs(self):
        suite = Suite(name="s", description="s",
                      specs=grid(["racy"], [2], [40, 50]))
        assert len(scale_suite(suite, 0.1).specs) == 1


class TestSuiteAnalysisOptions:
    @pytest.fixture
    def capped(self):
        suite = register_suite(Suite(
            name="_capped", description="options probe",
            specs=grid(["memory"], [3], [60]),
            analyses=(("memory-bugs", (("max_candidates", 1),)),)))
        yield suite
        SUITES.pop("_capped", None)

    def test_options_ride_on_the_jobs(self):
        jobs = plan_jobs(get_suite("table1"))
        assert {job.options for job in jobs} == {(("candidate_window", 8),)}
        assert {job.options for job in plan_jobs(get_suite("smoke"))} == {()}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_options_reach_the_analysis(self, capped, workers):
        jobs = plan_jobs(capped, backends=["vc-flat", "st"])
        # Uncapped, memory-bugs reports dozens of findings on this trace.
        uncapped = run_jobs([replace(job, options=()) for job in jobs],
                            workers=workers)
        assert all(record.finding_count > 1 for record in uncapped.records)
        capped_run = run_jobs(jobs, workers=workers)
        assert [record.finding_count for record in capped_run.records] \
            == [1, 1]


class TestMemory:
    def _jobs(self):
        return plan_jobs(get_suite("smoke"), analyses=["race-prediction"],
                         backends=["vc-flat", "st"])

    def test_no_peak_without_memory(self):
        result = run_jobs(self._jobs())
        assert all(record.peak_bytes is None for record in result.records)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_sets_peak_bytes_and_keeps_timing_runs(self, workers):
        result = run_jobs(self._jobs(), workers=workers, repeats=2,
                          memory=True)
        for record in result.records:
            assert record.ok
            assert record.peak_bytes > 0
            # The tracemalloc run is not a timing run.
            assert record.repeats == 2

    def test_memory_leaves_outcomes_alone(self):
        plain = run_jobs(self._jobs())
        measured = run_jobs(self._jobs(), memory=True)
        for left, right in zip(plain.records, measured.records):
            assert (left.finding_count, left.insert_count, left.query_count) \
                == (right.finding_count, right.insert_count,
                    right.query_count)


def _record(trace, backend, seconds, peak):
    return SweepRecord(suite="tableX", trace_id=trace, kind="racy",
                       threads=2, events=10, seed=0,
                       analysis="race-prediction", backend=backend,
                       status=STATUS_OK, elapsed_seconds=seconds,
                       peak_bytes=peak)


class TestFigure10:
    def test_renders_ratios_over_the_csst_backend_from_records(self):
        incremental = SweepResult(suite="table1", records=[
            _record("a", "incremental-csst", 1.0, 1000),
            _record("a", "vc-flat", 2.0, 4000),
            _record("b", "incremental-csst", 1.0, 1000),
            _record("b", "vc-flat", 8.0, 4000),
        ])
        dynamic = SweepResult(suite="table7", records=[
            replace(_record("c", "csst", 2.0, 1000), analysis="linearizability"),
            replace(_record("c", "graph", 1.0, 500), analysis="linearizability"),
        ])
        text = format_figure10({"table1": incremental, "table7": dynamic})
        lines = text.splitlines()
        assert lines[0] == "Figure 10: mean resource ratio over CSSTs"
        # Geometric mean of 2x and 8x is 4x; memory is 4x on both traces.
        assert lines[2].split() == ["table1", "time:", "VCs", "4.00x"]
        assert lines[3].split() == ["mem", ":", "VCs", "4.00x"]
        assert lines[4].split() == ["table7", "time:", "Graphs", "0.50x"]
        assert lines[5].split() == ["mem", ":", "Graphs", "0.50x"]

    def test_without_peaks_only_time_is_shown(self):
        result = SweepResult(suite="table2", records=[
            _record("a", "incremental-csst", 1.0, None),
            _record("a", "st", 3.0, None),
        ])
        lines = format_figure10({"table2": result}).splitlines()
        assert lines[2].split() == ["table2", "time:", "STs", "3.00x"]
        assert lines[3].startswith("---")


class TestFigure11:
    def test_points_and_series(self):
        figure = run_figure11(backends=("incremental-csst",),
                              chain_lengths=(64, 128), chain_counts=(4,),
                              edges_per_length=0.5, queries=50)
        assert len(figure.points) == 2
        series = figure.series("incremental-csst", 4)
        assert [length for length, _value in series] == [64, 128]
        assert "CSSTs" in figure.format()

    def test_protocol_is_deterministic(self):
        first = fig11_protocol(10, 250, edges=250, queries=40,
                               query_seed=1234)
        assert first == fig11_protocol(10, 250, edges=250, queries=40,
                                       query_seed=1234)
        candidates, query_pairs = first
        assert len(candidates) == 250 and len(query_pairs) == 40


class TestBenchCli:
    def test_table_rows_and_backends_without_density(self, capsys):
        assert bench_main(["--tables", "table1", "--scale", str(TINY),
                           "--skip-figures", "--memory"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "Table 1: race prediction"
        assert lines[2].split() == [
            "benchmark", "T", "N", "st", "(s)", "incremental-csst", "(s)",
            "vc-flat", "(s)"]
        assert lines[4].split()[:3] == ["clean", "4", "68"]
        assert "Total" in out and "KiB" in out
        assert " q " not in lines[2]

    @pytest.mark.parametrize("flags, memory", [
        (["--skip-figures"], False),
        (["--skip-figures", "--memory"], True)])
    def test_a_memory_pass_runs_only_for_a_printed_peak(
            self, monkeypatch, capsys, flags, memory):
        passes = []

        def recording(name, scale, memory):
            passes.append(memory)
            return run_suite(name, scale=scale, memory=memory)

        monkeypatch.setattr(bench_cli, "run_suite", recording)
        assert bench_main(["--tables", "table1", "--scale", str(TINY)]
                          + flags) == 0
        assert passes == [memory]
        assert ("KiB" in capsys.readouterr().out) is memory

    def test_unknown_table_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            bench_main(["--tables", "table9"])
        assert "unknown tables" in capsys.readouterr().err
