"""Tests for the benchmark workload definitions and table runners.

The table runners are exercised at a tiny scale so that the whole test stays
fast while still covering the full measurement pipeline (trace generation,
analysis runs per backend, density estimation, formatting).
"""

import pytest

from repro.analyses.membug import MemoryBugAnalysis
from repro.bench.tables import (
    ALL_TABLE_RUNNERS,
    run_analysis_table,
    run_crossover,
    run_figure10,
    run_figure11,
    run_table3,
    run_table7,
)
from repro.bench.workloads import (
    ALL_TABLES,
    TABLE3_MEMORY_BUGS,
    TABLE7_LINEARIZABILITY,
    Workload,
)

TINY = 0.05


class TestWorkloads:
    def test_every_table_has_workloads(self):
        assert set(ALL_TABLES) == {f"table{i}" for i in range(1, 8)}
        for workloads in ALL_TABLES.values():
            assert len(workloads) >= 3

    def test_workload_names_are_unique_per_table(self):
        for workloads in ALL_TABLES.values():
            names = [workload.name for workload in workloads]
            assert len(names) == len(set(names))

    def test_build_produces_named_trace(self):
        workload = TABLE3_MEMORY_BUGS[0]
        trace = workload.build(scale=TINY)
        assert trace.name == workload.name
        assert len(trace) > 0

    def test_scale_reduces_trace_size(self):
        workload = TABLE3_MEMORY_BUGS[0]
        small = workload.build(scale=0.1)
        large = workload.build(scale=0.5)
        assert len(small) < len(large)

    def test_builds_are_deterministic(self):
        workload = TABLE7_LINEARIZABILITY[0]
        assert list(workload.build(TINY).events) == list(workload.build(TINY).events)


class TestTableRunners:
    def test_run_analysis_table_produces_rows(self):
        table = run_analysis_table(
            "tiny", TABLE3_MEMORY_BUGS[:2], MemoryBugAnalysis,
            backends=("vc-flat", "incremental-csst"), scale=TINY, track_memory=False,
        )
        assert len(table.rows) == 2
        for row in table.rows:
            assert set(row.seconds) == {"vc-flat", "incremental-csst"}
            assert all(value >= 0 for value in row.seconds.values())
            assert 0 <= row.density <= 1
        assert "tiny" in table.format()

    def test_table3_runner_smoke(self):
        table = run_table3(backends=("incremental-csst",), scale=TINY,
                           track_memory=False)
        assert len(table.rows) == len(TABLE3_MEMORY_BUGS)

    def test_table7_runner_smoke(self):
        table = run_table7(backends=("csst",), scale=TINY, track_memory=False)
        assert len(table.rows) == len(TABLE7_LINEARIZABILITY)
        assert all("csst" in row.seconds for row in table.rows)

    def test_all_runners_registered(self):
        assert set(ALL_TABLE_RUNNERS) == set(ALL_TABLES)

    def test_figure10_aggregates_supplied_tables(self):
        table = run_analysis_table(
            "tiny", TABLE3_MEMORY_BUGS[:1], MemoryBugAnalysis,
            backends=("vc-flat", "incremental-csst"), scale=TINY, track_memory=True,
        )
        figure = run_figure10(tables={"table3": table})
        assert "table3" in figure.time_ratios
        assert "vc-flat" in figure.time_ratios["table3"]
        assert "VCs" in figure.format()

    def test_figure11_points_and_series(self):
        figure = run_figure11(backends=("incremental-csst",),
                              chain_lengths=(64, 128), chain_counts=(4,),
                              edges_per_length=0.5, queries=50)
        assert len(figure.points) == 2
        series = figure.series("incremental-csst", 4)
        assert [length for length, _value in series] == [64, 128]
        assert "CSSTs" in figure.format()

    def test_crossover_runner(self):
        result = run_crossover(backends=("vc-flat", "incremental-csst"),
                               events_per_thread=(60, 120), num_threads=3)
        assert len(result.points) == 4
        series = result.series("vc-flat")
        assert [events for events, _seconds in series] == [60, 120]
        assert "VCs" in result.format()
