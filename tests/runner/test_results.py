"""Tests for the sweep results model, aggregation and export."""

import csv
import io
import json

import pytest

from repro.runner.results import (
    CSV_COLUMNS,
    STATUS_ERROR,
    STATUS_OK,
    SweepRecord,
    SweepResult,
)


def record(trace="racy-t2-n16-s0", analysis="race-prediction", backend="vc-flat",
           elapsed=1.0, status=STATUS_OK, findings=2, error=None):
    return SweepRecord(suite="t", trace_id=trace, kind=trace.split("-")[0],
                       threads=2, events=16, seed=0, analysis=analysis,
                       backend=backend, status=status, elapsed_seconds=elapsed,
                       finding_count=findings, insert_count=3, delete_count=1,
                       query_count=6, error=error)


class TestSweepRecord:
    def test_operation_count_sums_counters(self):
        assert record().operation_count == 10

    def test_to_row_matches_csv_columns(self):
        row = record().to_row()
        assert len(row) == len(CSV_COLUMNS)
        data = record().to_dict()
        assert row == [data[column] for column in CSV_COLUMNS]


class TestAggregation:
    def test_speedups_vs_explicit_baseline(self):
        result = SweepResult(suite="t", records=[
            record(backend="vc-flat", elapsed=2.0),
            record(backend="incremental-csst", elapsed=0.5),
        ])
        assert result.speedups(baseline="vc-flat") == {"incremental-csst": 4.0}

    def test_speedups_default_baseline_is_per_group(self):
        result = SweepResult(suite="t", records=[
            # Incremental group: baseline vc.
            record(backend="vc-flat", elapsed=2.0),
            record(backend="st", elapsed=1.0),
            # Dynamic group: no vc record, baseline falls back to graph.
            record(trace="history-t2-n6-s0", analysis="linearizability",
                   backend="graph", elapsed=3.0),
            record(trace="history-t2-n6-s0", analysis="linearizability",
                   backend="csst", elapsed=1.0),
        ])
        assert result.speedups() == pytest.approx({"st": 2.0, "csst": 3.0})

    def test_speedups_geomean_across_groups(self):
        result = SweepResult(suite="t", records=[
            record(trace="a", backend="vc-flat", elapsed=2.0),
            record(trace="a", backend="st", elapsed=1.0),   # 2x
            record(trace="b", backend="vc-flat", elapsed=8.0),
            record(trace="b", backend="st", elapsed=1.0),   # 8x
        ])
        assert result.speedups(baseline="vc-flat") == {"st": 4.0}  # sqrt(2*8)

    def test_failed_records_are_excluded_from_aggregates(self):
        result = SweepResult(suite="t", records=[
            record(backend="vc-flat", elapsed=2.0),
            record(backend="st", elapsed=0.1, status=STATUS_ERROR, error="boom"),
        ])
        assert result.speedups(baseline="vc-flat") == {}
        assert result.totals() == {"vc-flat": 2.0}
        assert len(result.failures()) == 1

    def test_backends_in_first_seen_order(self):
        result = SweepResult(suite="t", records=[
            record(backend="st"), record(backend="vc-flat"), record(backend="st")])
        assert result.backends() == ["st", "vc-flat"]


class TestExport:
    def test_json_round_trips(self):
        result = SweepResult(suite="t", records=[record(), record(backend="st")])
        document = json.loads(result.to_json())
        assert document["suite"] == "t"
        assert document["jobs"] == 2 and document["failures"] == 0
        assert document["records"][0]["backend"] == "vc-flat"
        assert set(document) == {"suite", "jobs", "failures", "records",
                                 "speedups"}

    def test_csv_has_header_and_one_row_per_record(self):
        result = SweepResult(suite="t", records=[record(), record(backend="st")])
        buffer = io.StringIO()
        result.to_csv(buffer)
        rows = list(csv.reader(io.StringIO(buffer.getvalue())))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 3
        assert rows[1][CSV_COLUMNS.index("backend")] == "vc-flat"

    def test_csv_to_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        SweepResult(suite="t", records=[record()]).to_csv(path)
        assert path.read_text().startswith(",".join(CSV_COLUMNS[:3]))

    def test_format_table_reports_failures(self):
        result = SweepResult(suite="t", records=[
            record(),
            record(backend="st", status=STATUS_ERROR, error="Boom\nlast line"),
        ])
        rendered = result.format_table()
        assert "sweep[t]: 2 jobs" in rendered
        assert "1 job(s) failed" in rendered
        assert "last line" in rendered

    def test_format_table_mentions_baseline(self):
        result = SweepResult(suite="t", records=[
            record(backend="vc-flat", elapsed=2.0), record(backend="st", elapsed=1.0)])
        assert "geomean speedup vs vc-flat" in result.format_table(baseline="vc-flat")
