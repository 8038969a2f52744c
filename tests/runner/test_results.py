"""Tests for the sweep results model, aggregation and export."""

import csv
import io
import json
import math
from dataclasses import replace

import pytest

from repro.errors import BenchmarkError
from repro.runner.results import (
    CSV_COLUMNS,
    STATUS_ERROR,
    STATUS_OK,
    SweepRecord,
    SweepResult,
    geometric_mean,
    render_table,
    rows_to_csv,
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


class TestPivot:
    def _result(self):
        result = SweepResult(suite="t")
        for trace, threads in (("alpha", 2), ("beta", 4)):
            for backend, seconds in (("vc-flat", 2.0), ("incremental-csst", 1.0)):
                result.records.append(replace(
                    record(trace=trace, backend=backend, elapsed=seconds),
                    threads=threads, events=300, peak_bytes=2048))
        result.records[-1] = replace(result.records[-1], status=STATUS_ERROR,
                                     error="boom")
        return result

    def test_rows_follow_the_suite_with_one_column_per_backend(self):
        text = self._result().format_pivot("Table X")
        lines = text.splitlines()
        assert lines[0] == "Table X"
        assert lines[2].split() == ["benchmark", "T", "N", "vc-flat", "(s)",
                                    "incremental-csst", "(s)"]
        assert lines[4].split() == ["alpha", "2", "600", "2.00", "1.00"]
        # A failed job shows as '-'; the total sums the jobs that finished.
        assert lines[5].split() == ["beta", "4", "1.2K", "2.00", "-"]
        assert lines[6].split() == ["Total", "-", "-", "4.00", "1.00"]

    def test_memory_pivot_shows_peak_kib_without_total(self):
        text = self._result().format_pivot(metric="peak_bytes")
        assert text.splitlines()[0] == "sweep[t]"
        assert "vc-flat (KiB)" in text
        assert "2.00" in text and "Total" not in text


class TestPeakBytesExport:
    def test_peak_bytes_appears_only_when_measured(self):
        assert "peak_bytes" not in record().to_dict()
        measured = replace(record(), peak_bytes=4096)
        assert measured.to_dict()["peak_bytes"] == 4096
        assert "peak_bytes" not in CSV_COLUMNS

    def test_memory_speedups(self):
        result = SweepResult(suite="t", records=[
            replace(record(backend="csst"), peak_bytes=1000),
            replace(record(backend="graph"), peak_bytes=4000),
        ])
        assert result.speedups("csst", metric="peak_bytes") == \
            pytest.approx({"graph": 0.25})


class TestGeometricMean:
    def test_of_identical_values(self):
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_of_reciprocal_values_is_one(self):
        assert geometric_mean([4.0, 0.25]) == pytest.approx(1.0)

    def test_ignores_non_positive_values(self):
        assert geometric_mean([0.0, -1.0, 8.0]) == pytest.approx(8.0)

    def test_empty_sequence_is_zero(self):
        assert geometric_mean([]) == 0.0

    def test_matches_closed_form(self):
        values = [1.0, 2.0, 4.0]
        assert geometric_mean(values) == pytest.approx(math.exp(
            sum(math.log(v) for v in values) / 3))


class TestRenderTable:
    def test_render_rejects_ragged_rows(self):
        with pytest.raises(BenchmarkError):
            render_table("t", ["a", "b"], [["only-one"]])


class TestRowsToCsv:
    def test_rows_to_csv_to_stream(self):
        buffer = io.StringIO()
        rows_to_csv(["a", "b"], [[1, 2], [3, 4]], buffer)
        rows = list(csv.reader(io.StringIO(buffer.getvalue())))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]
        assert "\r" not in buffer.getvalue()  # stream-safe line endings

    def test_rows_to_csv_to_path(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows_to_csv(["x"], [["y"]], path)
        assert path.read_bytes() == b"x\ny\n"
