"""Tests for the benchmark measurement and reporting helpers."""

import math

import pytest

from repro.bench.harness import (
    BenchmarkRow,
    TableResult,
    geometric_mean,
    measure,
)
from repro.errors import BenchmarkError


class TestMeasure:
    def test_measure_returns_time_and_value(self):
        run = measure(lambda: sum(range(1000)))
        assert run.value == sum(range(1000))
        assert run.seconds >= 0

    def test_measure_tracks_peak_memory(self):
        run = measure(lambda: [0] * 100_000)
        assert run.peak_memory_bytes > 100_000

    def test_memory_tracking_can_be_disabled(self):
        run = measure(lambda: [0] * 10_000, track_memory=False)
        assert run.peak_memory_bytes == 0


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


class TestBenchmarkRow:
    def test_ratio_between_backends(self):
        row = BenchmarkRow("b", 4, 1000, seconds={"vc-flat": 2.0, "csst": 1.0})
        assert row.ratio("vc-flat", "csst") == pytest.approx(2.0)

    def test_ratio_with_missing_backend_is_none(self):
        row = BenchmarkRow("b", 4, 1000, seconds={"vc-flat": 2.0})
        assert row.ratio("vc-flat", "csst") is None

    def test_memory_ratio(self):
        row = BenchmarkRow("b", 4, 1000, memory={"vc-flat": 4096, "csst": 1024})
        assert row.ratio("vc-flat", "csst", metric="memory") == pytest.approx(4.0)


class TestTableResult:
    def _table(self):
        table = TableResult("Table X", backends=["vc-flat", "csst"])
        table.add_row(BenchmarkRow("first", 4, 1_000, 0.2,
                                   seconds={"vc-flat": 2.0, "csst": 1.0},
                                   memory={"vc-flat": 2048, "csst": 1024}))
        table.add_row(BenchmarkRow("second", 8, 2_000_000, 0.1,
                                   seconds={"vc-flat": 8.0, "csst": 1.0},
                                   memory={"vc-flat": 4096, "csst": 4096}))
        return table

    def test_totals_per_backend(self):
        totals = self._table().totals()
        assert totals["vc-flat"] == pytest.approx(10.0)
        assert totals["csst"] == pytest.approx(2.0)

    def test_mean_ratios_over_reference(self):
        ratios = self._table().mean_ratios("csst")
        assert ratios["vc-flat"] == pytest.approx(4.0)
        assert "csst" not in ratios

    def test_mean_memory_ratios(self):
        ratios = self._table().mean_ratios("csst", metric="memory")
        assert ratios["vc-flat"] == pytest.approx(math.sqrt(2.0))

    def test_format_contains_rows_and_total(self):
        text = self._table().format()
        assert "Table X" in text
        assert "first" in text and "second" in text
        assert "Total" in text
        assert "2.0M" in text    # event count formatting

    def test_format_memory_metric(self):
        text = self._table().format(metric="memory")
        assert "KiB" in text

    def test_render_rejects_ragged_rows(self):
        from repro.bench.harness import render_table

        with pytest.raises(BenchmarkError):
            render_table("t", ["a", "b"], [["only-one"]])
