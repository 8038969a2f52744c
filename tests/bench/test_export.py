"""Tests for the CSV export helpers."""

import csv
import io

from repro.bench.export import (
    crossover_to_csv,
    figure11_to_csv,
    table_to_csv,
    table_to_csv_string,
)
from repro.bench.harness import BenchmarkRow, TableResult
from repro.bench.tables import (
    CrossoverPoint,
    CrossoverResult,
    Figure11Result,
    ScalabilityPoint,
)


def _sample_table() -> TableResult:
    table = TableResult("Table X", backends=["vc-flat", "incremental-csst"])
    table.add_row(BenchmarkRow("alpha", 4, 1000, 0.25,
                               seconds={"vc-flat": 1.5, "incremental-csst": 0.5},
                               memory={"vc-flat": 2048, "incremental-csst": 1024}))
    table.add_row(BenchmarkRow("beta", 2, 500, 0.10,
                               seconds={"vc-flat": 0.3, "incremental-csst": 0.2},
                               memory={"vc-flat": 512, "incremental-csst": 512}))
    return table


class TestTableCsv:
    def test_header_and_rows(self):
        text = table_to_csv_string(_sample_table())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][:4] == ["benchmark", "threads", "events", "density"]
        assert rows[1][0] == "alpha"
        assert rows[-1][0] == "TOTAL"

    def test_totals_row_sums_backends(self):
        rows = list(csv.reader(io.StringIO(table_to_csv_string(_sample_table()))))
        header = rows[0]
        total = rows[-1]
        vc_column = header.index("vc-flat_seconds")
        assert float(total[vc_column]) == 1.8

    def test_write_to_file(self, tmp_path):
        path = tmp_path / "table.csv"
        table_to_csv(_sample_table(), path)
        content = path.read_text(encoding="utf-8")
        assert "alpha" in content and "beta" in content


class TestFigureCsv:
    def test_figure11_csv(self, tmp_path):
        figure = Figure11Result(points=[
            ScalabilityPoint("vc-flat", 10, 500, 1e-4, 1e-6, 400, 1000),
            ScalabilityPoint("incremental-csst", 10, 500, 5e-5, 2e-6, 400, 1000),
        ])
        path = tmp_path / "fig11.csv"
        figure11_to_csv(figure, path)
        rows = list(csv.reader(path.open()))
        assert rows[0][0] == "backend"
        assert len(rows) == 3

    def test_crossover_csv(self, tmp_path):
        result = CrossoverResult(points=[
            CrossoverPoint("vc-flat", 800, 1.2, 100, 2000),
            CrossoverPoint("incremental-csst", 800, 0.4, 100, 2000),
        ])
        path = tmp_path / "crossover.csv"
        crossover_to_csv(result, path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["backend", "events_per_thread", "seconds",
                           "insert_count", "query_count"]
        assert len(rows) == 3


class TestRowsToCsv:
    def test_rows_to_csv_to_stream(self):
        from repro.bench.export import rows_to_csv

        buffer = io.StringIO()
        rows_to_csv(["a", "b"], [[1, 2], [3, 4]], buffer)
        rows = list(csv.reader(io.StringIO(buffer.getvalue())))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]
        assert "\r" not in buffer.getvalue()  # stream-safe line endings

    def test_rows_to_csv_to_path(self, tmp_path):
        from repro.bench.export import rows_to_csv

        path = tmp_path / "rows.csv"
        rows_to_csv(["x"], [["y"]], path)
        assert path.read_bytes() == b"x\ny\n"
