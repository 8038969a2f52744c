"""The committed crossover table and the defaults it decides.

``docs/tables/crossover.json`` holds the records of
``repro sweep --suite crossover --repeat 5``; ``crossover.md`` is rendered
from it.  Every registered analysis's ``default_backend()`` (and so the
``auto`` pick) must be the table's pick, and the markdown must re-render
byte-identically.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analyses.common.base import Analysis
from repro.errors import ReproError
from repro.runner import crossover
from repro.runner.corpus import SUITES
from repro.runner.executor import plan_jobs

TABLES = Path(__file__).resolve().parents[2] / "docs" / "tables"
DOCUMENT = json.loads((TABLES / "crossover.json").read_text(encoding="utf-8"))
PICKS = crossover.picks(DOCUMENT)


@pytest.mark.parametrize("name", sorted(Analysis.registered()))
def test_default_backend_is_the_tables_pick(name):
    assert Analysis.by_name(name).default_backend() == PICKS[name]["pick"]


def test_committed_file_is_a_table():
    crossover.check_table(DOCUMENT, "crossover.json")


def test_markdown_re_renders_byte_identically():
    committed = (TABLES / "crossover.md").read_text(encoding="utf-8")
    assert crossover.render_markdown(DOCUMENT) == committed
    assert crossover.render_json(DOCUMENT) \
        == (TABLES / "crossover.json").read_text(encoding="utf-8")


def test_table_covers_the_whole_crossover_plan():
    planned = {(job.analysis, job.spec.kind, job.spec.threads,
                job.spec.events, job.backend)
               for job in plan_jobs(SUITES["crossover"])}
    recorded = {(record["analysis"], record["kind"], record["threads"],
                 record["events"], record["backend"])
                for record in DOCUMENT["records"]}
    assert recorded == planned
    assert {record["repeats"] for record in DOCUMENT["records"]} \
        == {5 * DOCUMENT["sweeps"]}


def test_a_default_off_by_more_than_the_ratio_has_no_better_backend():
    # Where the pick's worst cell exceeds the switch ratio, no backend
    # stays within it on every cell: one fixed default cannot do better.
    threshold = DOCUMENT["switch_ratio"]
    for name, entry in PICKS.items():
        if entry["worst_ratio"] <= threshold:
            continue
        cells = crossover._cells(DOCUMENT, name)
        for backend in crossover._backends(cells):
            assert max(crossover._ratios(cells, backend)) \
                >= entry["worst_ratio"], (name, backend)


class TestRule:
    @staticmethod
    def table(times):
        """A one-analysis table: ``times`` maps backend -> per-cell
        seconds."""
        records = [
            {"analysis": "a", "kind": "racy", "threads": 4,
             "events": 100 * (index + 1), "seed": 0, "backend": backend,
             "repeats": 5, "min_s": seconds, "median_s": seconds}
            for backend, cells in times.items()
            for index, seconds in enumerate(cells)]
        return {"version": 1, "command": "test", "sweeps": 1,
                "switch_ratio": 1.5, "records": records}

    def test_csst_within_the_ratio_is_kept(self):
        document = self.table({"vc-flat": [1.0, 1.0],
                               "incremental-csst": [1.4, 1.0]})
        entry = crossover.picks(document)["a"]
        assert entry["incumbent"] == "incremental-csst"
        assert entry["pick"] == "incremental-csst"

    def test_deletion_analyses_start_from_csst(self):
        document = self.table({"graph": [1.0, 1.0], "csst": [1.2, 1.0]})
        assert crossover.picks(document)["a"]["pick"] == "csst"

    def test_csst_beyond_the_ratio_is_replaced_by_minimax(self):
        document = self.table({"incremental-csst": [1.6, 1.0],
                               "vc-flat": [1.0, 1.3], "st": [1.0, 1.45]})
        entry = crossover.picks(document)["a"]
        assert entry["pick"] == "vc-flat"
        assert entry["worst_ratio"] == pytest.approx(1.3)
        assert entry["worst_cell"] == ["racy", 4, 200]

    def test_failed_sweep_jobs_are_refused(self):
        sweep = {"suite": "crossover", "records": [
            {"status": "timeout", "trace_id": "t", "analysis": "a",
             "backend": "x"}]}
        with pytest.raises(ReproError, match="did not finish"):
            crossover.build_table([sweep])

    def test_sweeps_merge_into_least_min_and_median_of_medians(self):
        def sweep(*times):
            return {"suite": "crossover", "records": [
                {"status": "ok", "analysis": "a", "kind": "racy",
                 "threads": 4, "events": 200, "seed": 0, "backend": "x",
                 "repeats": 5, "elapsed_seconds": low,
                 "elapsed_median_seconds": median}
                for low, median in times]}

        table = crossover.build_table(
            [sweep((0.3, 0.4)), sweep((0.2, 0.9)), sweep((0.5, 0.5))])
        (record,) = table["records"]
        assert (record["min_s"], record["median_s"], record["repeats"]) \
            == (0.2, 0.5, 15)
        assert table["sweeps"] == 3
        with pytest.raises(ReproError, match="different grids"):
            crossover.build_table([sweep((0.3, 0.4)), sweep()])
