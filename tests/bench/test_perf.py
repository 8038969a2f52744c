"""Perf-regression harness: suite mechanics, JSON round-trip, comparison
logic, and the ``repro bench perf`` CLI wiring.

The real perf suite is exercised end to end by CI's perf-smoke job; these
tests drive the machinery with tiny injected cases so they stay fast.
"""

import json

import pytest

from repro.bench import perf
from repro.bench.harness import MeasuredRun
from repro.cli import main
from repro.errors import BenchmarkError


def _tiny_cases():
    def make(name, result):
        def setup(quick):
            def run():
                return result
            return run
        return perf.PerfCase(name, setup)

    return [make("fig11/incremental-csst", 1), make("fig11/auto", 2),
            make("trace-load/std", 3), make("trace-load/stc", 4)]


class TestRunPerf:
    def test_document_structure(self):
        document = perf.run_perf(quick=True, repeats=2, warmup=0,
                                 cases=_tiny_cases())
        assert document["version"] == perf.PERF_FORMAT_VERSION
        assert document["mode"] == "quick"
        assert document["repeats"] == 2
        assert set(document["results"]) == {
            "fig11/incremental-csst", "fig11/auto", "trace-load/std",
            "trace-load/stc"}
        for entry in document["results"].values():
            assert entry["seconds"] == min(entry["runs"])
            assert len(entry["runs"]) == 2
        assert set(document["speedups"]) == {
            "fig11-auto-over-best-static", "stc-parse-over-std-parse"}

    def test_full_mode_flag(self):
        document = perf.run_perf(quick=False, repeats=1, warmup=0,
                                 cases=_tiny_cases()[:1])
        assert document["mode"] == "full"

    def test_bad_repeats_rejected(self):
        with pytest.raises(BenchmarkError):
            perf.run_perf(repeats=0, cases=_tiny_cases())

    def test_default_cases_cover_the_speedup_pairs(self):
        names = {case.name for case in perf.default_cases()}
        for fast, slow, _label in perf.SPEEDUP_PAIRS:
            assert fast in names and slow in names

    def test_one_real_kernel_case_runs(self):
        # The smallest real case end to end (quick sizes): the SST op mix.
        (case,) = [c for c in perf.default_cases() if c.name == "sst-ops/flat"]
        document = perf.run_perf(quick=True, repeats=1, warmup=0,
                                 cases=[case])
        assert document["results"]["sst-ops/flat"]["seconds"] >= 0


class TestCompare:
    def _docs(self, current_seconds, baseline_seconds, mode="quick"):
        current = {"mode": mode,
                   "results": {"case": {"seconds": current_seconds}}}
        baseline = {"modes": {mode: {
            "results": {"case": {"seconds": baseline_seconds}}}}}
        return current, baseline

    def test_clean_when_within_threshold(self):
        current, baseline = self._docs(0.011, 0.010)
        assert perf.compare_documents(current, baseline, threshold=2.0) == []

    def test_regression_detected(self):
        current, baseline = self._docs(0.030, 0.010)
        entries = perf.compare_documents(current, baseline, threshold=2.0)
        assert len(entries) == 1 and "case" in entries[0]
        assert perf.is_regression(entries)

    def test_missing_mode_is_advisory_not_regression(self):
        current, _ = self._docs(0.030, 0.010, mode="full")
        baseline = {"modes": {"quick": {"results": {}}}}
        entries = perf.compare_documents(current, baseline)
        assert len(entries) == 1 and entries[0].startswith("note:")
        assert not perf.is_regression(entries)

    def test_unknown_cases_ignored(self):
        current = {"mode": "quick",
                   "results": {"new-case": {"seconds": 9.0}}}
        baseline = {"modes": {"quick": {"results": {}}}}
        assert perf.compare_documents(current, baseline) == []

    def test_bad_threshold_rejected(self):
        current, baseline = self._docs(1.0, 1.0)
        with pytest.raises(BenchmarkError):
            perf.compare_documents(current, baseline, threshold=0)


class TestPersistence:
    def test_write_read_roundtrip(self, tmp_path):
        document = perf.run_perf(quick=True, repeats=1, warmup=0,
                                 cases=_tiny_cases())
        path = str(tmp_path / "bench.json")
        perf.write_document(document, path)
        assert perf.read_document(path) == json.loads(
            json.dumps(document))

    def test_default_output_path_dedupes_same_day_runs(self, tmp_path,
                                                       monkeypatch):
        # A second run on the same day must not overwrite the first
        # report: the default name gains a -N suffix instead.
        import datetime

        monkeypatch.chdir(tmp_path)
        first = perf.default_output_path()
        assert first == \
            f"BENCH_{datetime.date.today().isoformat()}.json"
        (tmp_path / first).write_text("{}")
        second = perf.default_output_path()
        assert second == first[:-len(".json")] + "-1.json"
        (tmp_path / second).write_text("{}")
        third = perf.default_output_path()
        assert third == first[:-len(".json")] + "-2.json"

    def test_build_baseline_contains_both_modes(self):
        document = perf.build_baseline(repeats=1, warmup=0,
                                       cases=_tiny_cases())
        assert set(document["modes"]) == {"quick", "full"}
        assert document["modes"]["quick"]["mode"] == "quick"
        assert document["modes"]["full"]["mode"] == "full"


class TestBenchCli:
    @pytest.fixture(autouse=True)
    def tiny_suite(self, monkeypatch):
        # Every sample records the same seconds: a tiny case's real
        # perf_counter delta is sub-microsecond noise, which the 2x gate
        # between two runs would judge.
        monkeypatch.setattr(perf, "default_cases", _tiny_cases)
        monkeypatch.setattr(
            perf, "measure",
            lambda func, track_memory=True: MeasuredRun(
                seconds=0.001, peak_memory_bytes=0, value=func()))

    def test_bench_perf_writes_dated_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "perf", "--quick", "--repeats", "1"]) == 0
        output = capsys.readouterr().out
        assert "perf[quick]" in output
        assert "fig11-auto-over-best-static" in output
        written = list(tmp_path.glob("BENCH_*.json"))
        assert len(written) == 1
        document = json.loads(written[0].read_text())
        assert document["mode"] == "quick"

    def test_bench_perf_explicit_out_and_no_baseline_note(self, tmp_path,
                                                          capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "run.json"
        assert main(["bench", "perf", "--quick", "--repeats", "1",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert "regression check skipped" in capsys.readouterr().out

    def test_bench_perf_update_baseline_then_compare_clean(self, tmp_path,
                                                           capsys,
                                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "perf", "--repeats", "1",
                     "--update-baseline"]) == 0
        assert (tmp_path / perf.BASELINE_FILENAME).exists()
        assert main(["bench", "perf", "--quick", "--repeats", "1",
                     "--out", str(tmp_path / "run.json")]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bench_perf_detects_regression(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        baseline = {
            "version": perf.PERF_FORMAT_VERSION,
            "modes": {"quick": {"results": {
                "fig11/incremental-csst": {"seconds": 1e-9}}}},
        }
        (tmp_path / perf.BASELINE_FILENAME).write_text(json.dumps(baseline))
        code = main(["bench", "perf", "--quick", "--repeats", "1",
                     "--out", str(tmp_path / "run.json")])
        assert code == 1
        assert "threshold" in capsys.readouterr().err

    def test_bench_perf_missing_explicit_baseline_errors(self, tmp_path,
                                                         capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "perf", "--quick", "--repeats", "1",
                     "--out", str(tmp_path / "run.json"),
                     "--baseline", str(tmp_path / "missing.json")])
        assert code == 2
        assert "baseline file not found" in capsys.readouterr().err

    def test_bench_perf_no_compare_skips_check(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        baseline = {
            "version": perf.PERF_FORMAT_VERSION,
            "modes": {"quick": {"results": {
                "fig11/csst": {"seconds": 1e-9}}}},
        }
        (tmp_path / perf.BASELINE_FILENAME).write_text(json.dumps(baseline))
        assert main(["bench", "perf", "--quick", "--repeats", "1",
                     "--no-compare",
                     "--out", str(tmp_path / "run.json")]) == 0
