"""Session facade tests: dispatch, workflows, capabilities."""

import json

import pytest

from repro.api import (
    AnalyzeConfig,
    CompareConfig,
    ConvertConfig,
    FuzzConfig,
    GenConfig,
    GenerateConfig,
    Session,
    SweepConfig,
    WatchConfig,
)
from repro.analyses.common.base import Analysis
from repro.errors import AnalysisError, ConfigError, ReproError
from repro.trace import dump_trace


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture
def trace_file(tmp_path, session):
    result = session.run(GenerateConfig(kind="racy", threads=3, events=60,
                                        seed=5))
    path = tmp_path / "trace.std"
    dump_trace(result.trace, path)
    return str(path)


class TestDispatch:
    def test_run_dispatches_on_config_type(self, session):
        result = session.run(GenerateConfig(kind="tso", threads=2,
                                            events=10))
        assert result.trace.num_threads == 2

    def test_run_rejects_foreign_objects(self, session):
        with pytest.raises(ConfigError, match="cannot dispatch"):
            session.run({"analysis": "race-prediction"})

    def test_run_rejects_hooks_the_workflow_does_not_take(self, session):
        with pytest.raises(ConfigError, match="sweep does not accept "
                                              "on_finding"):
            session.run(SweepConfig(), on_finding=lambda item: None)


class TestAnalyze:
    def test_analyze_from_file(self, session, trace_file):
        result = session.run(AnalyzeConfig(analysis="race-prediction",
                                           trace=trace_file))
        assert result.raw.backend \
            == Analysis.by_name("race-prediction").default_backend()
        assert result.raw.finding_count >= 1
        assert result.exit_code == 0

    def test_analyze_accepts_live_trace(self, session):
        generated = session.run(GenerateConfig(kind="racy", threads=3,
                                               events=60, seed=5))
        result = session.analyze(
            AnalyzeConfig(analysis="race-prediction", trace="unused.std"),
            trace=generated.trace)
        assert result.raw.trace_events == len(generated.trace)

    def test_analyze_resolves_friendly_names(self, session, trace_file):
        result = session.run(AnalyzeConfig(analysis="race_prediction",
                                           trace=trace_file))
        assert result.raw.analysis == "race-prediction"

    def test_analyze_table_bounds_findings_but_dict_keeps_all(
            self, session, trace_file):
        result = session.run(AnalyzeConfig(analysis="race-prediction",
                                           trace=trace_file, max_findings=1))
        assert result.to_table().count("finding:") == 1
        assert "more" in result.to_table()
        document = result.to_dict()
        assert len(document["findings"]) == document["finding_count"] > 1

    def test_unknown_backend_is_an_error(self, session, trace_file):
        with pytest.raises(ReproError, match="unknown partial-order backend"):
            session.run(AnalyzeConfig(analysis="race-prediction",
                                      trace=trace_file, backend="vcc"))


    @pytest.mark.parametrize("backend", ["vc-flat", "incremental-csst"])
    def test_unknown_backend_keyword_is_an_error_before_the_read(
            self, session, tmp_path, backend):
        config = AnalyzeConfig(analysis="deadlock-prediction",
                               trace=str(tmp_path / "never-read.std"),
                               backend=backend, params=(("block_size", 4),))
        with pytest.raises(AnalysisError,
                           match=f"backend '{backend}' does not accept "
                                 f"'block_size'"):
            session.run(config)


class TestCompare:
    def test_compare_covers_applicable_backends(self, session, trace_file):
        result = session.run(CompareConfig(analysis="memory-bugs",
                                           trace=trace_file))
        backends = [run.backend for run in result.runs]
        assert "vc-flat" in backends and "incremental-csst" in backends
        findings = {run.finding_count for run in result.runs}
        assert len(findings) == 1  # every backend agrees

    def test_compare_backend_filter(self, session, trace_file):
        result = session.run(CompareConfig(analysis="memory-bugs",
                                           trace=trace_file,
                                           backends="vc-flat,st"))
        assert [run.backend for run in result.runs] == ["st", "vc-flat"]

    def test_compare_inapplicable_filter_is_an_error(self, session,
                                                     trace_file):
        with pytest.raises(ReproError, match="applicable"):
            session.run(CompareConfig(analysis="linearizability",
                                      trace=trace_file, backends="vc-flat"))

    def test_compare_rejects_misspelled_backend_even_with_valid_ones(
            self, session, trace_file):
        # A typo must not silently shrink the comparison to the valid rest.
        with pytest.raises(ReproError,
                           match=r"not applicable.*incremental_csst"):
            session.run(CompareConfig(analysis="memory-bugs",
                                      trace=trace_file,
                                      backends="vc-flat,incremental_csst"))

    def test_compare_rejects_empty_backend_selection(self, session,
                                                     trace_file):
        with pytest.raises(ReproError, match="no backends selected"):
            session.run(CompareConfig(analysis="memory-bugs",
                                      trace=trace_file, backends=()))

    def test_analysis_params_change_the_run(self, session, trace_file):
        wide = session.run(AnalyzeConfig(analysis="race-prediction",
                                         trace=trace_file))
        narrow = session.run(AnalyzeConfig(
            analysis="race-prediction", trace=trace_file,
            params={"candidate_window": 1}))
        assert narrow.raw.details["candidates"] < \
            wide.raw.details["candidates"]

    def test_explicitly_empty_sweep_selection_is_an_error(self, session):
        # analyses=() must not silently widen to "every analysis".
        with pytest.raises(ReproError, match="sweep plan is empty"):
            session.run(SweepConfig(suite="smoke", analyses=()))


class TestSweep:
    def test_sweep_returns_structured_records(self, session):
        result = session.run(SweepConfig(suite="smoke",
                                         analyses="race-prediction",
                                         backends="vc-flat,st"))
        assert len(result.records) == 2
        assert result.exit_code == 0
        document = result.to_dict()
        assert document["jobs"] == 2 and document["failures"] == 0

    def test_sweep_json_matches_runner_layer(self, session):
        result = session.run(SweepConfig(suite="smoke",
                                         analyses="race-prediction",
                                         backends="vc-flat", baseline="vc-flat"))
        assert result.to_json() == result.sweep.to_json(baseline="vc-flat")
        assert result.to_table() == result.sweep.format_table(baseline="vc-flat")

    def test_sweep_warnings_are_collected(self, session):
        result = session.run(SweepConfig(suite="smoke",
                                         analyses="c11-races",
                                         backends="vc-flat", timeout=5,
                                         baseline="vc-flat", format="csv"))
        text = "\n".join(result.warnings)
        assert "timeout only applies to parallel runs" in text
        assert "baseline has no effect with the csv format" in text

    def test_sweep_unknown_baseline_is_an_error(self, session):
        with pytest.raises(ReproError, match="unknown baseline backend"):
            session.run(SweepConfig(suite="smoke", baseline="vcc"))


class TestWatch:
    def test_watch_streams_findings_through_hook(self, session, trace_file):
        seen = []
        result = session.run(
            WatchConfig(source=trace_file, analyses="race_prediction",
                        flush_every=30),
            on_finding=seen.append)
        assert result.exit_code == 0
        assert seen, "expected streamed findings"
        final = result.to_dict()["final"]["race-prediction"]
        assert final  # the summary document carries the final findings

    def test_watch_checkpoint_resume_notices(self, session, trace_file,
                                             tmp_path):
        checkpoint = str(tmp_path / "ck.json")
        session.run(WatchConfig(source=trace_file,
                                analyses="race-prediction",
                                max_events=30, checkpoint=checkpoint))
        notices = []
        result = session.run(
            WatchConfig(source=trace_file, analyses="race-prediction",
                        checkpoint=checkpoint),
            on_notice=lambda kind, message: notices.append((kind, message)))
        assert result.resumed_from == checkpoint
        assert result.resume_cursor == 30
        assert any(kind == "info" and "resumed from" in message
                   for kind, message in notices)
        assert not result.warnings

    def test_watch_flush_failure_sets_exit_code(self, session, tmp_path):
        generated = session.run(GenerateConfig(kind="history", threads=2,
                                               events=8))
        path = tmp_path / "h.std"
        dump_trace(generated.trace, path)
        result = session.run(WatchConfig(source=str(path),
                                         analyses="linearizability",
                                         max_events=3))
        assert result.exit_code == 1
        assert any("last flush failed" in warning
                   for warning in result.warnings)


class TestConvert:
    def test_std_to_stc_to_std_is_lossless(self, session, trace_file,
                                           tmp_path):
        stc = tmp_path / "t.stc"
        result = session.run(ConvertConfig(source=trace_file, out=str(stc)))
        assert (result.source_format, result.out_format) == ("std", "stc")
        assert stc.read_bytes()[:4] == b"\x89STC"
        assert result.event_count > 0

        back = tmp_path / "back.std"
        again = session.run(ConvertConfig(source=str(stc), out=str(back)))
        assert (again.source_format, again.out_format) == ("stc", "std")
        from repro.trace import load_trace
        assert list(load_trace(back)) == list(load_trace(trace_file))

    def test_to_flag_overrides_suffix(self, session, trace_file, tmp_path):
        out = tmp_path / "weird.bin"
        result = session.run(ConvertConfig(source=trace_file, out=str(out),
                                           to="stc"))
        assert result.out_format == "stc"
        assert out.read_bytes()[:4] == b"\x89STC"

    def test_result_exports(self, session, trace_file, tmp_path):
        result = session.run(ConvertConfig(source=trace_file,
                                           out=str(tmp_path / "t.stc")))
        document = result.to_dict()
        assert document["source_format"] == "std"
        assert document["out_format"] == "stc"
        json.dumps(document)
        assert "->" in result.to_table()
        assert result.exit_code == 0

    def test_analyze_reads_stc_directly(self, session, trace_file,
                                        tmp_path):
        stc = tmp_path / "t.stc"
        session.run(ConvertConfig(source=trace_file, out=str(stc)))
        from_std = session.run(AnalyzeConfig(analysis="race-prediction",
                                             trace=trace_file))
        from_stc = session.run(AnalyzeConfig(analysis="race-prediction",
                                             trace=str(stc)))
        assert ([str(f) for f in from_stc.raw.findings]
                == [str(f) for f in from_std.raw.findings])

    def test_missing_source_is_an_error(self, session, tmp_path):
        with pytest.raises((ReproError, OSError)):
            session.run(ConvertConfig(source=str(tmp_path / "nope.std"),
                                      out=str(tmp_path / "out.stc")))


class TestGenAndFuzz:
    def test_gen_corpus_builds_and_registers(self, session, tmp_path):
        from repro.runner.corpus import SUITES

        out = tmp_path / "corpus"
        try:
            result = session.run(GenConfig(out=str(out), name="apitest",
                                           kinds="racy", count=1, seed=2))
            manifest = result.to_dict()
            assert manifest["suite"] == "corpus:apitest"
            assert (out / "manifest.json").exists()
            assert "corpus:apitest" in SUITES
            # The manifest document is exactly what landed on disk.
            on_disk = json.loads((out / "manifest.json").read_text())
            assert manifest == on_disk
        finally:
            SUITES.pop("corpus:apitest", None)

    def test_fuzz_quick_run(self, session, tmp_path):
        cases = []
        result = session.run(
            FuzzConfig(seeds=4, quick=True, kinds="racy",
                       out=str(tmp_path / "fz")),
            on_case=cases.append)
        assert result.exit_code == 0
        assert len(cases) == 4
        document = result.to_dict()
        assert document["ok"] and document["cases"] == 4
        assert document["divergences"] == []


class TestCapabilities:
    def test_capabilities_shape(self, session):
        caps = session.capabilities()
        assert set(caps) == {"version", "analyses", "backends", "kinds",
                             "suites", "formats", "observability",
                             "tuning", "serving", "exit_codes"}
        assert len(caps["analyses"]) == 7
        assert caps["exit_codes"] == {"ok": 0, "failure": 1, "error": 2,
                                      "interrupt": 130}
        assert caps["backends"]["csst"]["supports_deletion"]
        assert caps["backends"]["vc-flat"]["incremental"]
        assert not caps["backends"]["vc-flat"]["dynamic"]
        assert caps["analyses"]["race-prediction"]["fed_by"]
        tuning = caps["tuning"]
        assert set(tuning) == {"auto_backend", "features"}
        assert tuning["auto_backend"] == "auto"
        assert "auto" in caps["analyses"]["race-prediction"]["backends"]
        obs = caps["observability"]
        assert obs["sinks"] == ["memory", "jsonl", "prom"]
        assert obs["metrics"]["stream_events_total"]["type"] == "counter"
        assert obs["metrics"]["span_seconds"]["type"] == "histogram"
        json.dumps(caps)  # must serialize cleanly

    def test_capabilities_matches_version(self, session):
        import repro

        assert session.capabilities()["version"] == repro.__version__
