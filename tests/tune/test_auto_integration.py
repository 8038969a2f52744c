"""The ``auto`` pseudo-backend end to end: analysis layer, sweep
executor (oracle/regret), streaming engine, session facade.  Which
backend ``auto`` picks is pinned by ``test_auto_golden.py``."""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from repro.analyses.common.base import Analysis
from repro.api import (
    AnalyzeConfig,
    ServeConfig,
    Session,
    SweepConfig,
    WatchConfig,
)
from repro.core import AUTO_BACKEND, BACKENDS
from repro.cli import build_parser
from repro.errors import ConfigError, ReproError
from repro.runner.executor import plan_jobs, run_suite
from repro.runner.corpus import SUITES
from repro.stream.engine import StreamEngine
from repro.trace.generators import build_trace


def write_trace(tmp_path, kind="racy", threads=3, events=40, seed=1):
    from repro.trace import dumps_trace

    trace = build_trace(kind, num_threads=threads, events=events, seed=seed)
    path = tmp_path / "t.std"
    path.write_text(dumps_trace(trace))
    return trace, path


class TestAnalysisLayer:
    def test_auto_is_not_a_factory_backend(self):
        assert AUTO_BACKEND not in BACKENDS

    def test_auto_resolves_to_a_concrete_backend(self):
        trace = build_trace("racy", num_threads=3, events=40, seed=1)
        cls = Analysis.by_name("race-prediction")
        auto = cls(AUTO_BACKEND).run(trace)
        assert auto.backend in cls.applicable_backends()
        assert auto.details["backend_selected"] == auto.backend
        assert "policy" not in auto.details
        assert "feature_bucket" not in auto.details
        static = cls(auto.backend).run(trace)
        assert [str(f) for f in auto.findings] \
            == [str(f) for f in static.findings]

    def test_static_backends_record_no_selection(self):
        trace = build_trace("racy", num_threads=3, events=40, seed=1)
        result = Analysis.by_name("race-prediction")("vc-flat").run(trace)
        assert "backend_selected" not in result.details


class TestSweepPlanning:
    def test_auto_adds_one_job_per_pair(self):
        suite = SUITES["smoke"]
        static = plan_jobs(suite)
        auto_only = plan_jobs(suite, backends=[AUTO_BACKEND])
        assert all(job.backend == AUTO_BACKEND for job in auto_only)
        pairs = {(job.spec.trace_id, job.analysis) for job in static}
        assert {(job.spec.trace_id, job.analysis) for job in auto_only} \
            == pairs

    def test_oracle_runs_statics_alongside_auto(self):
        suite = SUITES["smoke"]
        jobs = plan_jobs(suite, backends=[AUTO_BACKEND], oracle=True)
        backends = {job.backend for job in jobs}
        assert AUTO_BACKEND in backends
        assert len(backends) > 1

    def test_oracle_without_auto_rejected(self):
        with pytest.raises(ReproError, match="oracle"):
            plan_jobs(SUITES["smoke"], backends=["vc-flat"], oracle=True)

    def test_unknown_backend_still_rejected(self):
        with pytest.raises(ReproError):
            plan_jobs(SUITES["smoke"], backends=["auto", "vcc"])


class TestSweepExecution:
    def test_auto_sweep_records_selection(self):
        result = run_suite("smoke", backends=[AUTO_BACKEND],
                           analyses=["race-prediction"])
        assert result.records
        for record in result.records:
            assert record.ok
            assert record.backend == AUTO_BACKEND
            assert record.backend_selected in BACKENDS
            assert record.display_backend \
                == f"auto:{record.backend_selected}"

    def test_oracle_report_and_regret(self):
        result = run_suite("smoke", backends=[AUTO_BACKEND],
                           analyses=["race-prediction"], oracle=True)
        assert result.oracle is not None
        report = result.oracle
        assert report["jobs"] > 0
        assert report["optimal_picks"] <= report["jobs"]
        assert report["regret_seconds"] == pytest.approx(
            report["auto_seconds"] - report["best_seconds"])
        assert "oracle" in result.to_document()
        assert "oracle:" in result.to_table()

    def test_non_oracle_document_has_no_oracle_key(self):
        result = run_suite("smoke", backends=[AUTO_BACKEND],
                           analyses=["race-prediction"])
        assert "oracle" not in result.to_document()


class TestStreamEngine:
    def test_auto_pins_backend_and_matches_batch(self):
        trace = build_trace("racy", num_threads=3, events=60, seed=1)
        engine = StreamEngine(["race-prediction"], backend=AUTO_BACKEND)
        result = engine.run(trace)
        chosen = result.backends_selected["race-prediction"]
        assert chosen in BACKENDS
        batch = Analysis.by_name("race-prediction")(chosen).run(trace)
        assert len(result.final_findings_for("race-prediction")) \
            == len(batch.findings)

    def test_auto_resolves_when_attached(self):
        # The pick reads no trace, so there is no preamble to wait for:
        # the engine knows it before the first event, and a stream of one
        # event reports the same pick.
        engine = StreamEngine(["race-prediction", "c11-races"],
                              backend=AUTO_BACKEND)
        expected = {name: Analysis.by_name(name).default_backend()
                    for name in ("race-prediction", "c11-races")}
        assert engine.backends_selected == expected
        assert not hasattr(StreamEngine, "AUTO_PREAMBLE_EVENTS")
        trace = build_trace("racy", num_threads=1, events=1, seed=3)
        assert engine.run(trace).backends_selected == expected

    def test_checkpoint_records_the_concrete_pick(self, tmp_path):
        from repro.stream.checkpoint import load_checkpoint, save_checkpoint

        trace = build_trace("racy", num_threads=3, events=20, seed=1)
        engine = StreamEngine(["race-prediction"], backend=AUTO_BACKEND)
        for event in list(trace)[:10]:
            engine.feed(event)
        path = tmp_path / "ckpt.json"
        save_checkpoint(engine, str(path))
        state = load_checkpoint(str(path))
        assert state["analyses"] == [
            {"name": "race-prediction",
             "backend": Analysis.by_name("race-prediction")
             .default_backend()}]

    def test_native_analysis_resolves_before_first_feed(self):
        trace = build_trace("c11", num_threads=3, events=40, seed=2)
        engine = StreamEngine(["c11-races"], backend=AUTO_BACKEND)
        result = engine.run(trace)
        chosen = result.backends_selected["c11-races"]
        batch = Analysis.by_name("c11-races")(chosen).run(trace)
        assert len(result.final_findings_for("c11-races")) \
            == len(batch.findings)

    def test_fallback_emits_a_typed_warning(self):
        # linearizability cannot run on vc; the silent fallback of old
        # versions must now surface a StreamWarning.
        engine = StreamEngine(["linearizability"], backend="vc-flat")
        assert len(engine.warnings) == 1
        warning = engine.warnings[0]
        assert warning.category == "backend-fallback"
        assert warning.analysis == "linearizability"
        assert "vc-flat" in warning.message
        trace = build_trace("history", num_threads=2, events=10, seed=1)
        result = engine.run(trace)
        assert result.warnings == [warning]

    def test_applicable_backend_warns_nothing(self):
        engine = StreamEngine(["race-prediction"], backend="vc-flat")
        assert engine.warnings == []


class TestSessionFacade:
    def test_analyze_auto(self, tmp_path):
        _trace, path = write_trace(tmp_path)
        config = AnalyzeConfig(analysis="race-prediction", trace=str(path),
                               backend="auto")
        result = Session().run(config)
        document = result.to_dict()
        assert document["backend"] in BACKENDS
        assert document["backend_selected"] == document["backend"]

    def test_analyze_static_reports_itself_as_selected(self, tmp_path):
        _trace, path = write_trace(tmp_path)
        config = AnalyzeConfig(analysis="race-prediction", trace=str(path),
                               backend="vc-flat")
        assert Session().run(config).to_dict()["backend_selected"] == "vc-flat"

    def test_watch_auto_reports_selection(self, tmp_path):
        _trace, path = write_trace(tmp_path, events=60)
        notices = []
        config = WatchConfig(source=str(path), analyses="race-prediction",
                             backend="auto")
        result = Session().run(
            config, on_notice=lambda kind, message: notices.append(message))
        document = result.to_dict()
        assert document["backends_selected"]["race-prediction"] in BACKENDS
        assert any("auto selected backend" in message for message in notices)

    def test_capabilities_advertise_tuning(self):
        document = Session().capabilities()
        tuning = document["tuning"]
        assert set(tuning) == {"auto_backend", "features"}
        assert tuning["auto_backend"] == AUTO_BACKEND
        assert "events" in tuning["features"]
        for entry in document["analyses"].values():
            assert AUTO_BACKEND in entry["backends"]


class TestConfigValidation:
    @pytest.mark.parametrize("config_cls, base", [
        (AnalyzeConfig, {"analysis": "race-prediction", "trace": "t.std"}),
        (SweepConfig, {}),
        (WatchConfig, {"source": "t.std"}),
        (ServeConfig, {"analyses": "c11-races", "sources": ["t.std"]}),
    ])
    def test_no_selection_policy_config(self, config_cls, base):
        # A saved config from before the fixed rule fails loudly.
        assert not [field.name for field in dataclasses.fields(config_cls)
                    if "policy" in field.name]
        with pytest.raises(ConfigError, match="unknown"):
            config_cls.from_dict({**base, "policy": "heuristic"})

    def test_oracle_requires_auto(self):
        with pytest.raises(ConfigError):
            SweepConfig(oracle=True, backends="vc-flat")

    @pytest.mark.parametrize("command", ["analyze", "sweep", "watch",
                                         "serve"])
    def test_no_selection_policy_flags(self, command):
        parser = build_parser()
        (subparsers,) = [action for action in parser._actions
                         if isinstance(action, argparse._SubParsersAction)]
        options = [option for action in subparsers.choices[command]._actions
                   for option in action.option_strings]
        assert "--backend" in options or "--backends" in options
        assert not [option for option in options if "policy" in option]
