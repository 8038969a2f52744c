"""End-to-end instrumentation: real workloads under an active registry
produce the catalogued metrics, and ``Session`` plumbs telemetry through
results and sinks."""

import json

import pytest

from repro.api import (
    AnalyzeConfig,
    GenerateConfig,
    ReportConfig,
    Session,
    StatsConfig,
    SweepConfig,
    TimelineConfig,
    WatchConfig,
)
from repro.analyses.common.base import Analysis
from repro.errors import ReproError
from repro.obs import (
    METRIC_CATALOG,
    MetricsRegistry,
    use_registry,
    validate_chrome_trace,
)
from repro.trace import dump_trace


@pytest.fixture
def session():
    return Session()


@pytest.fixture
def trace_file(tmp_path, session):
    result = session.run(GenerateConfig(kind="racy", threads=3, events=60,
                                        seed=5))
    path = tmp_path / "trace.std"
    dump_trace(result.trace, path)
    return str(path)


def _default(analysis):
    return Analysis.by_name(analysis).default_backend()


def _value(snapshot, kind, name, **labels):
    wanted = {str(k): str(v) for k, v in labels.items()}
    for entry in snapshot[kind]:
        if entry["name"] == name and entry["labels"] == wanted:
            return entry
    raise AssertionError(f"{name}{wanted} not in snapshot {kind}: "
                         f"{[e['name'] for e in snapshot[kind]]}")


class TestStreamEngine:
    def test_feed_and_flush_metrics(self):
        from repro.stream.engine import StreamEngine
        from repro.trace.generators import racy_trace

        registry = MetricsRegistry()
        with use_registry(registry):
            engine = StreamEngine(["race-prediction"])
            for index, event in enumerate(racy_trace(num_threads=3,
                                                     events_per_thread=60,
                                                     seed=5)):
                engine.feed(event)
                if (index + 1) % 30 == 0:
                    engine.flush()
            engine.finish()
        snapshot = registry.snapshot()
        events = _value(snapshot, "counters", "stream_events_total")
        assert events["value"] == engine.stats.events == 180
        flushes = _value(snapshot, "counters", "stream_flushes_total")
        assert flushes["value"] == engine.stats.flushes
        findings = _value(snapshot, "counters", "stream_findings_total",
                          analysis="race-prediction")
        assert findings["value"] == engine.stats.emitted > 0
        buffered = _value(snapshot, "gauges", "stream_buffered_events")
        assert buffered["value"] == engine.buffered_events
        flush_seconds = _value(snapshot, "histograms",
                               "stream_flush_seconds",
                               analysis="race-prediction")
        assert flush_seconds["count"] == engine.stats.flushes

    def test_native_flush_counts_each_operation_once(self):
        # A kept order's counts grow across flushes; the counter adds only
        # what each flush issued, so it ends at the kept order's totals.
        from repro.stream.engine import StreamEngine
        from repro.trace.generators import racy_trace

        registry = MetricsRegistry()
        with use_registry(registry):
            engine = StreamEngine(["race-prediction"])
            for index, event in enumerate(racy_trace(num_threads=3,
                                                     events_per_thread=60,
                                                     seed=5)):
                engine.feed(event)
                if (index + 1) % 30 == 0:
                    last = engine.flush()["race-prediction"]
        snapshot = registry.snapshot()
        for op, count in (("insert", last.insert_count),
                          ("query", last.query_count)):
            total = _value(snapshot, "counters", "po_ops_total",
                           analysis="race-prediction", op=op)
            assert total["value"] == count > 0
        runs = _value(snapshot, "histograms", "analysis_run_seconds",
                      analysis="race-prediction",
                      backend=_default("race-prediction"))
        assert runs["count"] == engine.stats.flushes == 6

    def test_native_analysis_feed_latency(self):
        from repro.stream.engine import StreamEngine
        from repro.trace.event import Event, EventKind

        registry = MetricsRegistry()
        with use_registry(registry):
            engine = StreamEngine(["c11-races"])
            for index in range(10):
                engine.feed(Event(thread=0, index=index,
                                  kind=EventKind.READ, variable="x"))
        feed = _value(registry.snapshot(), "histograms",
                      "stream_feed_seconds", analysis="c11-races")
        assert feed["count"] == 10

    def test_bounded_window_eviction_counter(self):
        from repro.stream.engine import StreamEngine
        from repro.stream.window import TumblingWindow
        from repro.trace.event import Event, EventKind

        registry = MetricsRegistry()
        with use_registry(registry):
            engine = StreamEngine(["race-prediction"],
                                  window=TumblingWindow(10))
            for index in range(25):
                engine.feed(Event(thread=0, index=index,
                                  kind=EventKind.READ, variable="x"))
        evicted = _value(registry.snapshot(), "counters",
                         "stream_evicted_total")
        assert evicted["value"] == 20  # two full windows evicted

    def test_checkpoint_metrics(self, tmp_path):
        from repro.stream.checkpoint import save_checkpoint
        from repro.stream.engine import StreamEngine
        from repro.trace.event import Event, EventKind

        registry = MetricsRegistry()
        path = tmp_path / "ck.json"
        with use_registry(registry):
            engine = StreamEngine(["race-prediction"])
            engine.feed(Event(thread=0, index=0, kind=EventKind.READ,
                              variable="x"))
            save_checkpoint(engine, path)
        snapshot = registry.snapshot()
        assert _value(snapshot, "counters", "checkpoint_total")["value"] == 1
        size = _value(snapshot, "gauges", "checkpoint_bytes")["value"]
        assert size == path.stat().st_size > 0
        assert _value(snapshot, "histograms",
                      "checkpoint_seconds")["count"] == 1

    def test_failed_save_records_one_error_span(self, tmp_path):
        from repro.errors import CheckpointError
        from repro.stream.checkpoint import save_checkpoint
        from repro.stream.engine import StreamEngine

        registry = MetricsRegistry()
        with use_registry(registry):
            engine = StreamEngine(["race-prediction"])
            with pytest.raises(CheckpointError):
                save_checkpoint(engine, tmp_path / "absent" / "ck.json")
        snapshot = registry.snapshot()
        spans = [span for span in snapshot["spans"]
                 if span["name"] == "checkpoint"]
        assert len(spans) == 1
        assert spans[0]["status"] == "error"
        assert spans[0]["error_type"] == "CheckpointError"
        assert _value(snapshot, "histograms",
                      "checkpoint_seconds")["count"] == 1

    def test_failed_flush_records_one_error_span(self):
        from repro.errors import AnalysisError
        from repro.stream.engine import StreamEngine
        from repro.trace.event import Event, EventKind

        def fail():
            raise AnalysisError("boom")

        registry = MetricsRegistry()
        with use_registry(registry):
            engine = StreamEngine(["race-prediction"])
            engine._attachments[0].analysis.flush = fail
            engine.feed(Event(thread=0, index=0, kind=EventKind.READ,
                              variable="x"))
            engine.flush()
        assert engine.stats.flush_errors == 1
        (flush,) = [span for span in registry.snapshot()["spans"]
                    if span["name"] == "stream_flush"]
        (child,) = flush["children"]
        assert child["name"] == "flush_analysis"
        assert child["status"] == "error"
        assert child["error_type"] == "AnalysisError"


class TestTraceIO:
    def test_load_and_write_counters_by_format(self, tmp_path):
        from repro.trace import read_trace, save_trace
        from repro.trace.generators import racy_trace

        trace = racy_trace(num_threads=2, events_per_thread=10, seed=1)
        std, stc = tmp_path / "t.std", tmp_path / "t.stc"
        registry = MetricsRegistry()
        with use_registry(registry):
            save_trace(trace, std)
            save_trace(trace, stc)
            read_trace(std)
            read_trace(stc)
        snapshot = registry.snapshot()
        for fmt in ("std", "stc"):
            writes = _value(snapshot, "counters", "trace_writes_total",
                            format=fmt)
            assert writes["value"] == 1
            loads = _value(snapshot, "counters", "trace_loads_total",
                           format=fmt)
            assert loads["value"] == 1
            parse = _value(snapshot, "histograms", "trace_parse_seconds",
                           format=fmt)
            assert parse["count"] == 1
            size = _value(snapshot, "counters", "trace_parse_bytes_total",
                          format=fmt)
            assert size["value"] > 0


class TestAnalysisRun:
    def test_run_metrics_and_po_op_counts(self, session, trace_file):
        registry = MetricsRegistry()
        with use_registry(registry):
            result = session.analyze(
                AnalyzeConfig(analysis="race-prediction", trace=trace_file))
        raw = result.raw
        snapshot = registry.snapshot()
        run = _value(snapshot, "histograms", "analysis_run_seconds",
                     analysis="race-prediction",
                     backend=_default("race-prediction"))
        assert run["count"] == 1
        assert run["sum"] == pytest.approx(raw.elapsed_seconds)
        findings = _value(snapshot, "counters", "analysis_findings_total",
                          analysis="race-prediction")
        assert findings["value"] == raw.finding_count
        inserts = _value(snapshot, "counters", "po_ops_total",
                         analysis="race-prediction", op="insert")
        assert inserts["value"] == raw.insert_count > 0


class TestSweepMetrics:
    def test_serial_sweep_records_jobs(self, session):
        registry = MetricsRegistry()
        with use_registry(registry):
            session.run(SweepConfig(suite="smoke",
                                    analyses="race-prediction",
                                    backends="vc-flat,st"))
        snapshot = registry.snapshot()
        jobs = _value(snapshot, "counters", "sweep_jobs_total", status="ok")
        assert jobs["value"] == 2
        for backend in ("vc-flat", "st"):
            seconds = _value(snapshot, "histograms", "sweep_job_seconds",
                             analysis="race-prediction", backend=backend)
            assert seconds["count"] == 1


class TestSessionPlumbing:
    def test_disabled_by_default_telemetry_is_none(self, session,
                                                   trace_file):
        result = session.run(AnalyzeConfig(analysis="race-prediction",
                                           trace=trace_file))
        assert result.telemetry is None
        # ... and deliberately absent from the parity-pinned document.
        assert "telemetry" not in result.to_dict()

    def test_metrics_path_enables_and_appends_snapshots(self, session,
                                                        trace_file,
                                                        tmp_path):
        path = tmp_path / "m.jsonl"
        for _ in range(2):
            result = session.run(AnalyzeConfig(analysis="race-prediction",
                                               trace=trace_file,
                                               metrics=str(path)))
        assert result.telemetry is not None
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            snapshot = json.loads(line)
            loads = _value(snapshot, "counters", "trace_loads_total",
                           format="std")
            assert loads["value"] > 0

    def test_root_span_is_named_after_the_command(self, session,
                                                  trace_file, tmp_path):
        result = session.run(WatchConfig(source=trace_file,
                                         analyses="race-prediction",
                                         flush_every=30,
                                         metrics=str(tmp_path / "m.jsonl")))
        assert [span["name"] for span in result.telemetry["spans"]] == \
            ["watch"]

    def test_session_level_registry_accumulates_across_runs(self,
                                                            trace_file):
        registry = MetricsRegistry()
        session = Session(metrics=registry)
        config = AnalyzeConfig(analysis="race-prediction", trace=trace_file)
        session.run(config)
        session.run(config)
        loads = _value(registry.snapshot(), "counters",
                       "trace_loads_total", format="std")
        assert loads["value"] == 2

    def test_emitted_metric_names_are_catalogued(self, session, trace_file,
                                                 tmp_path):
        result = session.run(AnalyzeConfig(analysis="race-prediction",
                                           trace=trace_file,
                                           metrics=str(tmp_path / "m.jsonl")))
        snapshot = result.telemetry
        names = {entry["name"]
                 for kind in ("counters", "gauges", "histograms")
                 for entry in snapshot[kind]}
        assert names <= set(METRIC_CATALOG)


class TestStatsAndReport:
    def test_stats_renders_every_format(self, session, trace_file,
                                        tmp_path):
        path = tmp_path / "m.jsonl"
        session.run(AnalyzeConfig(analysis="race-prediction",
                                  trace=trace_file, metrics=str(path)))
        for fmt in StatsConfig.FORMATS:
            result = session.run(StatsConfig(source=str(path), format=fmt))
            assert result.snapshot_count == 1
            assert result.exit_code == 0
        assert "trace_loads_total" in result.to_table()
        assert "# TYPE trace_loads_total counter" in result.to_prom()
        assert json.loads(result.to_json())["counters"]

    def test_stats_bad_index_is_a_clean_error(self, session, trace_file,
                                              tmp_path):
        path = tmp_path / "m.jsonl"
        session.run(AnalyzeConfig(analysis="race-prediction",
                                  trace=trace_file, metrics=str(path)))
        with pytest.raises(ReproError, match="out of range"):
            session.run(StatsConfig(source=str(path), index=7))

    def test_report_trend_writes_the_tables(self, session, tmp_path):
        document = {"modes": {"quick": {
            "python": "3", "repeats": 1,
            "results": {"fig11/csst": {"seconds": 0.1}},
        }}}
        (tmp_path / "BENCH_baseline.json").write_text(json.dumps(document))
        result = session.run(ReportConfig(dir=str(tmp_path),
                                          out=str(tmp_path / "tables")))
        assert result.exit_code == 0
        assert "fig11/csst" in \
            (tmp_path / "tables" / "perf_trend.md").read_text()
        assert "perf_trend.md" in result.to_table()


class TestTimeline:
    def test_timeline_flag_writes_a_valid_trace(self, session, trace_file,
                                                tmp_path):
        timeline = tmp_path / "t.json"
        result = session.run(WatchConfig(source=trace_file,
                                         analyses="race-prediction",
                                         flush_every=30,
                                         timeline=str(timeline)))
        assert result.exit_code == 0
        document = json.loads(timeline.read_text())
        assert validate_chrome_trace(document) == []
        names = {event["name"] for event in document["traceEvents"]
                 if event["ph"] == "X"}
        assert {"watch", "stream_flush", "flush_analysis"} <= names

    def test_timeline_command_reproduces_the_flag_output(self, session,
                                                         trace_file,
                                                         tmp_path):
        # Acceptance: ``repro timeline run.jsonl`` renders byte-for-byte
        # the file ``--timeline`` wrote from the live registry.
        metrics = tmp_path / "m.jsonl"
        live = tmp_path / "live.json"
        session.run(WatchConfig(source=trace_file,
                                analyses="race-prediction",
                                metrics=str(metrics), timeline=str(live)))
        replayed = tmp_path / "replayed.json"
        result = session.run(TimelineConfig(source=str(metrics),
                                            out=str(replayed)))
        assert result.exit_code == 0
        assert replayed.read_bytes() == live.read_bytes()
        assert result.out_path == str(replayed)
        assert "lanes" in result.to_table()
        # to_json is the file's text (sans trailing newline), verbatim.
        assert result.to_json() + "\n" == live.read_text()

    def test_timeline_to_stdout_renders_inline(self, session, trace_file,
                                               tmp_path):
        metrics = tmp_path / "m.jsonl"
        session.run(AnalyzeConfig(analysis="race-prediction",
                                  trace=trace_file, metrics=str(metrics)))
        result = session.run(TimelineConfig(source=str(metrics)))
        assert result.out_path is None
        document = json.loads(result.to_table())
        assert validate_chrome_trace(document) == []

    def test_timeline_bad_index_is_a_clean_error(self, session, trace_file,
                                                 tmp_path):
        metrics = tmp_path / "m.jsonl"
        session.run(AnalyzeConfig(analysis="race-prediction",
                                  trace=trace_file, metrics=str(metrics)))
        with pytest.raises(ReproError, match="out of range"):
            session.run(TimelineConfig(source=str(metrics), index=7))

    def test_stats_chrome_format_matches_timeline_rendering(self, session,
                                                            trace_file,
                                                            tmp_path):
        metrics = tmp_path / "m.jsonl"
        session.run(AnalyzeConfig(analysis="race-prediction",
                                  trace=trace_file, metrics=str(metrics)))
        stats = session.run(StatsConfig(source=str(metrics),
                                        format="chrome"))
        timeline = session.run(TimelineConfig(source=str(metrics)))
        assert stats.to_chrome() == timeline.to_json()
        assert validate_chrome_trace(json.loads(stats.to_chrome())) == []
