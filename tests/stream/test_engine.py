"""StreamEngine: ingestion, windows, emission semantics."""

import gc
import weakref

import pytest

from repro.analyses.common.base import Analysis
from repro.errors import StreamError
from repro.stream.engine import StreamEngine, finding_key
from repro.stream.source import TraceSource
from repro.stream.window import SlidingWindow, TumblingWindow, UnboundedWindow
from repro.trace.event import Event, EventKind
from repro.trace.generators import c11_trace, racy_trace


class TestConstruction:
    def test_needs_analyses(self):
        with pytest.raises(StreamError):
            StreamEngine([])

    def test_duplicate_analyses_rejected(self):
        with pytest.raises(StreamError):
            StreamEngine(["race-prediction", "race-prediction"])

    def test_instances_need_named_backends(self):
        from repro.core import make_partial_order

        backend = make_partial_order("vc-flat", num_chains=2, capacity_hint=8)
        analysis = Analysis.by_name("race-prediction")(backend)
        with pytest.raises(StreamError):
            StreamEngine([analysis])

    def test_unknown_backend_rejected(self):
        with pytest.raises(StreamError, match="unknown partial-order"):
            StreamEngine(["race-prediction"], backend="vcc")

    def test_inapplicable_backend_falls_back_to_default(self):
        # linearizability cannot run on vc (needs deletion); forcing the
        # sweep-style backend must not break the attachment.
        engine = StreamEngine(["linearizability"], backend="vc-flat")
        spec = engine._attachments[0].analysis._backend_spec
        assert spec == Analysis.by_name("linearizability").default_backend()


class TestIngestion:
    def test_out_of_order_event_rejected(self):
        engine = StreamEngine(["race-prediction"])
        engine.feed(Event(thread=0, index=0, kind=EventKind.READ, variable="x"))
        with pytest.raises(StreamError):
            engine.feed(Event(thread=0, index=2, kind=EventKind.READ,
                              variable="x"))

    def test_feed_after_finish_rejected(self):
        engine = StreamEngine(["race-prediction"])
        engine.feed(Event(thread=0, index=0, kind=EventKind.READ, variable="x"))
        engine.finish()
        with pytest.raises(StreamError):
            engine.feed(Event(thread=0, index=1, kind=EventKind.READ,
                              variable="x"))

    def test_cursor_and_stats_advance(self):
        trace = racy_trace(num_threads=3, events_per_thread=10, seed=0)
        engine = StreamEngine(["race-prediction"])
        engine.run(TraceSource(trace))
        assert engine.cursor == len(trace)
        assert engine.stats.events == len(trace)
        assert engine.stats.threads == trace.num_threads


class TestWindows:
    def test_tumbling_window_bounds_buffer(self):
        trace = racy_trace(num_threads=3, events_per_thread=40, seed=1)
        engine = StreamEngine(["race-prediction"], window=TumblingWindow(30))
        peak = 0
        for event in trace:
            engine.feed(event)
            peak = max(peak, engine.buffered_events)
        engine.finish()
        assert peak <= 30
        assert engine.stats.evicted > 0

    def test_sliding_window_bounds_buffer_with_overlap(self):
        trace = racy_trace(num_threads=3, events_per_thread=40, seed=1)
        engine = StreamEngine(["race-prediction"],
                              window=SlidingWindow(30, 10))
        peak = 0
        for event in trace:
            engine.feed(event)
            peak = max(peak, engine.buffered_events)
        engine.finish()
        assert peak <= 30

    def test_windowed_snapshot_is_rebased(self):
        trace = racy_trace(num_threads=3, events_per_thread=40, seed=1)
        engine = StreamEngine(["race-prediction"], window=TumblingWindow(25))
        for event in trace:
            engine.feed(event)
        snapshot, offsets = engine.snapshot()
        assert len(snapshot) == engine.buffered_events
        # Every thread's chain restarts at 0 in the snapshot.
        for thread in snapshot.threads:
            assert snapshot.thread_events(thread)[0].index == 0
        # Offsets map snapshot indexes back to true stream indexes.
        for thread, offset in offsets.items():
            assert offset > 0

    def test_final_results_survive_exact_window_multiple(self):
        """When the stream length is a multiple of the window size, the
        boundary flush IS the final flush: finish() must not re-evaluate
        the emptied buffer and overwrite the results with zeros."""
        trace = racy_trace(num_threads=3, events_per_thread=30, seed=2)
        size = len(trace)  # one tumbling window == the whole trace
        engine = StreamEngine(["race-prediction"],
                              window=TumblingWindow(size))
        result = engine.run(TraceSource(trace))
        batch = Analysis.by_name("race-prediction")(
            "incremental-csst").run(trace)
        final = result.results["race-prediction"]
        assert final.trace_events == len(trace)
        assert final.findings == batch.findings

    def test_overlapping_windows_do_not_duplicate_findings(self):
        trace = racy_trace(num_threads=3, events_per_thread=40, seed=1)
        engine = StreamEngine(["race-prediction"],
                              window=SlidingWindow(60, 20))
        engine.run(TraceSource(trace))
        keys = [finding_key(item.finding) for item in engine.findings]
        assert len(keys) == len(set(keys))


class TestEmission:
    def test_incremental_emission_before_end_of_stream(self):
        trace = racy_trace(num_threads=3, events_per_thread=60, seed=2)
        engine = StreamEngine(["race-prediction"],
                              window=UnboundedWindow(flush_every=20))
        result = engine.run(TraceSource(trace))
        positions = [item.position for item in result.findings]
        assert positions, "expected findings on this seeded workload"
        assert min(positions) < len(trace)

    def test_on_finding_callback_sees_every_emission(self):
        trace = racy_trace(num_threads=3, events_per_thread=40, seed=2)
        seen = []
        engine = StreamEngine(["race-prediction"],
                              window=UnboundedWindow(flush_every=25),
                              on_finding=seen.append)
        result = engine.run(TraceSource(trace))
        assert seen == result.findings

    def test_native_flush_without_feed_covers_the_view(self):
        """begin() + flush() with no feed() must honor the base contract
        (cover everything in the view) via the batch fallback, not return
        an empty online result."""
        trace = c11_trace(num_threads=3, events_per_thread=40, seed=1)
        analysis = Analysis.by_name("c11-races")("vc-flat")
        batch = Analysis.by_name("c11-races")("vc-flat").run(trace)
        analysis.begin(trace)
        result = analysis.flush()
        assert result.trace_events == len(trace)
        assert result.findings == batch.findings

    def test_native_analysis_emits_at_feed_time(self):
        trace = c11_trace(num_threads=3, events_per_thread=60, seed=1)
        engine = StreamEngine(["c11-races"])  # no flush_every needed
        result = engine.run(TraceSource(trace))
        batch = Analysis.by_name("c11-races")("vc-flat").run(trace)
        assert result.findings_for("c11-races") == batch.findings
        positions = [item.position for item in result.findings]
        # Findings surface mid-stream, not only at the final flush.
        assert positions and min(positions) < len(trace)

    def test_final_findings_match_batch_even_with_mid_flushes(self):
        trace = racy_trace(num_threads=3, events_per_thread=60, seed=2)
        engine = StreamEngine(["race-prediction"],
                              window=UnboundedWindow(flush_every=15))
        result = engine.run(TraceSource(trace))
        batch = Analysis.by_name("race-prediction")(
            "incremental-csst").run(trace)
        assert result.results["race-prediction"].findings == batch.findings
        assert result.final_findings_for("race-prediction") == batch.findings
        # Alarm stream covers at least the final set (non-monotone
        # predictive analyses may have raised additional prefix alarms).
        emitted = {finding_key(f) for f in result.findings_for(
            "race-prediction")}
        final = {finding_key(f) for f in batch.findings}
        assert final <= emitted


class TestFlushErrors:
    def test_incomplete_state_is_tolerated_mid_stream(self):
        """A linearizability history mid-operation is 'not yet', not fatal:
        the flush error is recorded and the next flush re-evaluates."""
        from repro.trace.generators import history_trace

        trace = history_trace(num_threads=2, operations_per_thread=8, seed=0)
        engine = StreamEngine(["linearizability"],
                              window=UnboundedWindow(flush_every=7))
        result = engine.run(TraceSource(trace))
        assert engine.stats.flush_errors > 0
        # The stream ends with a complete history: the final flush succeeds
        # and matches the batch run.
        assert "linearizability" not in result.errors
        batch = Analysis.by_name("linearizability")().run(trace)
        assert result.results["linearizability"].findings == batch.findings

    def test_truncated_stream_reports_final_error(self):
        from repro.trace.generators import history_trace

        trace = history_trace(num_threads=2, operations_per_thread=8, seed=0)
        engine = StreamEngine(["linearizability"])
        result = engine.run(TraceSource(trace), max_events=3)
        assert "linearizability" in result.errors
        assert "linearizability" not in result.results


class TestFindingKey:
    def test_rebased_window_events_key_identically(self):
        first = Event(thread=0, index=5, kind=EventKind.WRITE, variable="x")
        second = Event(thread=1, index=7, kind=EventKind.READ, variable="x")
        rebased_first = Event(thread=0, index=1, kind=EventKind.WRITE,
                              variable="x")
        rebased_second = Event(thread=1, index=2, kind=EventKind.READ,
                               variable="x")
        from repro.analyses.race_prediction import Race

        true_key = finding_key(Race(first, second))
        window_key = finding_key(Race(rebased_first, rebased_second),
                                 base={0: 4, 1: 5})
        assert true_key == window_key

    def test_distinct_findings_key_differently(self):
        from repro.analyses.race_prediction import Race

        a = Event(thread=0, index=5, kind=EventKind.WRITE, variable="x")
        b = Event(thread=1, index=7, kind=EventKind.READ, variable="x")
        c = Event(thread=1, index=8, kind=EventKind.READ, variable="x")
        assert finding_key(Race(a, b)) != finding_key(Race(a, c))

    def test_native_findings_are_keyed_once(self, monkeypatch):
        import repro.stream.engine as engine_module

        walked = []

        def counting_key(finding, base=None):
            walked.append(finding)
            return finding_key(finding, base)

        monkeypatch.setattr(engine_module, "finding_key", counting_key)
        trace = racy_trace(num_threads=3, events_per_thread=40, seed=1)
        engine = StreamEngine(["race-prediction"],
                              window=UnboundedWindow(flush_every=10))
        result = engine.run(TraceSource(trace))
        attachment = engine._attachments[0]
        assert attachment.native
        assert result.stats.flushes > 2
        assert len(walked) == len(attachment.keys) == len(attachment.emitted)
        assert set(attachment.keys.values()) == attachment.emitted

    def test_unhashable_findings_are_walked(self):
        from repro.stream.engine import _Attachment, _native_key

        attachment = _Attachment(analysis=None, name="x", native=True)
        finding = [Event(thread=0, index=1, kind=EventKind.WRITE,
                         variable="x")]
        assert _native_key(attachment, finding) == finding_key(finding)
        assert attachment.keys == {}


class TestLifetime:
    """A finished engine is freed by reference counting alone: its view
    holds it weakly, so engine, view and analyses form no cycle."""

    def test_engine_and_analysis_die_without_the_cycle_collector(self):
        trace = racy_trace(num_threads=3, events_per_thread=20, seed=1)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            engine = StreamEngine(["race-prediction", "c11-races"],
                                  window=UnboundedWindow(
                flush_every=17))
            engine.run(TraceSource(trace))
            engine_ref = weakref.ref(engine)
            analysis_ref = weakref.ref(engine._attachments[0].analysis)
            del engine
            assert engine_ref() is None
            assert analysis_ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_a_view_outliving_its_engine_raises(self):
        engine = StreamEngine(["race-prediction"])
        view = engine._view
        del engine
        with pytest.raises(StreamError, match="gone"):
            view.snapshot()
