"""Checkpoint/restore: state round-trips, corruption handling, resume."""

import json
import os
import re
import threading
from pathlib import Path

import pytest

from repro.analyses.common.base import Analysis
from repro.errors import CheckpointError
from repro.stream.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    restore_engine,
    save_checkpoint,
)
from repro.stream.engine import StreamEngine
from repro.stream.source import TraceSource
from repro.stream.window import SlidingWindow, TumblingWindow, UnboundedWindow
from repro.trace.generators import build_trace, racy_trace


@pytest.fixture
def trace():
    return racy_trace(num_threads=3, events_per_thread=40, seed=3)


def rebuild(engine, trace):
    """Feed a restored engine the history its checkpoint covers."""
    cursor = engine.cursor
    for event in trace.events[:cursor]:
        engine.feed(event)
    assert not engine.restoring
    return engine


class TestStateRoundTrip:
    def test_state_is_json_serializable(self, trace):
        engine = StreamEngine(["race-prediction"],
                              window=UnboundedWindow(flush_every=25))
        engine.run(TraceSource(trace), max_events=50)
        state = engine.state_dict()
        restored_state = json.loads(json.dumps(state))
        rebuilt = StreamEngine.from_state(restored_state)
        assert rebuilt.cursor == engine.cursor
        assert rebuilt.restoring
        assert rebuilt.analyses == engine.analyses
        rebuild(rebuilt, trace)
        assert rebuilt.cursor == engine.cursor
        assert rebuilt.buffered_events == engine.buffered_events

    def test_state_holds_no_events(self, trace):
        engine = StreamEngine(["race-prediction"])
        engine.run(TraceSource(trace), max_events=30)
        state = engine.state_dict()
        assert state["version"] == CHECKPOINT_VERSION == 2
        assert "buffer" not in state

    def test_restored_engine_reproduces_live_trace(self, trace):
        engine = StreamEngine(["race-prediction"])
        engine.run(TraceSource(trace), max_events=60)
        rebuilt = rebuild(StreamEngine.from_state(engine.state_dict()),
                          trace)
        original, _ = engine.snapshot()
        restored, _ = rebuilt.snapshot()
        assert list(original) == list(restored)

    def test_windowed_state_round_trips(self, trace):
        engine = StreamEngine(["race-prediction"],
                              window=TumblingWindow(25))
        engine.run(TraceSource(trace), max_events=60)
        rebuilt = rebuild(StreamEngine.from_state(engine.state_dict()),
                          trace)
        assert rebuilt.buffered_events == engine.buffered_events

    def test_sliding_window_rebuilds_snapshot_and_offsets(self, trace):
        """Rebuilding evicts at the same boundaries as the uninterrupted
        run, so the window, its re-based trace and the offsets agree."""
        live = StreamEngine(["race-prediction"],
                            window=SlidingWindow(30, slide=10))
        for event in trace.events[:67]:
            live.feed(event)
        rebuilt = rebuild(StreamEngine.from_state(
            json.loads(json.dumps(live.state_dict()))), trace)
        (live_trace, live_offsets), (trace_back, offsets_back) = \
            live.snapshot(), rebuilt.snapshot()
        assert live_offsets and offsets_back == live_offsets
        assert list(trace_back) == list(live_trace)
        assert rebuilt.stats == live.stats
        for event in trace.events[67:]:
            live.feed(event)
            rebuilt.feed(event)
        assert [str(item) for item in rebuilt.finish().findings] == \
            [str(item) for item in live.finish().findings
             if item.position > 67]

    def test_tampered_counts_detected(self, trace):
        engine = StreamEngine(["race-prediction"])
        engine.run(TraceSource(trace), max_events=30)
        state = engine.state_dict()
        state["next_index"]["0"] -= 1  # claim one event fewer
        restored = StreamEngine.from_state(state)
        with pytest.raises(CheckpointError, match="per-thread counts"):
            rebuild(restored, trace)

    def test_size_does_not_grow_with_the_history(self, tmp_path):
        """Without findings, a checkpoint after 1,600 events differs from
        one after 200 only in the digits of its counters."""
        from repro.trace.event import Event, EventKind
        from repro.trace.trace import Trace

        quiet = Trace(name="quiet")
        for index in range(400):
            for thread in range(4):
                quiet.add(Event(thread=thread, index=index,
                                kind=EventKind.WRITE,
                                variable=f"x{thread}", value=index))
        documents = []
        for events in (200, 1600):
            path = tmp_path / f"ck{events}.json"
            engine = StreamEngine(["race-prediction"],
                                  window=UnboundedWindow(flush_every=100))
            engine.run(TraceSource(quiet), max_events=events,
                       checkpoint_path=str(path))
            assert engine.stats.emitted == 0
            documents.append(path.read_text())
        short, long = (re.sub(r"[0-9]+", "N", text) for text in documents)
        assert short == long
        assert len(documents[1]) - len(documents[0]) < 32


class TestFiles:
    def test_save_and_load(self, trace, tmp_path):
        path = tmp_path / "ck.json"
        engine = StreamEngine(["race-prediction"])
        engine.run(TraceSource(trace), max_events=30,
                   checkpoint_path=str(path))
        state = load_checkpoint(path)
        assert state["version"] == CHECKPOINT_VERSION
        assert state["cursor"] == 30

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.json")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_periodic_checkpoints_count(self, trace, tmp_path):
        path = tmp_path / "ck.json"
        engine = StreamEngine(["race-prediction"])
        engine.run(TraceSource(trace), checkpoint_path=str(path),
                   checkpoint_every=25)
        # every 25 events plus the final save
        assert engine.stats.checkpoints == len(trace) // 25 + 1

    def test_failed_save_cleans_up_temp_file(self, trace, tmp_path):
        # The published name is a non-empty directory: the tmp write
        # succeeds, the rename fails -- the tmp must not be left behind.
        path = tmp_path / "ck.json"
        path.mkdir()
        (path / "occupant").write_text("x")
        engine = StreamEngine(["race-prediction"])
        engine.run(TraceSource(trace), max_events=10)
        with pytest.raises(CheckpointError):
            save_checkpoint(engine, path)
        assert not (tmp_path / "ck.json.tmp").exists()


class TestTornCheckpoints:
    """A restore must never observe (or accept) a partial checkpoint.

    The atomic tmp-write + fsync + rename in ``save_checkpoint`` guarantees
    the published name always holds a complete document; these tests pin
    the failure mode down from the *reader* side by simulating every torn
    state a non-atomic writer could have produced."""

    @pytest.fixture
    def checkpoint_bytes(self, trace, tmp_path):
        path = tmp_path / "ck.json"
        engine = StreamEngine(["race-prediction"])
        engine.run(TraceSource(trace), max_events=40,
                   checkpoint_path=str(path))
        return path.read_bytes()

    def test_every_truncation_is_rejected_never_misread(
            self, checkpoint_bytes, tmp_path):
        """Property: for *every* proper prefix of a real checkpoint file,
        restore raises CheckpointError -- no truncation length parses as
        valid JSON that silently restores a wrong engine."""
        path = tmp_path / "torn.json"
        # Cutting inside trailing whitespace still leaves a complete
        # document, so the property ranges over prefixes of the
        # *meaningful* bytes only.
        size = len(checkpoint_bytes.rstrip())
        # Every cut point for small files; dense sampling plus the edges
        # for large ones (keeps the sweep O(hundreds) of parses).
        cuts = range(size) if size <= 512 else sorted(
            set(range(0, size, max(1, size // 256)))
            | set(range(max(0, size - 16), size)))
        for cut in cuts:
            path.write_bytes(checkpoint_bytes[:cut])
            with pytest.raises(CheckpointError):
                restore_engine(path)

    def test_torn_tail_garbage_rejected(self, checkpoint_bytes, tmp_path):
        """A crashed non-atomic writer can also leave old bytes after the
        new document's truncation point; json.load must reject the junk."""
        path = tmp_path / "torn.json"
        path.write_bytes(checkpoint_bytes[:len(checkpoint_bytes) // 2]
                         + b"\0\0garbage{{{")
        with pytest.raises(CheckpointError):
            restore_engine(path)

    def test_concurrent_saves_and_loads_never_see_partial(
            self, trace, tmp_path):
        """Atomicity under contention: a loader racing a saver always gets
        either a complete old document or a complete new one."""
        path = tmp_path / "ck.json"
        engine = StreamEngine(["race-prediction"])
        engine.run(TraceSource(trace), max_events=40)
        save_checkpoint(engine, path)
        stop = threading.Event()
        errors = []

        def saver():
            while not stop.is_set():
                save_checkpoint(engine, path)

        def loader():
            while not stop.is_set():
                try:
                    state = load_checkpoint(path)
                except CheckpointError as error:  # pragma: no cover
                    errors.append(error)
                    return
                if state["cursor"] != 40:  # pragma: no cover
                    errors.append(AssertionError(state["cursor"]))
                    return

        threads = [threading.Thread(target=saver),
                   threading.Thread(target=loader),
                   threading.Thread(target=loader)]
        for thread in threads:
            thread.start()
        import time
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not errors

    def test_restore_from_published_name_ignores_tmp(self, trace, tmp_path):
        """A stale .tmp (crash between write and rename) must be invisible
        to restore: only the published name is read."""
        path = tmp_path / "ck.json"
        engine = StreamEngine(["race-prediction"])
        engine.run(TraceSource(trace), max_events=30,
                   checkpoint_path=str(path))
        (tmp_path / "ck.json.tmp").write_text("{torn")
        restored = restore_engine(path)
        assert restored.cursor == 30


class TestResume:
    def test_resume_completes_to_batch_findings(self, trace, tmp_path):
        from repro.analyses.common.base import Analysis

        batch = Analysis.by_name("race-prediction")(
            "incremental-csst").run(trace)
        path = tmp_path / "ck.json"
        first = StreamEngine(["race-prediction"],
                             window=UnboundedWindow(flush_every=20))
        first.run(TraceSource(trace), max_events=len(trace) // 2,
                  checkpoint_path=str(path))
        resumed = restore_engine(path)
        assert resumed.cursor == len(trace) // 2
        result = resumed.run(TraceSource(trace))
        assert result.results["race-prediction"].findings == batch.findings

    def test_restore_preserves_per_analysis_backend(self, trace):
        engine = StreamEngine(["race-prediction"], backend="vc-flat")
        engine.run(TraceSource(trace), max_events=30)
        rebuilt = StreamEngine.from_state(engine.state_dict())
        assert rebuilt._attachments[0].analysis._backend_spec == "vc-flat"
        result = rebuilt.run(TraceSource(trace))
        assert result.results["race-prediction"].backend == "vc-flat"

    def test_native_restore_does_not_re_emit_during_replay(self, tmp_path):
        """Rebuilding from the feed rediscovers a native analysis's
        findings; the restored dedup keys must suppress their
        re-emission."""
        from repro.trace.generators import c11_trace

        trace = c11_trace(num_threads=3, events_per_thread=40, seed=1)
        path = tmp_path / "ck.json"
        first = StreamEngine(["c11-races"])
        first.run(TraceSource(trace), max_events=len(trace) // 2,
                  checkpoint_path=str(path))
        assert first.findings, "fixture must emit before the checkpoint"
        replay_emissions = []
        resumed = rebuild(
            restore_engine(path, on_finding=replay_emissions.append), trace)
        assert replay_emissions == []  # nothing re-emitted by the rebuild
        result = resumed.run(trace.events[resumed.cursor:])
        first_keys = {str(item.finding) for item in first.findings}
        second_keys = {str(item.finding) for item in result.findings}
        assert not (first_keys & second_keys)

    def test_resume_does_not_re_emit(self, trace, tmp_path):
        path = tmp_path / "ck.json"
        first = StreamEngine(["race-prediction"],
                             window=UnboundedWindow(flush_every=20))
        first.run(TraceSource(trace), max_events=len(trace) // 2,
                  checkpoint_path=str(path))
        first_keys = {(item.analysis, str(item.finding))
                      for item in first.findings}
        resumed = restore_engine(path)
        result = resumed.run(TraceSource(trace))
        second_keys = {(item.analysis, str(item.finding))
                       for item in result.findings}
        assert not (first_keys & second_keys)


class TestResumeAgainstAnotherFeed:
    """A restored engine is fed its source from the start; a source that
    does not reproduce the checkpoint's history is refused, never run on
    as a mixed history."""

    @pytest.fixture
    def checkpoint(self, trace, tmp_path):
        path = tmp_path / "ck.json"
        StreamEngine(["race-prediction"]).run(
            TraceSource(trace), max_events=60, checkpoint_path=str(path))
        return path

    def test_other_per_thread_counts_raise(self, checkpoint):
        other = racy_trace(num_threads=2, events_per_thread=60, seed=3)
        with pytest.raises(CheckpointError, match="per-thread counts"):
            restore_engine(checkpoint).run(TraceSource(other))

    def test_feed_shorter_than_the_cursor_raises(self, checkpoint, trace):
        short = trace.events[:59]
        with pytest.raises(CheckpointError, match="feed ended after 59"):
            restore_engine(checkpoint).run(short)

    @pytest.mark.parametrize("source", [
        "racy:threads=2,events=60,seed=3",   # other per-thread counts
        "racy:threads=3,events=10,seed=3",   # 30 events, cursor is 60
    ])
    def test_session_watch_raises(self, checkpoint, source):
        from repro.api import Session, WatchConfig

        with pytest.raises(CheckpointError):
            Session().watch(WatchConfig(source=source,
                                        checkpoint=str(checkpoint)))

    def test_no_checkpoint_while_rebuilding(self, checkpoint, trace):
        resumed = restore_engine(checkpoint)
        resumed.feed(trace.events[0])
        with pytest.raises(CheckpointError, match="still rebuilding"):
            save_checkpoint(resumed, checkpoint)


class TestUnbuildableBackend:
    """A checkpoint whose attachment names a backend the analysis cannot
    run on (a removed name such as ``vc``, or one never known) is refused
    at restore, naming both, instead of failing at every later flush or
    mid-replay."""

    @pytest.mark.parametrize("backend", ["vc", "no-such-backend"])
    @pytest.mark.parametrize("analysis,kind", [
        ("race-prediction", "racy"),  # batch fallback
        ("c11-races", "c11"),         # streaming-native
    ])
    def test_restore_rejects_backend(self, analysis, kind, backend,
                                     tmp_path):
        trace = build_trace(kind, num_threads=3, events=40, seed=1)
        engine = StreamEngine([analysis],
                              window=UnboundedWindow(flush_every=25))
        engine.run(TraceSource(trace), max_events=30)
        state = json.loads(json.dumps(engine.state_dict()))
        state["analyses"][0]["backend"] = backend
        with pytest.raises(CheckpointError,
                           match=f"{analysis!r} on backend {backend!r}"):
            StreamEngine.from_state(state)
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError, match=repr(backend)):
            restore_engine(path)

    def test_unresolved_auto_attachment_restores(self, trace):
        # ``auto`` resolves at attach, so a checkpoint records the pick;
        # one written before that recorded "auto", and still restores.
        engine = StreamEngine(["race-prediction"], backend="auto")
        for event in trace.events[:10]:
            engine.feed(event)
        state = engine.state_dict()
        pick = Analysis.by_name("race-prediction").default_backend()
        assert state["analyses"][0]["backend"] == pick
        state["analyses"][0]["backend"] = "auto"
        rebuilt = StreamEngine.from_state(state)
        assert rebuilt.cursor == engine.cursor
        assert rebuilt.backends_selected == {"race-prediction": pick}


class TestOlderCheckpoints:
    """``data/parent_checkpoint.json`` was written mid-stream (60 of 120
    events, ``race-prediction`` plus the native ``c11-races``) by an
    engine that still kept a shared sync backbone, so it carries the
    ``"backbone"`` flag and a ``backbone_edges`` stat.
    ``parent_checkpoint_expected.json`` holds what restoring it and
    finishing the stream emitted and found with that engine."""

    DATA = Path(__file__).resolve().parent / "data"

    def test_checkpoint_with_backbone_restores_to_identical_findings(self):
        state = load_checkpoint(self.DATA / "parent_checkpoint.json")
        assert state["backbone"] is True
        assert state["stats"]["backbone_edges"] > 0
        expected = json.loads(
            (self.DATA / "parent_checkpoint_expected.json").read_text())
        trace = build_trace("racy", num_threads=3, events=40, seed=3)
        resumed = restore_engine(self.DATA / "parent_checkpoint.json")
        assert resumed.cursor == 60
        result = resumed.run(TraceSource(trace))
        assert [str(item) for item in result.findings] == \
            expected["emitted_after_restore"]
        assert {name: [str(finding) for finding in res.findings]
                for name, res in result.results.items()} == \
            expected["results"]
        assert "backbone_edges" not in result.stats.as_dict()
        assert "backbone" not in resumed.state_dict()
        assert "buffer" not in resumed.state_dict()
