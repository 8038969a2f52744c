"""Event sources: iterables, traces, generators, files (plain/gz/followed),
and the backpressured push feed."""

import threading
import time

import pytest

from repro.errors import FeedCancelledError, StreamError
from repro.stream.source import (
    FeedSource,
    FileSource,
    GeneratorSource,
    IterableSource,
    TraceSource,
    open_source,
)
from repro.trace import dump_trace, dumps_trace, save_trace
from repro.trace.generators import racy_trace
from repro.trace.trace import Trace


def small_trace() -> Trace:
    trace = Trace(name="small")
    trace.write(0, "x", value=1)
    trace.read(1, "x")
    trace.write(0, "y", value=2)
    trace.read(1, "y")
    return trace


class TestIterableSource:
    def test_yields_in_order(self):
        trace = small_trace()
        source = IterableSource(list(trace))
        assert list(source) == list(trace)

    def test_single_pass_consumed(self):
        source = IterableSource(iter(small_trace()))
        list(source.events())
        with pytest.raises(StreamError):
            list(source.events())

    def test_factory_is_replayable(self):
        trace = small_trace()
        source = IterableSource(lambda: iter(trace))
        assert list(source.events()) == list(trace)
        assert list(source.events()) == list(trace)


class TestTraceSource:
    def test_name_and_replay(self):
        trace = small_trace()
        source = TraceSource(trace)
        assert source.name == "small"
        assert list(source.events()) == list(trace)
        assert list(source.events()) == list(trace)


class TestGeneratorSource:
    def test_deterministic_replay(self):
        source = GeneratorSource("racy", threads=3, events=20, seed=7)
        first = list(source.events())
        again = list(GeneratorSource("racy", threads=3, events=20,
                                     seed=7).events())
        assert first == again
        assert first == list(racy_trace(num_threads=3, events_per_thread=20,
                                        seed=7, name=source.name))

    def test_from_spec_parses_parameters(self):
        source = GeneratorSource.from_spec("racy:threads=2,events=10,seed=3")
        assert (source.kind, source.threads, source.size, source.seed) == (
            "racy", 2, 10, 3)

    def test_from_spec_rejects_unknown_kind(self):
        with pytest.raises(StreamError):
            GeneratorSource.from_spec("nonsense")

    def test_from_spec_rejects_malformed_parameter(self):
        with pytest.raises(StreamError):
            GeneratorSource.from_spec("racy:threads")


class TestStcSource:
    def test_open_source_reads_stc(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.stc"
        save_trace(trace, path)
        source = open_source(str(path))
        assert isinstance(source, TraceSource)
        assert list(source.events()) == list(trace)

    def test_stc_source_is_replayable(self, tmp_path):
        path = tmp_path / "t.stc"
        save_trace(small_trace(), path)
        source = open_source(str(path))
        first = list(source.events())
        assert list(source.events()) == first

    def test_follow_rejected_for_stc(self, tmp_path):
        path = tmp_path / "t.stc"
        save_trace(small_trace(), path)
        with pytest.raises(StreamError, match="follow"):
            open_source(str(path), follow=True)

    def test_mislabeled_std_file_sniffs_as_stc(self, tmp_path):
        """A .std path whose bytes are really .stc routes by content."""
        trace = small_trace()
        real = tmp_path / "real.stc"
        save_trace(trace, real)
        fake = tmp_path / "fake.std"
        fake.write_bytes(real.read_bytes())
        assert list(open_source(str(fake)).events()) == list(trace)


class TestFileSource:
    def test_reads_std_file(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.std"
        dump_trace(trace, path)
        source = FileSource(path)
        assert list(source.events()) == list(trace)
        assert source.name == "small"  # picked up from the header

    def test_reads_gzip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.std.gz"
        dump_trace(trace, path)
        assert list(FileSource(path).events()) == list(trace)

    def test_follow_rejected_for_gzip(self, tmp_path):
        with pytest.raises(StreamError):
            FileSource(tmp_path / "t.std.gz", follow=True)

    def test_follow_sees_appended_events(self, tmp_path):
        trace = small_trace()
        text = dumps_trace(trace)
        head, tail = text.splitlines(True)[:3], text.splitlines(True)[3:]
        path = tmp_path / "t.std"
        path.write_text("".join(head))
        source = FileSource(path, follow=True, poll_interval=0.01,
                            idle_timeout=1.0)

        def append_rest():
            time.sleep(0.05)
            with open(path, "a", encoding="utf-8") as stream:
                stream.write("".join(tail))

        writer = threading.Thread(target=append_rest)
        writer.start()
        events = list(source.events())
        writer.join()
        assert events == list(trace)

    def test_follow_idle_timeout_terminates(self, tmp_path):
        path = tmp_path / "t.std"
        dump_trace(small_trace(), path)
        source = FileSource(path, follow=True, poll_interval=0.01,
                            idle_timeout=0.05)
        assert list(source.events()) == list(small_trace())


class TestFeedSource:
    def test_emit_assigns_indexes_and_drains(self):
        feed = FeedSource(maxsize=16)
        feed.emit(0, "write", variable="x", value=1)
        feed.emit(1, "read", variable="x")
        feed.emit(0, "read", variable="x")
        feed.close()
        events = list(feed.events())
        assert [(e.thread, e.index) for e in events] == [(0, 0), (1, 0), (0, 1)]

    def test_backpressure_timeout(self):
        feed = FeedSource(maxsize=1)
        feed.emit(0, "read", variable="x")
        with pytest.raises(StreamError):
            feed.emit(0, "read", variable="x", timeout=0.02)

    def test_push_after_close_rejected(self):
        feed = FeedSource()
        feed.close()
        with pytest.raises(StreamError):
            feed.emit(0, "read", variable="x")

    def test_concurrent_emitters_keep_per_thread_index_order(self):
        """Index assignment and enqueue are one critical section: parallel
        producers emitting for the same logical thread must enqueue in
        index order (a race here crashes the engine with 'out-of-order
        stream')."""
        feed = FeedSource(maxsize=10_000)
        errors = []

        def producer():
            try:
                for _ in range(500):
                    feed.emit(0, "read", variable="x")
            except StreamError as error:  # pragma: no cover - failure path
                errors.append(error)

        workers = [threading.Thread(target=producer) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        feed.close()
        assert not errors
        indexes = [event.index for event in feed.events()]
        assert indexes == sorted(indexes)
        assert len(indexes) == 2000

    def test_threaded_producer_consumer(self):
        feed = FeedSource(maxsize=4)
        trace = racy_trace(num_threads=2, events_per_thread=20, seed=1)

        def produce():
            for event in trace:
                feed.push(event, timeout=5.0)
            feed.close()

        producer = threading.Thread(target=produce)
        producer.start()
        events = list(feed.events())
        producer.join()
        assert events == list(trace)

    def test_cancel_unblocks_pending_push(self):
        """Regression: a producer blocked on backpressure against a consumer
        that will never drain used to deadlock; cancel() must wake it with
        the typed error."""
        feed = FeedSource(maxsize=1)
        feed.emit(0, "read", variable="x")  # buffer now full
        outcome = []

        def produce():
            try:
                feed.emit(0, "read", variable="x", timeout=10.0)
                outcome.append("returned")  # pragma: no cover - failure path
            except FeedCancelledError:
                outcome.append("cancelled")

        producer = threading.Thread(target=produce)
        producer.start()
        time.sleep(0.05)  # let the producer block in _reserve_slot
        feed.cancel()
        producer.join(timeout=5.0)
        assert not producer.is_alive()
        assert outcome == ["cancelled"]

    def test_abandoned_consumer_iterator_unblocks_producer(self):
        """Breaking out of the consuming loop (dropping the iterator) is
        the implicit form of cancel: blocked producers must not deadlock."""
        feed = FeedSource(maxsize=1)
        outcome = []

        def produce():
            try:
                for _ in range(10):
                    feed.emit(0, "read", variable="x", timeout=10.0)
                outcome.append("done")  # pragma: no cover - failure path
            except FeedCancelledError:
                outcome.append("cancelled")

        producer = threading.Thread(target=produce)
        producer.start()
        iterator = feed.events()
        next(iterator)  # consume one event, leave the producer blocked
        time.sleep(0.05)
        iterator.close()  # what GC / `break` + drop does
        producer.join(timeout=5.0)
        assert not producer.is_alive()
        assert outcome == ["cancelled"]
        assert feed.cancelled

    def test_push_after_cancel_raises_immediately(self):
        feed = FeedSource()
        feed.cancel()
        with pytest.raises(FeedCancelledError):
            feed.push(next(iter(small_trace())))
        with pytest.raises(FeedCancelledError):
            feed.emit(0, "read", variable="x")

    def test_clean_close_and_drain_is_not_cancellation(self):
        """Exhausting a closed feed is the normal shutdown path; the feed
        must not flip to cancelled just because the iterator finished."""
        feed = FeedSource()
        feed.emit(0, "read", variable="x")
        feed.close()
        assert len(list(feed.events())) == 1
        assert not feed.cancelled

    def test_cancel_drops_buffered_events(self):
        feed = FeedSource(maxsize=8)
        feed.emit(0, "read", variable="x")
        feed.emit(0, "read", variable="x")
        feed.cancel()
        assert len(feed) == 0
        assert list(feed.events()) == []


class TestOpenSource:
    def test_existing_file(self, tmp_path):
        path = tmp_path / "t.std"
        dump_trace(small_trace(), path)
        assert isinstance(open_source(str(path)), FileSource)

    def test_generator_spec(self):
        source = open_source("racy:threads=2,events=10")
        assert isinstance(source, GeneratorSource)

    def test_follow_with_generator_rejected(self):
        with pytest.raises(StreamError):
            open_source("racy:threads=2,events=10", follow=True)

    def test_unknown_rejected(self):
        with pytest.raises(StreamError):
            open_source("/no/such/file.std")
