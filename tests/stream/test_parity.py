"""Streaming/batch parity: for every registered analysis over a corpus of
generated traces, the StreamEngine's final results equal a batch
``Analysis.run()`` -- including across a checkpoint/restore cycle.

This is the subsystem's core contract (unbounded window): streaming changes
*when* findings surface, never the final answer.
"""

import pytest

from repro.analyses.common.base import Analysis
from repro.stream.engine import StreamEngine
from repro.stream.source import TraceSource
from repro.stream.window import UnboundedWindow
from repro.trace import Trace
from repro.trace.generators import build_trace

#: One representative workload per analysis (kind, per-thread size, seed).
#: Sizes are small enough to keep the whole matrix in seconds, large enough
#: that every analysis produces findings on at least one seed.
CORPUS = [
    ("racy", "race-prediction", 3, 40, 0),
    ("racy", "race-prediction", 4, 30, 1),
    ("deadlock", "deadlock-prediction", 3, 36, 0),
    ("deadlock", "deadlock-prediction", 4, 30, 2),
    ("memory", "memory-bugs", 3, 36, 0),
    ("memory", "use-after-free", 3, 36, 0),
    ("tso", "tso-consistency", 2, 30, 0),
    ("tso", "tso-consistency", 3, 24, 1),
    ("c11", "c11-races", 3, 36, 0),
    ("c11", "c11-races", 4, 30, 3),
    ("history", "linearizability", 2, 8, 0),
    ("history", "linearizability", 3, 6, 1),
]

IDS = [f"{analysis}-t{threads}-n{events}-s{seed}"
       for _kind, analysis, threads, events, seed in CORPUS]


def _normalize(findings):
    """Order-insensitive, value-based comparison form."""
    return sorted(map(str, findings))


@pytest.fixture(scope="module")
def traces():
    cache = {}
    for kind, _analysis, threads, events, seed in CORPUS:
        key = (kind, threads, events, seed)
        if key not in cache:
            cache[key] = build_trace(kind, num_threads=threads, events=events,
                                     seed=seed)
    return cache


def test_corpus_covers_every_registered_analysis():
    covered = {analysis for _k, analysis, *_rest in CORPUS}
    assert covered == set(Analysis.registered())


@pytest.mark.parametrize("kind, analysis, threads, events, seed", CORPUS,
                         ids=IDS)
class TestStreamingBatchParity:
    def test_stream_equals_batch(self, traces, kind, analysis, threads,
                                 events, seed):
        trace = traces[(kind, threads, events, seed)]
        batch = Analysis.by_name(analysis)().run(trace)
        engine = StreamEngine([analysis])
        result = engine.run(TraceSource(trace))
        final = result.results[analysis]
        assert final.findings == batch.findings
        assert _normalize(final.findings) == _normalize(batch.findings)

    def test_stream_with_periodic_flushes_equals_batch(self, traces, kind,
                                                       analysis, threads,
                                                       events, seed):
        trace = traces[(kind, threads, events, seed)]
        batch = Analysis.by_name(analysis)().run(trace)
        engine = StreamEngine([analysis],
                              window=UnboundedWindow(flush_every=17))
        result = engine.run(TraceSource(trace))
        assert result.results[analysis].findings == batch.findings

    def test_checkpoint_restore_cycle_equals_batch(self, traces, tmp_path,
                                                   kind, analysis, threads,
                                                   events, seed):
        from repro.stream.checkpoint import restore_engine

        trace = traces[(kind, threads, events, seed)]
        batch = Analysis.by_name(analysis)().run(trace)
        path = tmp_path / "ck.json"
        first = StreamEngine([analysis],
                             window=UnboundedWindow(flush_every=23))
        first.run(TraceSource(trace), max_events=max(1, len(trace) // 2),
                  checkpoint_path=str(path))
        resumed = restore_engine(path)
        result = resumed.run(TraceSource(trace))
        assert result.results[analysis].findings == batch.findings


def test_all_analyses_attached_concurrently_keep_parity(traces):
    """One engine, several attachments, one pass -- each analysis still
    matches its own batch run."""
    trace = traces[("racy", 3, 40, 0)]
    names = ["race-prediction", "deadlock-prediction", "c11-races"]
    engine = StreamEngine(names, window=UnboundedWindow(flush_every=25))
    result = engine.run(TraceSource(trace))
    for name in names:
        batch = Analysis.by_name(name)().run(trace)
        assert result.results[name].findings == batch.findings


# --------------------------------------------------------------------------- #
# The saturation analyses keep their order across flushes: every flush, not
# only the last, must equal a batch run over the prefix streamed so far.
# --------------------------------------------------------------------------- #
#: ``(analysis, generator kind, extra generator arguments)``; inverted
#: lock orders make the small deadlock traces find something.
SATURATION = [
    ("race-prediction", "racy", {}),
    ("deadlock-prediction", "deadlock", {"inversion_fraction": 0.5}),
    ("memory-bugs", "memory", {}),
    ("use-after-free", "memory", {}),
]
FLUSH_EVERY = (1, 17)


def _generated(kind, extra):
    return build_trace(kind, num_threads=3, events=36, seed=0, **extra)


def _late_thread_trace(kind, extra):
    """A 4-thread trace whose thread 3 first appears after 20 events,
    past a first flush at either ``flush_every``."""
    events = build_trace(kind, num_threads=4, events=16, seed=4,
                         **extra).events
    early = [event for event in events if event.thread != 3][:20]
    late = [event for event in events if event not in early]
    return Trace(early + late)


def _cyclic_trace(kind, extra):
    """A generated trace followed by a read that observes a write of the
    thread it forks only afterwards: the observed reads-from assignment
    closes a cycle mid-stream."""
    trace = Trace(build_trace(kind, num_threads=3, events=12, seed=2,
                              **extra).events)
    trace.write(2, "cyc", value=1)
    trace.read(0, "cyc", value=1)
    trace.fork(0, 2)
    trace.write(1, "cyc", value=2)
    trace.read(1, "cyc", value=2)
    return trace


def _flushes(analysis, trace, flush_every):
    """Every flush of a stream over ``trace``: ``(prefix, result)``."""
    engine = StreamEngine([analysis])
    events = trace.events
    out = []
    for position, event in enumerate(events, 1):
        engine.feed(event)
        if position % flush_every == 0 or position == len(events):
            out.append((Trace(events[:position]),
                        engine.flush()[analysis]))
    return out


#: Details a kept order reaches through other edges than a batch run.
EDGE_COUNTS = ("sync_edges", "saturation_edges")


def _assert_every_flush_equals_batch(analysis, trace, flush_every):
    """Findings, the cycle verdict and the candidate counts (running
    totals on a kept order) equal a batch run's at every flush."""
    flushes = _flushes(analysis, trace, flush_every)
    for prefix, result in flushes:
        batch = Analysis.by_name(analysis)().run(prefix)
        assert result.findings == batch.findings, len(prefix)
        assert result.details.get("closure_cycle") \
            == batch.details.get("closure_cycle"), len(prefix)
        if not result.details.get("closure_cycle"):
            assert {key: value for key, value in result.details.items()
                    if key not in EDGE_COUNTS} \
                == {key: value for key, value in batch.details.items()
                    if key not in EDGE_COUNTS}, len(prefix)
    return flushes


@pytest.mark.parametrize("flush_every", FLUSH_EVERY)
@pytest.mark.parametrize("analysis, kind, extra", SATURATION,
                         ids=[name for name, _kind, _extra in SATURATION])
class TestEveryFlushEqualsBatch:
    def test_generated_trace(self, analysis, kind, extra, flush_every):
        flushes = _assert_every_flush_equals_batch(
            analysis, _generated(kind, extra), flush_every)
        assert flushes[-1][1].findings

    def test_thread_first_seen_after_the_first_flush(self, analysis, kind,
                                                     extra, flush_every):
        trace = _late_thread_trace(kind, extra)
        assert 3 not in {event.thread for event in trace.events[:20]}
        _assert_every_flush_equals_batch(analysis, trace, flush_every)

    def test_cycle_mid_stream(self, analysis, kind, extra, flush_every):
        trace = _cyclic_trace(kind, extra)
        flushes = _assert_every_flush_equals_batch(analysis, trace,
                                                   flush_every)
        cyclic = [result.details.get("closure_cycle", False)
                  for _prefix, result in flushes]
        assert not cyclic[0] and cyclic[-1]

    def test_checkpoint_restore_keeps_the_emission_log(self, tmp_path,
                                                       analysis, kind, extra,
                                                       flush_every):
        from repro.stream.checkpoint import restore_engine
        from repro.stream.engine import finding_key

        trace = _generated(kind, extra)
        window = UnboundedWindow(flush_every=flush_every)

        def log(findings):
            return [(item.analysis, item.position, finding_key(item.finding))
                    for item in findings]

        whole = StreamEngine([analysis], window=window).run(
            TraceSource(trace))
        # Stop at a flush boundary, so the stopped run's own final flush
        # emits nothing the uninterrupted run would not.
        half = len(trace) // 2 // flush_every * flush_every
        path = tmp_path / "ck.json"
        first = StreamEngine([analysis], window=window).run(
            TraceSource(trace), max_events=half, checkpoint_path=str(path))
        resumed = restore_engine(path).run(TraceSource(trace))
        assert log(first.findings) + log(resumed.findings) \
            == log(whole.findings)
        assert whole.findings


@pytest.mark.parametrize("analysis, kind, extra", SATURATION,
                         ids=[name for name, _kind, _extra in SATURATION])
def test_a_failed_flush_rebuilds_the_kept_order(analysis, kind, extra):
    """A flush that raises leaves no kept order behind: the next flush
    builds afresh, so its counts are a batch run's on the same prefix."""
    from repro.errors import AnalysisError

    def fail(*_args):
        raise AnalysisError("boom")

    events = _generated(kind, extra).events
    instance = Analysis.by_name(analysis)()
    engine = StreamEngine([instance])
    for position, event in enumerate(events[:36], 1):
        engine.feed(event)
        if position == 24:
            instance._analyse = fail
        if position % 12 == 0:
            result = engine.flush().get(analysis)
            if position == 24:
                assert result is None
                del instance._analyse
    assert engine.stats.flush_errors == 1
    batch = Analysis.by_name(analysis)().run(Trace(events[:36]))
    assert result.findings == batch.findings
    assert (result.insert_count, result.query_count) \
        == (batch.insert_count, batch.query_count)
