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
