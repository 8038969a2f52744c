"""Streaming-vs-batch: overhead of the online engine, with parity checks.

Two questions, per analysis family:

* what does feeding events one at a time through :class:`StreamEngine`
  (final flush only) cost relative to a plain batch ``Analysis.run()``?
* what does incremental emission (periodic micro-batch flushes) cost on
  top?

Every benchmark asserts streaming/batch parity on the final findings, so
the numbers are only reported for runs whose answers agree.  The traces
are the first two benchmarks of the paper's Table 1 (race prediction) and
Table 6 (C11 races) suites, scaled by ``REPRO_BENCH_SCALE`` (default 0.3),
with each table's analysis options.
"""

import os

import pytest

from repro.analyses.common.base import Analysis
from repro.runner.corpus import get_suite, scale_suite
from repro.stream.engine import StreamEngine
from repro.stream.source import TraceSource
from repro.stream.window import UnboundedWindow

#: Scale factor applied to every trace's per-thread event count.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))


def _workloads(table):
    """The first two traces of a table suite, with its analysis options
    (one small workload per family keeps this suite seconds-scale)."""
    suite = scale_suite(get_suite(table), BENCH_SCALE)
    (_analysis, options), = suite.analyses
    return [(spec.build(), dict(options)) for spec in suite.specs[:2]]


RACE_WORKLOADS = _workloads("table1")
C11_WORKLOADS = _workloads("table6")


def _ids(workloads):
    return [trace.name for trace, _options in workloads]


def _batch_findings(analysis_name, workload):
    trace, options = workload
    analysis = Analysis.by_name(analysis_name)(**options)
    return trace, analysis.run(trace).findings


@pytest.mark.parametrize("workload", RACE_WORKLOADS,
                         ids=_ids(RACE_WORKLOADS))
def test_streaming_race_prediction_final_flush(benchmark, workload):
    """Streaming-native analysis driven through the stream, one final
    flush."""
    trace, batch_findings = _batch_findings("race-prediction", workload)
    options = workload[1]

    def run():
        engine = StreamEngine([Analysis.by_name("race-prediction")(
            "incremental-csst", **options)])
        return engine.run(TraceSource(trace))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.results["race-prediction"].findings == batch_findings
    benchmark.extra_info["findings"] = result.finding_count
    benchmark.extra_info["events"] = result.stats.events


@pytest.mark.parametrize("workload", RACE_WORKLOADS,
                         ids=_ids(RACE_WORKLOADS))
def test_streaming_race_prediction_incremental(benchmark, workload):
    """Micro-batch flush every 200 events: the cost of early findings."""
    trace, batch_findings = _batch_findings("race-prediction", workload)
    options = workload[1]

    def run():
        engine = StreamEngine(
            [Analysis.by_name("race-prediction")(
                "incremental-csst", **options)],
            window=UnboundedWindow(flush_every=200))
        return engine.run(TraceSource(trace))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.results["race-prediction"].findings == batch_findings
    benchmark.extra_info["flushes"] = result.stats.flushes


@pytest.mark.parametrize("workload", C11_WORKLOADS,
                         ids=_ids(C11_WORKLOADS))
def test_streaming_c11_native(benchmark, workload):
    """Streaming-native detector: per-event feed, no re-computation."""
    trace, batch_findings = _batch_findings("c11-races", workload)

    def run():
        engine = StreamEngine([Analysis.by_name("c11-races")(
            "vc-flat", **workload[1])])
        return engine.run(TraceSource(trace))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.findings_for("c11-races") == batch_findings
    benchmark.extra_info["findings"] = result.finding_count


@pytest.mark.parametrize("workload", C11_WORKLOADS,
                         ids=_ids(C11_WORKLOADS))
def test_batch_c11_reference(benchmark, workload):
    """The batch baseline the native streaming run is compared against."""
    trace, options = workload
    analysis = Analysis.by_name("c11-races")("vc-flat", **options)
    result = benchmark.pedantic(lambda: analysis.run(trace),
                                rounds=1, iterations=1)
    benchmark.extra_info["findings"] = result.finding_count
