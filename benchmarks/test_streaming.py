"""Streaming-vs-batch: overhead of the online engine, with parity checks.

Two questions, per analysis family:

* what does feeding events one at a time through :class:`StreamEngine`
  (final flush only) cost relative to a plain batch ``Analysis.run()``?
* what does incremental emission (periodic micro-batch flushes) cost on
  top?

Every benchmark asserts streaming/batch parity on the final findings, so
the numbers are only reported for runs whose answers agree.
"""

import pytest

from conftest import build_trace, workload_ids
from repro.analyses.common.base import Analysis
from repro.bench.workloads import TABLE1_RACE_PREDICTION, TABLE6_C11
from repro.stream.engine import StreamEngine
from repro.stream.source import TraceSource
from repro.stream.window import UnboundedWindow

#: One small workload per family keeps this suite seconds-scale.
RACE_WORKLOADS = TABLE1_RACE_PREDICTION[:2]
C11_WORKLOADS = TABLE6_C11[:2]


def _batch_findings(analysis_name, workload):
    trace = build_trace(workload)
    analysis = Analysis.by_name(analysis_name)(**workload.analysis_kwargs)
    return trace, analysis.run(trace).findings


@pytest.mark.parametrize("workload", RACE_WORKLOADS,
                         ids=workload_ids(RACE_WORKLOADS))
def test_streaming_race_prediction_final_flush(benchmark, workload):
    """Batch-fallback analysis driven through the stream, one final flush."""
    trace, batch_findings = _batch_findings("race-prediction", workload)

    def run():
        engine = StreamEngine([Analysis.by_name("race-prediction")(
            "incremental-csst", **workload.analysis_kwargs)])
        return engine.run(TraceSource(trace))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.results["race-prediction"].findings == batch_findings
    benchmark.extra_info["findings"] = result.finding_count
    benchmark.extra_info["events"] = result.stats.events


@pytest.mark.parametrize("workload", RACE_WORKLOADS,
                         ids=workload_ids(RACE_WORKLOADS))
def test_streaming_race_prediction_incremental(benchmark, workload):
    """Micro-batch flush every 200 events: the cost of early findings."""
    trace, batch_findings = _batch_findings("race-prediction", workload)

    def run():
        engine = StreamEngine(
            [Analysis.by_name("race-prediction")(
                "incremental-csst", **workload.analysis_kwargs)],
            window=UnboundedWindow(flush_every=200))
        return engine.run(TraceSource(trace))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.results["race-prediction"].findings == batch_findings
    benchmark.extra_info["flushes"] = result.stats.flushes


@pytest.mark.parametrize("workload", C11_WORKLOADS,
                         ids=workload_ids(C11_WORKLOADS))
def test_streaming_c11_native(benchmark, workload):
    """Streaming-native detector: per-event feed, no re-computation."""
    trace, batch_findings = _batch_findings("c11-races", workload)

    def run():
        engine = StreamEngine([Analysis.by_name("c11-races")(
            "vc-flat", **workload.analysis_kwargs)])
        return engine.run(TraceSource(trace))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.findings_for("c11-races") == batch_findings
    benchmark.extra_info["findings"] = result.finding_count


@pytest.mark.parametrize("workload", C11_WORKLOADS,
                         ids=workload_ids(C11_WORKLOADS))
def test_batch_c11_reference(benchmark, workload):
    """The batch baseline the native streaming run is compared against."""
    trace = build_trace(workload)
    analysis = Analysis.by_name("c11-races")("vc-flat", **workload.analysis_kwargs)
    result = benchmark.pedantic(lambda: analysis.run(trace),
                                rounds=1, iterations=1)
    benchmark.extra_info["findings"] = result.finding_count
