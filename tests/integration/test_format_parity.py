"""Cross-format analysis parity: STD text vs ``.stc`` binary.

Every analysis must produce identical findings no matter how the trace
reached it:

* **std** -- the canonical text format round trip
  (``loads_trace(dumps_trace(t))``);
* **stc-eager** -- the binary round trip, rebuilt event by event into
  a new :class:`Trace` (the per-event construction check);
* **stc** -- the binary round trip analysed directly: the
  :class:`Trace` ``decode_trace`` returns, its columns straight from the
  decoded sections.

Each of the seven analyses runs in **batch** mode (``Analysis.run``) and
**streaming** mode (:class:`StreamEngine` over a :class:`TraceSource`)
on all three representations; all six finding lists must agree.  The
input workload is the analysis's natural generator kind at a shape big
enough to produce findings.
"""

from __future__ import annotations

import pytest

from repro.analyses.common.base import Analysis
from repro.trace import (
    Trace,
    decode_trace,
    dumps_trace,
    encode_trace,
    loads_trace,
)
from repro.trace.generators import build_trace

#: analysis -> its natural workload kind.
ANALYSIS_KINDS = {
    "race-prediction": "racy",
    "c11-races": "c11",
    "tso-consistency": "tso",
    "deadlock-prediction": "deadlock",
    "memory-bugs": "memory",
    "use-after-free": "heap-churn",
    "linearizability": "history",
}
#: linearizability explodes with history length; keep it tiny.
SHAPES = {"history": dict(num_threads=2, events=5, seed=9)}
DEFAULT_SHAPE = dict(num_threads=4, events=40, seed=9)


def normalize(findings):
    return sorted(str(finding) for finding in findings)


def eager_copy(trace: Trace) -> Trace:
    """Rebuild a Trace from decoded events, one ``append`` at a time."""
    copy = Trace(name=trace.name)
    for event in trace:
        copy.append(event.thread, event.kind, variable=event.variable,
                    value=event.value, target=event.target,
                    memory_order=event.memory_order,
                    operation=event.operation, argument=event.argument,
                    result=event.result, atomic=event.atomic)
    return copy


def variants(trace: Trace):
    blob = encode_trace(trace)
    return {
        "std": loads_trace(dumps_trace(trace)),
        "stc-eager": eager_copy(decode_trace(blob)),
        "stc": decode_trace(blob),
    }


def batch_findings(analysis: str, trace: Trace):
    cls = Analysis.by_name(analysis)
    return normalize(cls(cls.default_backend()).run(trace).findings)


def stream_findings(analysis: str, trace: Trace):
    from repro.stream.engine import StreamEngine
    from repro.stream.source import TraceSource

    result = StreamEngine([analysis]).run(TraceSource(trace))
    return normalize(result.results[analysis].findings)


@pytest.mark.parametrize("analysis", sorted(ANALYSIS_KINDS))
def test_batch_findings_agree_across_formats(analysis):
    kind = ANALYSIS_KINDS[analysis]
    trace = build_trace(kind, **SHAPES.get(kind, DEFAULT_SHAPE))
    reference = batch_findings(analysis, trace)
    for label, variant in variants(trace).items():
        assert batch_findings(analysis, variant) == reference, (
            f"{analysis} diverged on the {label} representation")


@pytest.mark.parametrize("analysis", sorted(ANALYSIS_KINDS))
def test_streaming_findings_agree_across_formats(analysis):
    kind = ANALYSIS_KINDS[analysis]
    trace = build_trace(kind, **SHAPES.get(kind, DEFAULT_SHAPE))
    reference = batch_findings(analysis, trace)
    for label, variant in variants(trace).items():
        assert stream_findings(analysis, variant) == reference, (
            f"{analysis} streaming diverged on the {label} representation")


def test_reference_workloads_produce_findings():
    """Parity over empty finding lists would prove nothing; the shapes
    above must actually trigger every analysis."""
    with_findings = 0
    for analysis, kind in ANALYSIS_KINDS.items():
        trace = build_trace(kind, **SHAPES.get(kind, DEFAULT_SHAPE))
        if batch_findings(analysis, trace):
            with_findings += 1
    assert with_findings >= 5
