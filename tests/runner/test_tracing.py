"""Cross-process sweep tracing: propagation, merge parity, timeouts.

The contract under test (docs/observability.md, "Distributed tracing"):
a pooled sweep and an inline sweep must produce *equivalent* merged
snapshots -- equal counter totals and identical span-tree shapes -- with
the only differences being pids, span ids, and timings.  Per-process
cache counters (``trace_*``/``stc_*``) are excluded from the parity
comparison: each pool worker loads traces into its own cache, so those
counts legitimately scale with the worker count.
"""

import json
from dataclasses import replace

from repro.obs import (
    MetricsRegistry,
    new_span_id,
    new_trace_id,
    render_chrome_json,
    render_chrome_trace,
    use_registry,
    validate_chrome_trace,
)
from repro.runner.corpus import Suite, TraceSpec, grid
from repro.runner.executor import SweepJob, execute_job, plan_jobs, run_jobs

#: Counter families that are per-process caches, not sweep work.
CACHE_PREFIXES = ("trace_", "stc_")


def tiny_suite():
    return Suite(name="tiny", description="tracing probe",
                 specs=grid(["racy", "history"], [2], [16]))


def counter_totals(snapshot):
    """``{(name, labels): value}`` for every non-cache counter."""
    return {(entry["name"], tuple(sorted(entry["labels"].items()))):
            entry["value"]
            for entry in snapshot["counters"]
            if not entry["name"].startswith(CACHE_PREFIXES)}


def shape(node):
    """A span tree reduced to names + structure (timings, pids, span ids
    all erased) -- the part that must match across execution modes."""
    return (node["name"],
            tuple(sorted(shape(child)
                         for child in node.get("children", ()))))


def run_traced(workers):
    registry = MetricsRegistry()
    with use_registry(registry):
        result = run_jobs(plan_jobs(tiny_suite()), workers=workers,
                          suite_name="tiny")
    return registry.snapshot(), result


class TestMergeParity:
    def test_pooled_and_inline_sweeps_merge_equivalently(self):
        inline_snapshot, inline_result = run_traced(workers=1)
        pooled_snapshot, pooled_result = run_traced(workers=4)

        assert not inline_result.failures()
        assert not pooled_result.failures()
        totals = counter_totals(inline_snapshot)
        assert totals == counter_totals(pooled_snapshot)
        assert totals  # the exclusion list must not have emptied the set

        inline_shapes = sorted(shape(root)
                               for root in inline_snapshot["spans"])
        pooled_shapes = sorted(shape(root)
                               for root in pooled_snapshot["spans"])
        assert inline_shapes == pooled_shapes
        # One sweep root whose children are the five planned jobs.
        (name, children), = inline_shapes
        assert name == "sweep"
        assert [child[0] for child in children] == ["sweep_job"] * 5

    def test_job_spans_share_the_sweep_trace_id(self):
        snapshot, _ = run_traced(workers=2)
        sweep, = snapshot["spans"]
        trace_id = sweep["labels"]["trace"]
        assert len(trace_id) == 32
        span_ids = [child["labels"]["span"] for child in sweep["children"]]
        assert all(child["labels"]["trace"] == trace_id
                   for child in sweep["children"])
        assert len(set(span_ids)) == len(span_ids) == 5

    def test_pooled_records_arrive_with_telemetry_stripped(self):
        # The snapshot rides SweepRecord.telemetry across the pool but is
        # merged and dropped by the collector -- callers never see it,
        # and the serialized record is identical either way.
        _, result = run_traced(workers=2)
        for record in result.records:
            assert record.telemetry is None
            assert "telemetry" not in record.to_dict()

    def test_merged_snapshot_renders_a_multi_process_timeline(self):
        snapshot, _ = run_traced(workers=4)
        document = render_chrome_trace(snapshot)
        assert validate_chrome_trace(document) == []
        span_pids = {event["pid"] for event in document["traceEvents"]
                     if event["ph"] == "X"}
        # The collector plus at least two distinct worker processes (the
        # pool may reuse a worker for several of the eight jobs).
        assert len(span_pids) >= 3


class TestWorkerCapture:
    def _job(self, **overrides):
        base = SweepJob(suite="t",
                        spec=TraceSpec(kind="racy", threads=2, events=16),
                        analysis="race-prediction", backend="vc-flat",
                        trace_id=new_trace_id(), span_id=new_span_id())
        return replace(base, **overrides)

    def test_capture_returns_a_span_tagged_snapshot(self):
        job = self._job()
        record = execute_job(job, capture_telemetry=True)
        assert record.status == "ok"
        telemetry = record.telemetry
        assert telemetry is not None
        root, = telemetry["spans"]
        assert root["name"] == "sweep_job"
        assert root["labels"]["trace"] == job.trace_id
        assert root["labels"]["span"] == job.span_id
        assert root["pid"] > 0 and "wall_start_ns" in root

    def test_capture_without_trace_context_ships_nothing(self):
        # Jobs submitted by an untraced collector carry no context; the
        # worker must not fabricate a registry for them.
        record = execute_job(self._job(trace_id=None, span_id=None),
                             capture_telemetry=True)
        assert record.status == "ok" and record.telemetry is None

    def test_worker_span_records_error_status(self):
        bad = self._job(spec=TraceSpec(kind="history", threads=2, events=6),
                        analysis="linearizability", backend="st")
        record = execute_job(bad, capture_telemetry=True)
        assert record.status == "error"
        root, = record.telemetry["spans"]
        assert root["status"] == "error"
        assert root["error_type"]

    def test_snapshot_survives_json_round_trip_byte_identically(self):
        # SweepRecord.telemetry crosses the pool pickled, but the same
        # document must also survive JSON framing (jsonl sinks, the
        # ``repro timeline`` reader) without perturbing the rendering.
        record = execute_job(self._job(), capture_telemetry=True)
        revived = json.loads(json.dumps(record.telemetry))
        assert revived == record.telemetry
        assert render_chrome_json(revived) == \
            render_chrome_json(record.telemetry)


class TestTimeouts:
    def test_timed_out_job_emits_counter_and_synthetic_span(self):
        slow = SweepJob(suite="t",
                        spec=TraceSpec(kind="racy", threads=4, events=1500),
                        analysis="race-prediction", backend="st")
        registry = MetricsRegistry()
        with use_registry(registry):
            result = run_jobs([slow], workers=2, timeout_seconds=0.2)
        assert [record.status for record in result.records] == ["timeout"]

        snapshot = registry.snapshot()
        timeouts = [entry for entry in snapshot["counters"]
                    if entry["name"] == "sweep_job_timeout_total"]
        assert [entry["value"] for entry in timeouts] == [1]

        sweep, = snapshot["spans"]
        synthetic, = sweep["children"]
        assert synthetic["name"] == "sweep_job"
        assert synthetic["status"] == "error"
        assert synthetic["error_type"] == "timeout"
        assert synthetic["labels"]["backend"] == "st"
        # The synthetic span is wall-anchored, so the rendered timeline
        # stays schema-valid (no negative timestamps).
        document = render_chrome_trace(snapshot)
        assert validate_chrome_trace(document) == []
        flagged = [event for event in document["traceEvents"]
                   if event.get("cname") == "terrible"]
        assert [event["args"]["error_type"] for event in flagged] == \
            ["timeout"]
