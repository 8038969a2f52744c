"""Chrome trace-event export: schema, determinism, clock domains.

The exporter is pure (snapshot dict in, document out), so these tests
feed hand-built snapshots with known anchors and assert exact event
placement -- no live registries or timing slop involved.  Live
end-to-end coverage (sweep --timeline files validating) lives in
tests/runner/test_tracing.py and the CI timeline-smoke job.
"""

import json

import pytest

from repro.obs import (
    CHROME_REQUIRED_KEYS,
    METRICS_LANE_PID,
    MetricsRegistry,
    render_chrome_json,
    render_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)

#: Microsecond origin large enough that perf offsets never go negative.
WALL = 1_700_000_000_000_000_000  # ns


def snapshot(spans=(), counters=(), ts_ns=WALL + 10_000_000):
    return {"ts_ns": ts_ns, "counters": list(counters), "gauges": [],
            "histograms": [], "spans": list(spans)}


def span(name, start_ns, duration_ns, *, wall_start_ns=None, pid=None,
         tid=None, children=(), status=None, error_type=None, labels=None):
    node = {"name": name, "labels": labels or {}, "start_ns": start_ns,
            "duration_ns": duration_ns, "children": list(children)}
    if wall_start_ns is not None:
        node["wall_start_ns"] = wall_start_ns
    if pid is not None:
        node["pid"] = pid
    if tid is not None:
        node["tid"] = tid
    if status is not None:
        node["status"] = status
    if error_type is not None:
        node["error_type"] = error_type
    return node


def x_events(document):
    return [event for event in document["traceEvents"]
            if event["ph"] == "X"]


class TestSpanPlacement:
    def test_root_anchor_maps_perf_offsets_onto_wall_clock(self):
        child = span("child", start_ns=5_000_000, duration_ns=2_000_000)
        root = span("root", start_ns=1_000_000, duration_ns=9_000_000,
                    wall_start_ns=WALL, pid=41, tid=7, children=[child])
        document = render_chrome_trace(snapshot(spans=[root]))
        by_name = {event["name"]: event for event in x_events(document)}
        assert by_name["root"]["ts"] == WALL // 1000
        assert by_name["root"]["dur"] == 9_000
        # The child started 4ms after the root's perf reading, so it lands
        # 4ms after the root's wall anchor -- on the same pid/tid lane.
        assert by_name["child"]["ts"] == WALL // 1000 + 4_000
        assert (by_name["child"]["pid"], by_name["child"]["tid"]) == (41, 7)

    def test_grafted_child_with_anchor_opens_its_own_lane(self):
        # A worker tree merged under the collector's sweep span: its
        # start_ns is from a *different* perf clock, so only its own
        # wall anchor may place it.
        worker = span("sweep_job", start_ns=999_000_000_000,
                      duration_ns=3_000_000, wall_start_ns=WALL + 2_000_000,
                      pid=77, tid=1)
        root = span("sweep", start_ns=0, duration_ns=8_000_000,
                    wall_start_ns=WALL, pid=41, tid=7, children=[worker])
        document = render_chrome_trace(snapshot(spans=[root]))
        by_name = {event["name"]: event for event in x_events(document)}
        assert by_name["sweep_job"]["pid"] == 77
        assert by_name["sweep_job"]["ts"] == (WALL + 2_000_000) // 1000
        # Both processes get named lanes.
        lanes = {event["pid"]: event["args"]["name"]
                 for event in document["traceEvents"] if event["ph"] == "M"}
        assert lanes == {41: "process 41", 77: "process 77"}

    def test_unanchored_root_falls_back_to_snapshot_time(self):
        root = span("legacy", start_ns=4_000_000, duration_ns=3_000_000)
        document = render_chrome_trace(
            snapshot(spans=[root], ts_ns=WALL + 10_000_000))
        event, = x_events(document)
        # Ended at snapshot time: ts = (ts_ns - duration) in microseconds.
        assert event["ts"] == (WALL + 7_000_000) // 1000
        assert validate_chrome_trace(document) == []

    def test_error_spans_are_flagged_and_colored(self):
        root = span("sweep_job", start_ns=0, duration_ns=1_000_000,
                    wall_start_ns=WALL, pid=3, tid=3, status="error",
                    error_type="timeout", labels={"backend": "vc-flat"})
        event, = x_events(render_chrome_trace(snapshot(spans=[root])))
        assert event["cname"] == "terrible"
        assert event["args"]["status"] == "error"
        assert event["args"]["error_type"] == "timeout"
        assert event["args"]["backend"] == "vc-flat"

    def test_ok_spans_carry_no_status_noise(self):
        root = span("ok", start_ns=0, duration_ns=1_000,
                    wall_start_ns=WALL, pid=3, tid=3)
        event, = x_events(render_chrome_trace(snapshot(spans=[root])))
        assert "cname" not in event and "args" not in event


class TestCounterLane:
    def test_counters_land_on_the_metrics_pseudo_process(self):
        counters = [
            {"name": "events_total", "labels": {}, "value": 42},
            {"name": "findings_total", "labels": {"analysis": "races",
                                                  "backend": "vc-flat"},
             "value": 2},
        ]
        document = render_chrome_trace(snapshot(counters=counters))
        counter_events = [event for event in document["traceEvents"]
                          if event["ph"] == "C"]
        assert {event["pid"] for event in counter_events} == \
            {METRICS_LANE_PID}
        names = {event["name"]: event["args"]["value"]
                 for event in counter_events}
        assert names == {
            "events_total": 42,
            "findings_total{analysis=races,backend=vc-flat}": 2,
        }
        lane_names = [event["args"]["name"]
                      for event in document["traceEvents"]
                      if event["ph"] == "M"]
        assert lane_names == ["metrics"]


class TestDeterminism:
    def _rich_snapshot(self):
        worker = span("sweep_job", start_ns=5, duration_ns=2_000_000,
                      wall_start_ns=WALL + 1_000_000, pid=88, tid=2,
                      status="error", error_type="ValueError")
        root = span("sweep", start_ns=0, duration_ns=9_000_000,
                    wall_start_ns=WALL, pid=41, tid=7, children=[worker],
                    labels={"suite": "smoke"})
        return snapshot(spans=[root],
                        counters=[{"name": "jobs_total", "labels": {},
                                   "value": 3}])

    def test_render_is_byte_identical_across_json_round_trip(self):
        original = self._rich_snapshot()
        revived = json.loads(json.dumps(original))
        assert render_chrome_json(original) == render_chrome_json(revived)

    def test_canonical_text_parses_back_to_the_document(self):
        document = render_chrome_trace(self._rich_snapshot())
        text = render_chrome_json(self._rich_snapshot())
        assert json.loads(text) == document
        assert validate_chrome_trace(document) == []

    def test_write_chrome_trace_emits_canonical_text(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._rich_snapshot(), path)
        text = path.read_text(encoding="utf-8")
        assert text == render_chrome_json(self._rich_snapshot()) + "\n"

    def test_live_registry_snapshot_renders_valid(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total").inc(2)
        with registry.span("sweep", suite="smoke"):
            with registry.span("sweep_job", backend="vc-flat"):
                pass
        document = render_chrome_trace(registry.snapshot())
        assert validate_chrome_trace(document) == []
        assert {event["name"] for event in x_events(document)} == \
            {"sweep", "sweep_job"}


class TestValidator:
    def test_rejects_non_document_shapes(self):
        assert validate_chrome_trace([1, 2]) == \
            ["document is not a JSON object"]
        assert validate_chrome_trace({"events": []}) == \
            ["document has no traceEvents array"]

    @pytest.mark.parametrize("key", CHROME_REQUIRED_KEYS)
    def test_flags_missing_required_keys(self, key):
        event = {"ph": "X", "ts": 1, "pid": 1, "tid": 1, "name": "s",
                 "dur": 1}
        del event[key]
        problems = validate_chrome_trace({"traceEvents": [event]})
        assert problems and key in problems[0]

    def test_flags_backwards_timestamps_within_a_lane(self):
        events = [
            {"ph": "X", "ts": 10, "dur": 1, "pid": 1, "tid": 1, "name": "a"},
            {"ph": "X", "ts": 5, "dur": 1, "pid": 1, "tid": 1, "name": "b"},
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert problems == ["event 1: ts 5 goes backwards in lane "
                            "pid=1 tid=1 (previous 10)"]
        # The same timestamps on different lanes are fine.
        events[1]["tid"] = 2
        assert validate_chrome_trace({"traceEvents": events}) == []

    def test_flags_negative_and_non_numeric_ts(self):
        base = {"ph": "X", "dur": 1, "pid": 1, "tid": 1, "name": "s"}
        assert validate_chrome_trace(
            {"traceEvents": [dict(base, ts=-4)]})
        assert validate_chrome_trace(
            {"traceEvents": [dict(base, ts="noon")]})

    def test_flags_complete_event_without_dur(self):
        event = {"ph": "X", "ts": 1, "pid": 1, "tid": 1, "name": "s"}
        assert validate_chrome_trace({"traceEvents": [event]}) == \
            ["event 0: complete event without dur"]

    def test_flags_non_object_events(self):
        assert validate_chrome_trace({"traceEvents": ["oops"]}) == \
            ["event 0: not an object"]
