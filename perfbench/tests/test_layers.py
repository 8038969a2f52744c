"""Tests of the benchmark's per-layer attribution (``perfbench.layers``)."""

from __future__ import annotations

import json
import sys

import pytest

from perfbench import layers


class FakeClock:
    """A ``time`` stand-in whose ``perf_counter`` only moves on demand."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(layers, "time", fake)
    return fake


def test_self_time_excludes_nested_layers(clock):
    recorder = layers.Recorder()

    def parse():
        clock.spend(2.0)

    def run():
        clock.spend(1.0)
        recorder.call("trace.parse_line", parse, (), {})
        clock.spend(3.0)

    recorder.call("analyses.run", run, (), {})
    local = recorder.local
    assert local.self_s["analyses.run"] == pytest.approx(4.0)
    assert local.total_s["analyses.run"] == pytest.approx(6.0)
    assert local.self_s["trace.parse_line"] == pytest.approx(2.0)
    assert local.calls == {"analyses.run": 1, "trace.parse_line": 1}


def test_core_calls_count_only_at_the_outermost_frame(clock):
    recorder = layers.Recorder()

    def successor():
        clock.spend(0.5)

    def reachable():
        clock.spend(0.25)
        recorder.call("core.query", successor, (), {})
        recorder.call("core.insert", successor, (), {})

    def analysis():
        clock.spend(1.0)
        recorder.call("core.query", reachable, (), {})
        recorder.call("core.query", reachable, (), {})

    recorder.call("analyses.run", analysis, (), {})
    local = recorder.local
    # Two outer queries; the nested query and insert are part of them.
    assert local.calls["core.query"] == 2
    assert "core.insert" not in local.calls
    assert local.self_s["core.query"] == pytest.approx(2 * 1.25)
    assert local.self_s["analyses.run"] == pytest.approx(1.0)
    # Self times of all layers add up to the outermost wall time.
    assert sum(local.self_s.values()) == pytest.approx(
        local.total_s["analyses.run"])


def test_real_backend_nesting_counts_each_query_once():
    from repro.core import VectorClockOrder
    from repro.core.instrumented import InstrumentedOrder

    recorder = layers.Recorder()
    installation = layers.install(recorder)
    try:
        order = InstrumentedOrder(VectorClockOrder(2, 8))
        order.insert_edge((0, 1), (1, 2))
        assert order.reachable((0, 0), (1, 3))
        assert not order.reachable((1, 0), (0, 5))
    finally:
        installation.remove()
    calls = recorder.local.calls
    assert calls["core.build"] == 2      # the wrapper and its delegate
    assert calls["core.insert"] == 1
    assert calls["core.query"] == 2


def _bindings():
    """Identity of every attribute of every loaded repro module and of
    every class those modules define."""
    seen = {}
    for module in layers._repro_modules():
        for name, value in vars(module).items():
            seen[(module.__name__, name)] = value
            if isinstance(value, type) and \
                    value.__module__.startswith("repro"):
                for attr, member in vars(value).items():
                    seen[(value.__module__, value.__qualname__, attr)] = \
                        member
    return seen


def test_untraced_run_leaves_every_wrapped_function_identical(tmp_path):
    from repro.api import Session
    from perfbench import inputs as spec
    from perfbench.workloads import WatchWorkload

    layers._import_all()
    before = _bindings()
    installation = layers.install(layers.Recorder())
    patched = installation.patched
    assert patched, "install wrapped nothing"
    installation.remove()
    for owner, name, original in patched:
        assert vars(owner)[name] is original, (owner, name)

    generated = spec.make_inputs("watch", 3, str(tmp_path))
    generated.files["watch"] = generated.files["watch"][:1]
    workload = WatchWorkload(generated, Session, str(tmp_path))
    workload.prepare()
    measured = workload.measure(0.0)
    assert measured.failed == 0 and measured.attempted == 1

    after = _bindings()
    changed = [key for key, value in before.items()
               if after.get(key) is not value]
    assert not changed
    assert not any(hasattr(value, "__perfbench_original__")
                   for value in after.values())


def test_worker_counters_survive_the_snapshot_merge():
    """Worker-side frames record into the worker registry; its snapshot
    (shipped as JSON-able data) merges into the supervisor's registry,
    and the recorder reads the same figures back."""
    from repro.obs import metrics as obs_metrics
    from repro.obs.context import merge_snapshot

    worker = layers.Recorder()
    worker.pid = -1                      # act as a forked child
    worker_registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(worker_registry):
        worker.add("serve.shard_feed", 0.75, 1.5, calls=3)
        worker.add("stream.feed", 0.5, 0.5)
        worker.count("analyses.findings", 7)
    shipped = json.loads(json.dumps(worker_registry.snapshot()))

    parent = obs_metrics.MetricsRegistry()
    merge_snapshot(parent, shipped)
    merge_snapshot(parent, shipped)      # two workers, same figures
    recorder = layers.Recorder()
    recorder.absorb(parent.snapshot())
    remote = recorder.remote
    assert remote.self_s["serve.shard_feed"] == pytest.approx(1.5)
    assert remote.total_s["serve.shard_feed"] == pytest.approx(3.0)
    assert remote.calls["serve.shard_feed"] == 6
    assert remote.self_s["stream.feed"] == pytest.approx(1.0)
    assert remote.counts["analyses.findings"] == 14
    assert not recorder.local.self_s


@pytest.mark.skipif(sys.platform == "win32", reason="fork start method")
def test_serve_worker_layer_times_reach_the_supervisor(tmp_path):
    from repro.api import ServeConfig, Session
    from repro.obs import metrics as obs_metrics
    from repro.trace import write_trace_stc
    from repro.trace.generators import build_trace

    sources = []
    for index in range(2):
        path = str(tmp_path / f"t{index}.stc")
        write_trace_stc(build_trace("c11", num_threads=3, events=20,
                                    seed=index), path)
        sources.append(path)
    recorder = layers.Recorder()
    registry = obs_metrics.MetricsRegistry()
    installation = layers.install(recorder)
    try:
        result = Session(metrics=registry).run(ServeConfig(
            analyses=("c11-races",), sources=tuple(sources), workers=1))
    finally:
        installation.remove()
    recorder.absorb(registry.snapshot())
    events = result.outcome.events
    remote = recorder.remote
    # One feed_line per event plus one end_tenant per tenant, all in the
    # worker; the supervisor side ingested the same events.
    assert remote.calls["serve.shard_feed"] == events + len(sources)
    assert remote.total_s["serve.shard_feed"] > 0
    assert remote.calls["stream.feed"] == events
    assert recorder.local.calls["serve.ingest"] == events
    assert "serve.shard_feed" not in recorder.local.calls


def test_per_layer_metrics_match_the_manifest():
    import os

    from perfbench.common import ROOT

    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as stream:
        manifest = json.load(stream)
    listed = {entry["name"]: (entry["unit"], entry["better"])
              for entry in manifest["per_layer"]}
    expected = dict(layers.METRICS)
    del expected["bench.generator_lag_p99_ms"]   # serve-paced only
    assert listed == expected
    metrics = layers.layer_metrics(layers.Recorder(), wall_s=1.0, events=1)
    metrics["bench.trace_overhead_ratio"] = 1.0
    assert sorted(metrics) == sorted(listed)


def test_iterate_times_each_step():
    recorder = layers.Recorder()
    assert list(recorder.iterate("trace.load", iter([1, 2, 3]))) == [1, 2, 3]
    assert recorder.local.calls["trace.load"] == 4  # three items + the end



def test_layer_figures_are_per_event():
    recorder = layers.Recorder()
    recorder.add("core.query", 2.0, 2.0, calls=400)
    recorder.count("stream.checkpoint_bytes", 1000)
    metrics = layers.layer_metrics(recorder, wall_s=4.0, events=100)
    assert metrics["core.query_s"] == pytest.approx(0.02)
    assert metrics["core.query_calls"] == pytest.approx(4.0)
    assert metrics["stream.checkpoint_bytes"] == pytest.approx(10.0)
    # Ratios are not divided.
    assert metrics["bench.attributed_ratio"] == pytest.approx(0.5)
