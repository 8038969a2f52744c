"""Per-layer attribution for the traced run.

The traced run wraps the public functions of each ``repro`` layer from
the benchmark's own files -- nothing under ``src/`` changes.  Every
wrapped call pushes a frame on a per-thread stack; on exit the frame's
*self time* (its duration minus the time covered by nested wrapped
calls) is added to its layer.  Partial-order calls are counted only at
the outermost ``core.*`` frame, so a backend method calling another
backend method (``InstrumentedOrder`` delegating, ``reachable`` calling
``successor``) is one call, not two.

A serve worker is forked from a process that already holds the
wrappers, so it inherits them.  In any process other than the one that
installed them, frames record into the active :mod:`repro.obs` registry
(the worker's own, shipped back by ``Supervisor.stop`` and merged into
the supervisor's) under :data:`SELF_COUNTER`/:data:`TOTAL_COUNTER`/
:data:`CALLS_COUNTER`/:data:`COUNT_COUNTER`; :meth:`Recorder.absorb`
reads them back out of a snapshot.

An untraced run never calls :func:`install`, so every wrapped name stays
the original object.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

SELF_COUNTER = "perfbench_self_seconds"
TOTAL_COUNTER = "perfbench_total_seconds"
CALLS_COUNTER = "perfbench_calls"
COUNT_COUNTER = "perfbench_count"

#: Method name -> layer, for every partial-order class.
CORE_METHODS = {
    "__init__": "core.build",
    "insert_edge": "core.insert",
    "insert_edges": "core.insert",
    "insert_many": "core.insert",
    "delete_edge": "core.delete",
    "reachable": "core.query",
    "ordered": "core.query",
    "concurrent": "core.query",
    "successor": "core.query",
    "predecessor": "core.query",
    "query_many": "core.query",
}


class Stats:
    """Self time, inclusive time, calls and named counts per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def merged(self, other: "Stats") -> "Stats":
        both = Stats()
        for stats in (self, other):
            for field in ("self_s", "total_s", "calls", "counts"):
                target = getattr(both, field)
                for key, value in getattr(stats, field).items():
                    target[key] += value
        return both


class Recorder:
    """Records wrapped calls: frames of the installing process into
    :attr:`local`; frames of forked workers, once read back from their
    registry snapshot by :meth:`absorb`, into :attr:`remote`."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.local = Stats()
        self.remote = Stats()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[list]:
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            # Fresh thread, or a forked child that copied the parent's
            # thread state: start from an empty stack either way.
            local.pid = os.getpid()
            local.stack = []
            local.core_depth = 0
        return local.stack

    def in_layer(self, layer: str) -> bool:
        """Is a frame of ``layer`` open on this thread?"""
        return any(frame[0] == layer for frame in self._stack())

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict,
             lazy: bool = False) -> Any:
        stack = self._stack()
        local = self._local
        core = layer.startswith("core.")
        if core and local.core_depth:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        if core:
            local.core_depth += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if lazy and inspect.isgenerator(result):
                result = list(result)
            return result
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if core:
                local.core_depth -= 1
            if stack:
                stack[-1][1] += elapsed
            self.add(layer, elapsed - frame[1], elapsed)

    def add(self, layer: str, self_seconds: float, total_seconds: float,
            calls: int = 1) -> None:
        if os.getpid() != self.pid:
            registry = _active_registry()
            if registry is not None:
                registry.counter(SELF_COUNTER, layer=layer).inc(
                    max(0.0, self_seconds))
                registry.counter(TOTAL_COUNTER, layer=layer).inc(
                    total_seconds)
                registry.counter(CALLS_COUNTER, layer=layer).inc(calls)
            return
        with self._lock:
            self.local.self_s[layer] += self_seconds
            self.local.total_s[layer] += total_seconds
            self.local.calls[layer] += calls

    def count(self, name: str, amount: float = 1) -> None:
        if os.getpid() != self.pid:
            registry = _active_registry()
            if registry is not None:
                registry.counter(COUNT_COUNTER, what=name).inc(amount)
            return
        with self._lock:
            self.local.counts[name] += amount

    def absorb(self, snapshot: Dict[str, Any]) -> None:
        """Fold the worker-side counters of a registry snapshot in."""
        remote = self.remote
        targets = {SELF_COUNTER: remote.self_s,
                   TOTAL_COUNTER: remote.total_s,
                   CALLS_COUNTER: remote.calls, COUNT_COUNTER: remote.counts}
        with self._lock:
            for entry in snapshot.get("counters", ()):
                target = targets.get(entry["name"])
                if target is None:
                    continue
                labels = entry.get("labels", {})
                key = labels.get("layer", labels.get("what"))
                target[key] += entry.get("value", 0)

    def iterate(self, layer: str, iterator) -> Iterator[Any]:
        """Re-yield ``iterator`` timing each step as ``layer``."""
        iterator = iter(iterator)
        sentinel = object()
        while True:
            item = self.call(layer, next, (iterator, sentinel), {})
            if item is sentinel:
                return
            yield item


def _active_registry():
    from repro.obs import metrics as obs_metrics

    return obs_metrics.ACTIVE


# --------------------------------------------------------------------------- #
# Installation
# --------------------------------------------------------------------------- #
class Installation:
    """The patches one :func:`install` made, undone by :meth:`remove`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def wrap_function(self, original: Callable, layer: str,
                      after: Optional[Callable] = None) -> None:
        """Replace ``original`` in every loaded ``repro`` module that
        binds it (``from x import f`` copies the reference)."""
        wrapper = self._wrapper(original, layer, after)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)

    def wrap_method(self, cls: type, name: str, layer: str,
                    after: Optional[Callable] = None,
                    iterator: bool = False, lazy: bool = False) -> None:
        original = cls.__dict__[name]
        self._set(cls, name, self._wrapper(original, layer, after,
                                           iterator, lazy))

    def _wrapper(self, original: Callable, layer: str,
                 after: Optional[Callable], iterator: bool = False,
                 lazy: bool = False) -> Callable:
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = recorder.call(layer, original, args, kwargs, lazy)
            if after is not None:
                after(recorder, result, args)
            if iterator:
                return recorder.iterate(layer, result)
            return result

        wrapper.__perfbench_original__ = original
        return wrapper

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    @property
    def patched(self) -> List[Tuple[Any, str, Any]]:
        return list(self._undo)


def _repro_modules() -> List[Any]:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _import_all() -> None:
    """Import every ``repro`` module first, so no module imported later
    copies a wrapper that :meth:`Installation.remove` cannot see."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _subclasses(cls: type) -> List[type]:
    seen: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        for sub in current.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                pending.append(sub)
    return seen


def _count_trace_events(recorder: Recorder, trace, _args) -> None:
    recorder.count("trace.events", len(trace))


def _count_parsed(recorder: Recorder, event, _args) -> None:
    # Lines parsed inside a load are already counted by the load.
    if event is not None and not recorder.in_layer("trace.load"):
        recorder.count("trace.events")


def _count_findings(recorder: Recorder, result, _args) -> None:
    findings = getattr(result, "findings", result)
    recorder.count("analyses.findings", len(findings))


def _count_run(recorder: Recorder, result, args) -> None:
    _count_findings(recorder, result, args)
    recorder.count("analyses.runs")


def _count_checkpoint(recorder: Recorder, _result, args) -> None:
    recorder.count("stream.checkpoint_bytes", os.path.getsize(args[1]))


def install(recorder: Recorder) -> Installation:
    """Wrap every layer's public functions; returns the undo handle."""
    _import_all()
    from repro import tune
    from repro.analyses.common.base import Analysis
    from repro.core.interface import PartialOrder
    from repro.serve import protocol
    from repro.serve.shard import TenantShard
    from repro.serve.supervisor import Supervisor
    from repro.stream import checkpoint
    from repro.stream.engine import StreamEngine
    from repro.stream.source import TraceSource
    from repro.trace import formats, io
    from repro.trace.trace import Trace

    done = Installation(recorder)

    # repro.trace: loading, columnar views, STD line codec.
    done.wrap_function(io.read_trace, "trace.load", _count_trace_events)
    done.wrap_method(TraceSource, "events", "trace.load", iterator=True)
    for cls in [Trace] + _subclasses(Trace):
        if "columns" in cls.__dict__:
            done.wrap_method(cls, "columns", "trace.columns")
    done.wrap_function(formats.parse_trace_line, "trace.parse_line",
                       _count_parsed)
    done.wrap_function(formats.format_event, "trace.format_event")

    # repro.core: every partial-order class, outermost call only.
    for cls in [PartialOrder] + _subclasses(PartialOrder):
        for name, layer in CORE_METHODS.items():
            if name in cls.__dict__ and callable(cls.__dict__[name]):
                done.wrap_method(cls, name, layer)

    # repro.tune: the `auto` pick (feature extraction + policy choice).
    done.wrap_function(tune.extract_features, "tune.select")
    done.wrap_function(tune.choose_backend, "tune.select",
                       lambda rec, _r, _a: rec.count("tune.picks"))

    # repro.analyses: batch runs and the online protocol.
    for cls in [Analysis] + _subclasses(Analysis):
        if "run" in cls.__dict__:
            done.wrap_method(cls, "run", "analyses.run", _count_rerun)
        if "feed" in cls.__dict__:
            done.wrap_method(cls, "feed", "analyses.feed", _count_findings,
                             lazy=True)
        if "flush" in cls.__dict__:
            done.wrap_method(cls, "flush", "analyses.flush")

    # repro.stream: the engine's per-event path, flushes, checkpoints.
    done.wrap_method(StreamEngine, "feed", "stream.feed")
    done.wrap_method(StreamEngine, "flush", "stream.flush")
    done.wrap_function(checkpoint.save_checkpoint, "stream.checkpoint",
                       _count_checkpoint)

    # repro.serve: supervisor side (access) and worker side (execute).
    done.wrap_method(Supervisor, "ingest_event", "serve.ingest")
    for name in ("start", "drain", "stop"):
        done.wrap_method(Supervisor, name, "serve.lifecycle")
    done.wrap_function(protocol.parse_line, "serve.wire_parse")
    done.wrap_method(TenantShard, "feed_line", "serve.shard_feed")
    done.wrap_method(TenantShard, "end_tenant", "serve.shard_feed")
    return done


def _count_rerun(recorder: Recorder, result, args) -> None:
    _count_run(recorder, result, args)
    if recorder.in_layer("stream.flush"):
        recorder.count("stream.rerun_events", len(args[1]))


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
#: Per-layer metric -> (unit, better direction).  Seconds, calls and
#: counts are per event the measured loop processed, so a faster program
#: running more passes in the same time does not read as doing more
#: work.  BENCHMARK.json lists the same metrics except
#: ``bench.generator_lag_p99_ms``, which only the ``serve-paced`` workload
#: (not listed in BENCHMARK.json) reports.
METRICS: Dict[str, Tuple[str, str]] = {
    "trace.load_s": ("s/event", "lower"),
    "trace.columns_s": ("s/event", "lower"),
    "trace.parse_line_s": ("s/event", "lower"),
    "trace.format_event_s": ("s/event", "lower"),
    "trace.events": ("count/event", "lower"),
    "core.insert_s": ("s/event", "lower"),
    "core.insert_calls": ("count/event", "lower"),
    "core.query_s": ("s/event", "lower"),
    "core.query_calls": ("count/event", "lower"),
    "core.delete_s": ("s/event", "lower"),
    "core.delete_calls": ("count/event", "lower"),
    "core.build_s": ("s/event", "lower"),
    "tune.select_s": ("s/event", "lower"),
    "tune.picks": ("count/event", "lower"),
    "analyses.self_s": ("s/event", "lower"),
    "analyses.runs": ("count/event", "lower"),
    "analyses.findings": ("count/event", "lower"),
    "stream.feed_s": ("s/event", "lower"),
    "stream.flush_s": ("s/event", "lower"),
    "stream.flushes": ("count/event", "lower"),
    "stream.checkpoint_s": ("s/event", "lower"),
    "stream.checkpoints": ("count/event", "lower"),
    "stream.checkpoint_bytes": ("bytes/event", "lower"),
    "stream.rerun_ratio": ("ratio", "lower"),
    "serve.ingest_s": ("s/event", "lower"),
    "serve.ingest_calls": ("count/event", "lower"),
    "serve.backpressure_waits": ("count/event", "lower"),
    "serve.wire_parse_s": ("s/event", "lower"),
    "serve.lifecycle_s": ("s/event", "lower"),
    "serve.shard_feed_s": ("s/event", "lower"),
    "serve.worker_busy_ratio": ("ratio", "lower"),
    "serve.findings_merged_ratio": ("ratio", "higher"),
    "bench.attributed_ratio": ("ratio", "higher"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
    "bench.generator_lag_p99_ms": ("ms", "lower"),
}

#: Layer prefixes whose self time counts as attributed.
LAYERS = ("trace", "core", "tune", "analyses", "stream", "serve")


def layer_metrics(recorder: Recorder, wall_s: float, events: int,
                  serve_wall_s: float = 0.0,
                  backpressure_waits: float = 0.0,
                  merged_findings: int = 0,
                  emitted_findings: int = 0) -> Dict[str, float]:
    """The per-layer metric values from one traced run.

    ``wall_s`` is the traced wall time of the measured region in the
    measuring process and ``events`` the events it processed;
    ``serve_wall_s`` the part of it the service was live (the worker's
    busy ratio is taken against it).
    """
    stats = recorder.local.merged(recorder.remote)
    s, t, c, n = stats.self_s, stats.total_s, stats.calls, stats.counts
    analyses_self = s["analyses.run"] + s["analyses.feed"] \
        + s["analyses.flush"]
    feeds = c["stream.feed"]
    totals = {
        "trace.load_s": s["trace.load"],
        "trace.columns_s": s["trace.columns"],
        "trace.parse_line_s": s["trace.parse_line"],
        "trace.format_event_s": s["trace.format_event"],
        "trace.events": n["trace.events"],
        "core.insert_s": s["core.insert"],
        "core.insert_calls": c["core.insert"],
        "core.query_s": s["core.query"],
        "core.query_calls": c["core.query"],
        "core.delete_s": s["core.delete"],
        "core.delete_calls": c["core.delete"],
        "core.build_s": s["core.build"],
        "tune.select_s": s["tune.select"],
        "tune.picks": n["tune.picks"],
        "analyses.self_s": analyses_self,
        "analyses.runs": n["analyses.runs"],
        "analyses.findings": n["analyses.findings"],
        "stream.feed_s": s["stream.feed"],
        "stream.flush_s": s["stream.flush"],
        "stream.flushes": c["stream.flush"],
        "stream.checkpoint_s": s["stream.checkpoint"],
        "stream.checkpoints": c["stream.checkpoint"],
        "stream.checkpoint_bytes": n["stream.checkpoint_bytes"],
        "serve.ingest_s": s["serve.ingest"],
        "serve.ingest_calls": c["serve.ingest"],
        "serve.backpressure_waits": backpressure_waits,
        "serve.wire_parse_s": s["serve.wire_parse"],
        "serve.lifecycle_s": s["serve.lifecycle"],
        "serve.shard_feed_s": s["serve.shard_feed"],
    }
    metrics = {name: value / events if events else 0.0
               for name, value in totals.items()}
    metrics.update({
        "stream.rerun_ratio": (n["stream.rerun_events"] / feeds
                               if feeds else 0.0),
        "serve.worker_busy_ratio": (t["serve.shard_feed"] / serve_wall_s
                                    if serve_wall_s else 0.0),
        "serve.findings_merged_ratio": (merged_findings / emitted_findings
                                        if emitted_findings else 0.0),
        "bench.attributed_ratio": (attributed_seconds(recorder) / wall_s
                                   if wall_s else 0.0),
    })
    return {name: metrics[name] for name in METRICS if name in metrics}


def layer_self_seconds(stats: Stats) -> Dict[str, float]:
    """Self time summed per top-level layer (``trace``, ``core``, ...)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, seconds in stats.self_s.items():
        totals[name.split(".", 1)[0]] += seconds
    return totals


def attributed_seconds(recorder: Recorder) -> float:
    """Self time of frames recorded in this process (worker-side frames
    ran in parallel on another core and are excluded)."""
    return sum(recorder.local.self_s.values())
