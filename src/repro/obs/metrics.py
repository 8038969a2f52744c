"""Thread-safe, zero-dependency metrics: counters, gauges, histograms,
spans, and the process-wide *active registry*.

Design constraints (see ``docs/observability.md``):

* **Off by default, provably near-zero cost when off.**  The module-level
  :data:`ACTIVE` registry is ``None`` until something installs one;
  instrumented hot paths bind their instruments once at construction time
  and guard the per-event work with a single ``is None`` check -- no dict
  lookups, no allocation, no call into this module per event while
  telemetry is disabled.  ``ACTIVE is None`` is the one off switch.
* **Thread-safe.**  Instrument creation and every update happen under a
  lock (one per registry, shared by its instruments); concurrent ``inc``
  from N threads never loses a count.
* **JSON-able snapshots.**  :meth:`MetricsRegistry.snapshot` returns one
  plain-dict document carrying every instrument plus the recorded span
  trees; the sinks (:mod:`repro.obs.sinks`) serialize that document, they
  never reach into instruments.

Histogram timers use the monotonic ``time.perf_counter_ns`` clock and
observe seconds (floats) into **fixed** bucket boundaries -- buckets are
chosen at creation and never rebalance, so merged/longitudinal snapshots
stay comparable.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.spans import Span, SpanStack

#: Snapshot document format version.
SNAPSHOT_VERSION = 1

#: Default histogram bucket upper bounds, in seconds: wide enough for a
#: microsecond-scale kernel op and a minutes-scale sweep in one scheme.
#: The implicit final bucket is +Inf.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.000_1, 0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Finished root spans kept per registry (oldest dropped first).
MAX_RECORDED_SPANS = 256

#: ``(key, value)`` label pairs, sorted -- the hashable instrument key part.
Labels = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


# --------------------------------------------------------------------------- #
# Instruments
# --------------------------------------------------------------------------- #
class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Labels,
                 lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc({amount}))")
        with self._lock:
            self._value += amount

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self._value}


class Gauge:
    """A value that goes up and down (last write wins)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Labels,
                 lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self._value}


class Histogram:
    """Observations bucketed by fixed upper bounds (plus +Inf).

    ``counts[i]`` is the number of observations ``<= bounds[i]``
    (*non*-cumulative per bucket; the Prometheus renderer accumulates).
    ``time()`` returns a context manager that observes the wall-clock
    seconds of its body, measured with ``perf_counter_ns``.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "_lock", "_counts", "_sum",
                 "_count")

    def __init__(self, name: str, labels: Labels, lock: threading.Lock,
                 bounds: Tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(bounds) \
                or len(set(bounds)) != len(bounds):
            raise ObservabilityError(
                f"histogram {name!r} bucket bounds must be a non-empty "
                f"strictly increasing sequence, got {bounds!r}")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(bound) for bound in bounds)
        self._lock = lock
        self._counts = [0] * (len(bounds) + 1)  # final slot: > last bound
        self._sum = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def time(self) -> "_Timer":
        return _Timer(self)

    def absorb(self, counts: List[int], total: float, count: int) -> None:
        """Merge another histogram's per-bucket counts into this one.

        Used by :func:`repro.obs.context.merge_snapshot` to fold worker
        snapshots into the collector's registry; the caller is responsible
        for matching bounds (the registry's get-or-create already rejects
        a bounds conflict for the same instrument identity).
        """
        if len(counts) != len(self._counts):
            raise ObservabilityError(
                f"histogram {self.name!r} cannot absorb {len(counts)} "
                f"buckets into {len(self._counts)}")
        with self._lock:
            for index, value in enumerate(counts):
                self._counts[index] += value
            self._sum += total
            self._count += count

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "labels": dict(self.labels),
                "bounds": list(self.bounds), "counts": list(self._counts),
                "sum": self._sum, "count": self._count}


class _Timer:
    """Context manager observing its body's duration into a histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._histogram.observe(
            (time.perf_counter_ns() - self._start) / 1e9)
        return False


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class MetricsRegistry:
    """Get-or-create home of every instrument, plus the span recorder.

    Instruments are identified by ``(name, sorted labels)``; asking twice
    returns the *same* object, so hot paths can bind instruments once and
    skip the lookup forever after.  Re-using a name with a different
    instrument type (or different histogram bounds) is an
    :class:`~repro.errors.ObservabilityError` -- silent type morphing
    would corrupt every sink downstream.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, Labels], Any] = {}
        self._spans: List[Dict[str, Any]] = []
        self._span_stack = SpanStack(self._record_root, self._record_finish)
        self._span_seconds_lock = threading.Lock()

    # -- instrument factories ------------------------------------------- #
    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, _label_key(labels))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, _label_key(labels))

    def histogram(self, name: str,
                  buckets: Optional[Tuple[float, ...]] = None,
                  **labels: Any) -> Histogram:
        bounds = tuple(buckets) if buckets is not None \
            else DEFAULT_TIME_BUCKETS
        return self._get(Histogram, name, _label_key(labels), bounds)

    def _get(self, cls, name: str, labels: Labels, *extra) -> Any:
        key = (name, labels)
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, labels, self._lock, *extra)
                self._instruments[key] = instrument
                return instrument
        if type(instrument) is not cls:
            raise ObservabilityError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, requested {cls.kind}")
        if extra and instrument.bounds != tuple(
                float(bound) for bound in extra[0]):
            raise ObservabilityError(
                f"histogram {name!r} already registered with bounds "
                f"{instrument.bounds}, requested {extra[0]}")
        return instrument

    # -- spans ----------------------------------------------------------- #
    def span(self, name: str, **labels: Any) -> Span:
        """A new span nesting under the thread's current span (if any)."""
        return Span(name, {str(k): str(v) for k, v in labels.items()},
                    self._span_stack)

    def current_span(self) -> Optional[Span]:
        return self._span_stack.current()

    def _record_finish(self, span: Span) -> None:
        # Label key "name" collides with the positional parameter of
        # ``histogram`` -- go through ``_get`` directly.
        self._get(Histogram, "span_seconds",
                  _label_key({"name": span.name}), DEFAULT_TIME_BUCKETS) \
            .observe(span.duration_seconds)

    def _record_root(self, span: Span) -> None:
        # Root spans are stamped with their clock domain: ``start_ns``
        # values are per-process ``perf_counter_ns`` readings, so the
        # wall-clock anchor (derived at record time, when the duration is
        # known) is what lets trees from different processes land on one
        # timeline (see repro.obs.export).
        document = span.to_dict()
        document["pid"] = os.getpid()
        document["tid"] = threading.get_ident()
        document["wall_start_ns"] = time.time_ns() - span.duration_ns
        self.record_span_document(document)

    def record_span_document(self, document: Dict[str, Any]) -> None:
        """Append one finished span *tree* (a JSON-able dict) to the
        bounded root-span log.  This is how snapshots merged from other
        processes -- and synthetic spans for work that never ran, e.g.
        timed-out sweep jobs -- enter the log; live spans go through the
        span stack and arrive here via :meth:`_record_root`."""
        with self._span_seconds_lock:
            self._spans.append(document)
            if len(self._spans) > MAX_RECORDED_SPANS:
                del self._spans[0]

    @property
    def spans(self) -> List[Dict[str, Any]]:
        """Finished root-span trees, oldest first (bounded log)."""
        with self._span_seconds_lock:
            return list(self._spans)

    # -- export ---------------------------------------------------------- #
    def instruments(self) -> Iterator[Any]:
        with self._lock:
            items = list(self._instruments.items())
        for (_, _), instrument in sorted(
                items, key=lambda item: (item[0][0], item[0][1])):
            yield instrument

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-able document: every instrument plus the span log.

        ``ts_ns`` stamps the snapshot with ``time.time_ns`` (wall clock,
        for humans/sinks); instrument values themselves are cumulative
        since registry creation.
        """
        counters, gauges, histograms = [], [], []
        for instrument in self.instruments():
            if instrument.kind == "counter":
                counters.append(instrument.describe())
            elif instrument.kind == "gauge":
                gauges.append(instrument.describe())
            else:
                histograms.append(instrument.describe())
        return {
            "version": SNAPSHOT_VERSION,
            "ts_ns": time.time_ns(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": self.spans,
        }


# --------------------------------------------------------------------------- #
# The process-wide active registry
# --------------------------------------------------------------------------- #
#: ``None`` means telemetry is disabled.  Hot paths read this module
#: attribute directly (``metrics.ACTIVE``) and guard on ``is None`` --
#: that single check is the entire disabled-mode cost.
ACTIVE: Optional[MetricsRegistry] = None

_ACTIVE_LOCK = threading.Lock()


def set_registry(registry: Optional[MetricsRegistry]
                 ) -> Optional[MetricsRegistry]:
    """Install ``registry`` as the process-wide active registry
    (``None`` disables telemetry).  Returns the previous value."""
    global ACTIVE
    with _ACTIVE_LOCK:
        previous = ACTIVE
        ACTIVE = registry
    return previous


class use_registry:
    """Context manager installing a registry for the duration of a block::

        with use_registry(MetricsRegistry()) as registry:
            session.analyze(config)
        print(registry.snapshot())

    ``use_registry(None)`` turns telemetry off for the block and yields
    ``None``.
    """

    def __init__(self, registry: Optional[MetricsRegistry]) -> None:
        self._registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> Optional[MetricsRegistry]:
        self._previous = set_registry(self._registry)
        return self._registry

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_registry(self._previous)
        return False


# --------------------------------------------------------------------------- #
# Metric catalogue
# --------------------------------------------------------------------------- #
#: Every metric name the instrumented library emits, with type and
#: meaning.  ``Session.capabilities()`` exposes this so external tooling
#: can discover the telemetry surface without running a workload.
METRIC_CATALOG: Dict[str, Dict[str, str]] = {
    "stream_events_total": {
        "type": "counter",
        "help": "events ingested by a StreamEngine"},
    "stream_flushes_total": {
        "type": "counter", "help": "window/flush-point evaluations"},
    "stream_flush_errors_total": {
        "type": "counter", "help": "per-analysis flush failures"},
    "stream_findings_total": {
        "type": "counter",
        "help": "findings emitted (exactly-once, labelled by analysis)"},
    "stream_evicted_total": {
        "type": "counter", "help": "events evicted by bounded windows"},
    "stream_buffered_events": {
        "type": "gauge", "help": "events currently retained by the engine"},
    "stream_feed_seconds": {
        "type": "histogram",
        "help": "per-event feed latency of streaming-native analyses "
                "(labelled by analysis)"},
    "stream_flush_seconds": {
        "type": "histogram",
        "help": "per-flush evaluation time (labelled by analysis)"},
    "checkpoint_total": {
        "type": "counter", "help": "engine checkpoints saved"},
    "checkpoint_bytes": {
        "type": "gauge", "help": "size of the last checkpoint written"},
    "checkpoint_seconds": {
        "type": "histogram", "help": "checkpoint serialization+write time"},
    "sweep_jobs_total": {
        "type": "counter", "help": "sweep jobs collected (labelled by "
                                   "status: ok/error/timeout)"},
    "sweep_job_timeout_total": {
        "type": "counter",
        "help": "sweep jobs abandoned by the collector's per-job timeout "
                "(each also leaves a synthetic error-status span)"},
    "sweep_job_seconds": {
        "type": "histogram",
        "help": "per-job analysis wall time (labelled analysis, backend)"},
    "sweep_queue_wait_seconds": {
        "type": "histogram",
        "help": "collector wait per job: submit-to-result latency of the "
                "worker pool"},
    "trace_loads_total": {
        "type": "counter", "help": "traces loaded (labelled by format)"},
    "trace_parse_seconds": {
        "type": "histogram",
        "help": "trace load/parse duration (labelled by format)"},
    "trace_parse_bytes_total": {
        "type": "counter",
        "help": "on-disk bytes of loaded traces (labelled by format)"},
    "trace_writes_total": {
        "type": "counter", "help": "traces written (labelled by format)"},
    "analysis_run_seconds": {
        "type": "histogram",
        "help": "whole-analysis batch run time (labelled analysis, "
                "backend)"},
    "analysis_findings_total": {
        "type": "counter",
        "help": "findings produced by batch analysis runs (labelled by "
                "analysis)"},
    "po_ops_total": {
        "type": "counter",
        "help": "partial-order operations issued via InstrumentedOrder "
                "(labelled op: insert/delete/query, and analysis)"},
    "span_seconds": {
        "type": "histogram",
        "help": "duration of every finished span (labelled by span name)"},
    "tune_pick_total": {
        "type": "counter",
        "help": "auto-backend selections (labelled by backend)"},
    "tune_regret_seconds": {
        "type": "gauge",
        "help": "total auto regret vs the per-job optimum of the last "
                "oracle sweep"},
    "serve_events_total": {
        "type": "counter",
        "help": "events consumed by the serve workers (labelled by "
                "tenant)"},
    "serve_tenants_total": {
        "type": "counter",
        "help": "tenant sessions admitted by the service"},
    "serve_tenant_lag_seconds": {
        "type": "gauge",
        "help": "ingest-to-consume lag of each tenant's most recent "
                "event (labelled by tenant)"},
    "serve_worker_respawn_total": {
        "type": "counter",
        "help": "crashed worker processes respawned by the supervisor "
                "(labelled by worker slot)"},
    "serve_quota_rejected_total": {
        "type": "counter",
        "help": "events rejected by per-tenant quotas (labelled by "
                "tenant)"},
    "serve_backpressure_waits_total": {
        "type": "counter",
        "help": "bounded-queue put timeouts on the ingest path -- each is "
                "~200ms of pushback on the feeding client (labelled by "
                "worker slot)"},
}
