"""``repro.obs`` -- zero-dependency telemetry for the repro library.

Three layers:

* :mod:`repro.obs.metrics` -- thread-safe counters/gauges/histograms and
  nested timing spans in a :class:`MetricsRegistry`; the module-level
  *active registry* (``None`` by default) is what instrumented hot paths
  consult, so telemetry is off until :func:`set_registry` /
  :func:`use_registry` installs one.
* :mod:`repro.obs.sinks` -- snapshot consumers: in-memory, JSON-lines
  files, Prometheus text exposition, and the ``repro stats`` table.
* :mod:`repro.obs.context` / :mod:`repro.obs.export` -- cross-process
  trace propagation (id minting, worker-snapshot merging) and the Chrome
  trace-event / Perfetto timeline exporter.
* :mod:`repro.obs.trend` -- the longitudinal perf dashboard over
  accumulated ``BENCH_*.json`` documents.

The full metric catalogue lives in :data:`METRIC_CATALOG` and is exposed
through ``Session.capabilities()["observability"]``.
"""

from repro.obs.context import (
    merge_snapshot,
    new_span_id,
    new_trace_id,
)
from repro.obs.export import (
    CHROME_REQUIRED_KEYS,
    METRICS_LANE_PID,
    render_chrome_json,
    render_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    METRIC_CATALOG,
    MAX_RECORDED_SPANS,
    SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    set_registry,
    use_registry,
)
from repro.obs.sinks import (
    SINK_KINDS,
    JsonlSink,
    MemorySink,
    load_snapshot,
    read_snapshots,
    render_prom,
    render_stats_table,
)
from repro.obs.spans import Span, SpanStack
from repro.obs.trend import (
    build_trend,
    collect_runs,
    render_markdown,
    write_trend,
)

__all__ = [
    "merge_snapshot",
    "new_span_id",
    "new_trace_id",
    "CHROME_REQUIRED_KEYS",
    "METRICS_LANE_PID",
    "render_chrome_json",
    "render_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "DEFAULT_TIME_BUCKETS",
    "METRIC_CATALOG",
    "MAX_RECORDED_SPANS",
    "SNAPSHOT_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "set_registry",
    "use_registry",
    "SINK_KINDS",
    "JsonlSink",
    "MemorySink",
    "load_snapshot",
    "read_snapshots",
    "render_prom",
    "render_stats_table",
    "Span",
    "SpanStack",
    "build_trend",
    "collect_runs",
    "render_markdown",
    "write_trend",
]
