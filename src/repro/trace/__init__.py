"""Trace substrate: event model, trace container, serialization and
synthetic workload generators."""

from repro.trace.columns import KIND_BY_CODE, KIND_CODES, TraceColumns
from repro.trace.event import (
    ACCESS_KINDS,
    READ_KINDS,
    WRITE_KINDS,
    Event,
    EventKind,
    MemoryOrder,
)
from repro.trace.binfmt import (
    STC_MAGIC,
    STC_VERSION,
    decode_trace,
    encode_trace,
    read_trace_stc,
    write_trace_stc,
)
from repro.trace.formats import dump_trace, dumps_trace, load_trace, loads_trace
from repro.trace.io import read_trace, save_trace, sniff_format, trace_format
from repro.trace.metrics import TraceMetrics, compute_metrics
from repro.trace.generators import (
    GENERATOR_REGISTRY,
    build_trace,
    c11_trace,
    deadlock_trace,
    get_generator,
    history_trace,
    memory_trace,
    racy_trace,
    random_cross_edges,
    register_generator,
    tso_trace,
)
from repro.trace.trace import CriticalSection, Trace

__all__ = [
    "ACCESS_KINDS",
    "CriticalSection",
    "Event",
    "EventKind",
    "GENERATOR_REGISTRY",
    "KIND_BY_CODE",
    "KIND_CODES",
    "MemoryOrder",
    "READ_KINDS",
    "STC_MAGIC",
    "STC_VERSION",
    "Trace",
    "TraceColumns",
    "TraceMetrics",
    "WRITE_KINDS",
    "build_trace",
    "c11_trace",
    "compute_metrics",
    "deadlock_trace",
    "decode_trace",
    "dump_trace",
    "dumps_trace",
    "encode_trace",
    "get_generator",
    "history_trace",
    "load_trace",
    "loads_trace",
    "memory_trace",
    "racy_trace",
    "random_cross_edges",
    "read_trace",
    "read_trace_stc",
    "register_generator",
    "save_trace",
    "sniff_format",
    "tso_trace",
    "trace_format",
    "write_trace_stc",
]
