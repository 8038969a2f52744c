"""Benchmark harness: the paper's tables and figures
(``python -m repro.bench``: Tables 1-7 run as sweep suites, Figure 10 from
their records, Figure 11's kernel protocol) and the perf-regression suite
(:mod:`repro.bench.perf`, ``repro bench perf``)."""

from repro.bench.perf import (
    BACKEND_LABELS,
    DEFAULT_THRESHOLD,
    Figure11Result,
    PerfCase,
    ScalabilityPoint,
    build_baseline,
    compare_documents,
    fig11_protocol,
    run_figure11,
    run_perf,
)
from repro.bench.tables import TABLE_SUITES, format_figure10

__all__ = [
    "BACKEND_LABELS",
    "DEFAULT_THRESHOLD",
    "Figure11Result",
    "PerfCase",
    "ScalabilityPoint",
    "TABLE_SUITES",
    "build_baseline",
    "compare_documents",
    "fig11_protocol",
    "format_figure10",
    "run_figure11",
    "run_perf",
]
