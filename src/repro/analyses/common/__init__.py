"""Machinery shared by the dynamic analyses (backbone construction,
saturation, result containers)."""

from repro.analyses.common.base import Analysis, AnalysisResult, BackendSpec
from repro.analyses.common.hb import (
    Frontiers,
    build_sync_order,
    conflicting_pairs,
    events_between,
    insert_ordering,
    lock_graph,
)
from repro.analyses.common.saturation import (
    CycleDetected,
    SaturatedOrder,
    SaturationAnalysis,
    SaturationEngine,
    saturate_trace,
)

__all__ = [
    "Analysis",
    "AnalysisResult",
    "BackendSpec",
    "CycleDetected",
    "Frontiers",
    "SaturatedOrder",
    "SaturationAnalysis",
    "SaturationEngine",
    "build_sync_order",
    "conflicting_pairs",
    "events_between",
    "insert_ordering",
    "lock_graph",
    "saturate_trace",
]
