"""Machinery shared by the dynamic analyses (backbone construction,
saturation, result containers)."""

from repro.analyses.common.base import Analysis, AnalysisResult, BackendSpec
from repro.analyses.common.hb import (
    Frontiers,
    insert_ordering,
    lock_graph,
    sync_edges,
    variable_conflicts,
)
from repro.analyses.common.saturation import (
    CycleDetected,
    KeptCandidates,
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
    "KeptCandidates",
    "SaturatedOrder",
    "SaturationAnalysis",
    "SaturationEngine",
    "insert_ordering",
    "lock_graph",
    "saturate_trace",
    "sync_edges",
    "variable_conflicts",
]
