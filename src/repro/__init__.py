"""repro -- a reproduction of "CSSTs: A Dynamic Data Structure for Partial
Orders in Concurrent Execution Analysis" (ASPLOS 2024).

The top-level package re-exports the most commonly used classes so that the
quickstart reads naturally::

    from repro import IncrementalCSST

    order = IncrementalCSST(num_chains=4)
    order.insert_edge((0, 3), (2, 7))
    assert order.reachable((0, 1), (2, 9))

For whole workflows (analyses, sweeps, watching, fuzzing) use the typed
facade instead of the CLI::

    from repro import AnalyzeConfig, Session

    result = Session().run(AnalyzeConfig(analysis="race-prediction",
                                         trace="trace.std"))
    print(result.to_table())

Sub-packages
------------
``repro.api``
    Library-first facade: request configs, the unified registry, the
    ``Session`` runner, structured results (the CLI is a thin shim over
    this).
``repro.core``
    CSSTs, Sparse Segment Trees and the baseline partial-order backends.
``repro.trace``
    Concurrent-execution trace model, serialization and synthetic workload
    generators.
``repro.analyses``
    The seven dynamic analyses of the paper's evaluation, written against
    the generic partial-order interface.
``repro.bench``
    The paper's tables and figures (``python -m repro.bench``) and the
    perf-regression ledger (``python -m repro bench perf``).
``repro.runner``
    Sweep runner: named trace suites, the paper's tables among them,
    fanned out over parallel worker processes (``python -m repro sweep``).
``repro.stream``
    Streaming engine: online event ingestion, windowed incremental
    analyses, checkpoint/restore (``python -m repro watch``).
``repro.serve``
    Multi-tenant sharded streaming service: many feeds across worker
    processes with quotas, backpressure, and crash recovery
    (``python -m repro serve``).
"""

from repro._version import __version__
from repro.api import (
    AnalyzeConfig,
    BenchConfig,
    CompareConfig,
    FuzzConfig,
    GenConfig,
    GenerateConfig,
    Registry,
    ServeConfig,
    Session,
    SweepConfig,
    WatchConfig,
)
from repro.core import (
    CSST,
    GraphOrder,
    IncrementalCSST,
    PartialOrder,
    SegmentTree,
    SegmentTreeOrder,
    SparseSegmentTree,
    VectorClockOrder,
    make_partial_order,
)
from repro.errors import (
    AnalysisError,
    BenchmarkError,
    CheckpointError,
    ConfigError,
    InvalidEdgeError,
    InvalidNodeError,
    ReproError,
    StreamError,
    TraceError,
    UnsupportedOperationError,
)

__all__ = [
    "AnalysisError",
    "AnalyzeConfig",
    "BenchConfig",
    "BenchmarkError",
    "CSST",
    "CheckpointError",
    "CompareConfig",
    "ConfigError",
    "FuzzConfig",
    "GenConfig",
    "GenerateConfig",
    "GraphOrder",
    "IncrementalCSST",
    "InvalidEdgeError",
    "InvalidNodeError",
    "PartialOrder",
    "Registry",
    "ReproError",
    "SegmentTree",
    "SegmentTreeOrder",
    "ServeConfig",
    "Session",
    "SparseSegmentTree",
    "StreamError",
    "SweepConfig",
    "TraceError",
    "UnsupportedOperationError",
    "VectorClockOrder",
    "WatchConfig",
    "__version__",
    "make_partial_order",
]
