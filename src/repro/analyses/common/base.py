"""Shared scaffolding for the dynamic analyses.

Every analysis follows the same shape: it consumes a :class:`~repro.trace.Trace`,
maintains a partial order over the trace's events through the generic
:class:`~repro.core.PartialOrder` interface, and produces a report.  This
module provides the pieces they all share: backend construction, operation
counting, and the result container.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Type, Union

from repro.core import (
    AUTO_BACKEND,
    InstrumentedOrder,
    PartialOrder,
    dynamic_backends,
    incremental_backends,
    make_partial_order,
)
from repro.core.factory import backend_options
from repro.errors import AnalysisError
from repro.obs import metrics as obs_metrics
from repro.trace.trace import Trace

#: Either a backend name understood by :func:`repro.core.make_partial_order`
#: or an already constructed backend instance.
BackendSpec = Union[str, PartialOrder]


@dataclass
class AnalysisResult:
    """Outcome of running a dynamic analysis over one trace.

    Attributes
    ----------
    analysis:
        Short name of the analysis (e.g. ``"race-prediction"``).
    trace_name / trace_events / trace_threads:
        Identification of the analysed trace.
    backend:
        Name of the partial-order backend used.
    findings:
        Analysis-specific findings (races, deadlocks, violations, ...).
    elapsed_seconds:
        Wall-clock time of the analysis.
    insert_count / delete_count / query_count:
        Number of partial-order operations issued.
    details:
        Free-form additional data (per-analysis metrics).
    """

    analysis: str
    trace_name: str
    trace_events: int
    trace_threads: int
    backend: str
    findings: List[Any] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    insert_count: int = 0
    delete_count: int = 0
    query_count: int = 0
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def finding_count(self) -> int:
        """Number of findings reported by the analysis."""
        return len(self.findings)

    @property
    def operation_count(self) -> int:
        """Total number of partial-order operations issued."""
        return self.insert_count + self.delete_count + self.query_count

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.analysis}[{self.backend}] on {self.trace_name}: "
            f"{self.finding_count} findings, {self.operation_count} PO ops, "
            f"{self.elapsed_seconds:.3f}s"
        )


#: Analyses registered by short name (populated by ``Analysis`` subclasses).
_ANALYSIS_REGISTRY: Dict[str, Type["Analysis"]] = {}


class Analysis:
    """Base class for the dynamic analyses.

    Subclasses implement :meth:`_run` and set :attr:`name` and
    :attr:`requires_deletion`.  Every concrete subclass that declares its own
    :attr:`name` is automatically registered, so front ends (the CLI, the
    sweep runner) can construct analyses from a plain string -- which also
    keeps sweep jobs pickle-safe: worker processes ship the *name* across the
    process boundary and rebuild the analysis locally instead of pickling an
    instance holding a live backend.
    """

    #: Short identifier used in results and reports.
    name: str = "analysis"

    #: Whether the analysis needs decremental updates (only the
    #: linearizability root-causing analysis does).
    requires_deletion: bool = False

    #: Whether the analysis keeps state across the online protocol's
    #: calls, so the stream engine drives it through :meth:`feed` and
    #: :meth:`flush` under an unbounded window.  c11-races reports each
    #: finding from :meth:`feed`; the saturation analyses
    #: (:class:`~repro.analyses.common.saturation.SaturationAnalysis`)
    #: keep their saturated order and extend it at each :meth:`flush`.
    #: Either way every flush's findings equal a batch :meth:`run` over the
    #: events streamed so far.  Analyses that leave this ``False`` still
    #: work on a stream through the micro-batch fallback: :meth:`flush`
    #: re-runs the batch analysis over the events buffered so far, with
    #: the same findings at the cost of recomputation.  Bounded windows
    #: always use the fallback.
    streaming_native: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        name = cls.__dict__.get("name")
        if name and cls.__module__.partition(".")[0] == "repro":
            _ANALYSIS_REGISTRY[name] = cls

    # ------------------------------------------------------------------ #
    # Registry
    # ------------------------------------------------------------------ #
    @staticmethod
    def register(cls: Type["Analysis"]) -> Type["Analysis"]:
        """Explicitly register an analysis class defined outside ``repro``.

        Library analyses register automatically via ``__init_subclass__``;
        external extensions opt in through this hook (usable as a class
        decorator) so that ad-hoc subclasses in tests or scripts do not
        silently join the CLI's analysis list.
        """
        if not getattr(cls, "name", None):
            raise AnalysisError("analysis class needs a non-empty 'name'")
        _ANALYSIS_REGISTRY[cls.name] = cls
        return cls

    @staticmethod
    def registered() -> Dict[str, Type["Analysis"]]:
        """Snapshot of the analysis registry (name -> class)."""
        import repro.analyses  # noqa: F401  (imports every subclass)

        return dict(_ANALYSIS_REGISTRY)

    @staticmethod
    def by_name(name: str) -> Type["Analysis"]:
        """Look up a registered analysis class by its short name."""
        registry = Analysis.registered()
        try:
            return registry[name]
        except KeyError:
            known = ", ".join(sorted(registry))
            raise AnalysisError(f"unknown analysis {name!r}; known: {known}") from None

    @classmethod
    def default_backend(cls) -> str:
        """The backend this analysis runs on when none is requested, and
        the ``auto`` pick (:func:`repro.tune.choose_backend`).

        Each built-in analysis's default is the pick of the measured
        crossover table, ``docs/tables/crossover.json``
        (``tests/tune/test_crossover_table.py`` holds the two equal).
        """
        return "csst" if cls.requires_deletion else "incremental-csst"

    @classmethod
    def applicable_backends(cls) -> Sequence[str]:
        """Backend names able to serve this analysis's operation mix.

        Resolved through the live factory accessors (not the frozen
        built-in tuples) so backends registered at runtime -- e.g. through
        :meth:`repro.api.Registry.register_backend` -- join every
        analysis's backend set at once.
        """
        return (dynamic_backends() if cls.requires_deletion
                else incremental_backends())

    def __init__(self, backend: Optional[BackendSpec] = None,
                 **backend_kwargs) -> None:
        if backend is None:
            backend = type(self).default_backend()
        #: The backend the ``auto`` pseudo-backend resolved to (``None``
        #: when a backend was named).  The ``auto`` rule reads no trace,
        #: so it resolves here, once, and :meth:`run` records the pick.
        self._resolved_backend: Optional[str] = None
        if isinstance(backend, str) and backend == AUTO_BACKEND:
            from repro import tune

            backend = self._resolved_backend = tune.choose_backend(
                type(self))
        if backend_kwargs and isinstance(backend, str):
            accepted = backend_options(backend)
            unknown = ([] if accepted is None
                       else sorted(set(backend_kwargs) - accepted))
            if unknown:
                raise AnalysisError(
                    f"analysis {self.name!r}: backend {backend!r} does not "
                    f"accept {', '.join(map(repr, unknown))} (accepted: "
                    f"{', '.join(sorted(accepted)) or 'none'})")
        self._backend_spec = backend
        self._backend_kwargs = backend_kwargs
        self._stream_view = None

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def run(self, trace: Trace,
            order: Optional[InstrumentedOrder] = None) -> AnalysisResult:
        """Run the analysis over ``trace`` and return its result.

        ``order`` is the partial order to work on, by default a fresh one
        of the analysis's backend.  A streaming-native flush passes the
        order it keeps across flushes: the result's operation counts are
        then the order's since it was built, while the ``po_ops_total``
        metric counts only the operations this run issued.
        """
        if order is None:
            order = self._make_order(trace)
        issued_before = (order.insert_count, order.delete_count,
                         order.query_count)
        result = AnalysisResult(
            analysis=self.name,
            trace_name=trace.name,
            trace_events=len(trace),
            trace_threads=trace.num_threads,
            backend=self._backend_name(),
        )
        if self._resolved_backend is not None:
            result.details["backend_selected"] = self._resolved_backend
        start = time.perf_counter()
        self._run(trace, order, result)
        result.elapsed_seconds = time.perf_counter() - start
        result.insert_count = order.insert_count
        result.delete_count = order.delete_count
        result.query_count = order.query_count
        registry = obs_metrics.ACTIVE
        if registry is not None:
            registry.histogram("analysis_run_seconds", analysis=self.name,
                               backend=result.backend) \
                .observe(result.elapsed_seconds)
            registry.counter("analysis_findings_total", analysis=self.name) \
                .inc(result.finding_count)
            for op, count, before in zip(
                    ("insert", "delete", "query"),
                    (result.insert_count, result.delete_count,
                     result.query_count), issued_before):
                if count > before:
                    registry.counter("po_ops_total", op=op,
                                     analysis=self.name).inc(count - before)
        return result

    # ------------------------------------------------------------------ #
    # Online (streaming) protocol
    # ------------------------------------------------------------------ #
    # The streaming engine drives every analysis through three calls:
    # ``begin(view)`` once at attach time, ``feed(event)`` per event, and
    # ``flush()`` whenever complete results are needed (window boundaries
    # and end of stream).  The default implementation is the *batch
    # fallback*: ``feed`` does nothing (the view buffers the events) and
    # ``flush`` re-runs the batch analysis over the current snapshot, so
    # every existing analysis works on a stream unchanged.  Analyses that
    # can compute incrementally override ``feed``, ``flush`` or both, and
    # set ``streaming_native = True``.

    def begin(self, view) -> None:
        """Attach to a growing trace.

        ``view`` is either a live :class:`~repro.trace.trace.Trace` or any
        object with a ``snapshot() -> Trace`` method (the streaming engine
        passes its window view).  Must be called before :meth:`feed` /
        :meth:`flush`.
        """
        self._stream_view = view

    def feed(self, event) -> Sequence[Any]:
        """Consume one event appended to the stream.

        Returns the findings newly discovered by this event (always empty
        for the batch fallback, which only produces findings at flush
        time).
        """
        return ()

    def flush(self) -> AnalysisResult:
        """Produce the complete result over the events streamed so far.

        May be called repeatedly (the engine flushes at every window
        boundary); each call covers everything currently in the view.
        """
        return self.run(self._stream_trace())

    def _stream_trace(self) -> Trace:
        """The events streamed so far, as a trace (see :meth:`begin`)."""
        view = getattr(self, "_stream_view", None)
        if view is None:
            raise AnalysisError(
                f"analysis {self.name!r}: flush() called before begin()")
        return view.snapshot() if hasattr(view, "snapshot") else view

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _run(self, trace: Trace, order: InstrumentedOrder,
             result: AnalysisResult) -> None:
        raise NotImplementedError

    def _num_chains(self, trace: Trace) -> int:
        """Number of chains the partial order needs (default: one per thread).

        Thread ids are used as chain ids directly, so the count is sized by
        the *largest* id, not the number of distinct threads -- a trace with
        a sparse thread-id set (e.g. a stream window in which some thread
        was silent, or an externally recorded trace numbering threads with
        gaps) must still map every event to a valid chain.  Known
        limitation: backends that allocate per chain (vector clocks
        especially) pay O(max id) for sparse id sets, so traces recorded
        with raw OS tids should be renumbered densely at recording time; a
        dense id remapping layer inside the analyses would lift this.

        Analyses that need more chains (e.g. the TSO checker uses two per
        thread: program order plus store buffer) override this hook.
        """
        threads = trace.threads
        return max(threads[-1] + 1, 1) if threads else 1

    # ------------------------------------------------------------------ #
    # Backend handling
    # ------------------------------------------------------------------ #
    def _make_order(self, trace: Trace) -> InstrumentedOrder:
        capacity = max(trace.max_thread_length, 1)
        if isinstance(self._backend_spec, PartialOrder):
            backend = self._backend_spec
        else:
            backend = make_partial_order(
                self._backend_spec,
                num_chains=self._num_chains(trace),
                capacity_hint=capacity,
                **self._backend_kwargs,
            )
        if self.requires_deletion and not backend.supports_deletion:
            raise AnalysisError(
                f"analysis {self.name!r} needs decremental updates, but backend "
                f"{type(backend).__name__} does not support deletion"
            )
        return InstrumentedOrder(backend)

    def _backend_name(self) -> str:
        if isinstance(self._backend_spec, PartialOrder):
            return type(self._backend_spec).__name__
        return str(self._backend_spec)
