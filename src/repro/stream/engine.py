"""The streaming analysis engine.

:class:`StreamEngine` feeds events one at a time into N concurrently
attached analyses.  The one state shared across all attachments is the
growing per-thread chains: a live :class:`~repro.trace.trace.Trace` whose
derived indexes catch up with the new events whenever an analysis reads
them.  Each attached analysis keeps its own partial order -- each
analysis's edge set is analysis-specific (saturation, atomics, deliberate
lock-order omission), so a shared order would change their answers.

Analyses consume the stream through the online protocol of
:class:`~repro.analyses.common.base.Analysis` (``begin``/``feed``/
``flush``).  Under an unbounded window, *streaming-native* analyses
(``streaming_native = True``) keep state across calls: the C11 detector
reports findings from ``feed`` the moment they are discovered, and the
saturation analyses (race-prediction, deadlock-prediction, memory-bugs,
use-after-free) keep their saturated order and extend it at each flush.
Batch-fallback analyses, and every analysis under a bounded window, are
re-evaluated at every flush point (window boundaries, ``flush_every``
marks, end of stream) over the events currently buffered.  The engine
deduplicates, so every finding is **emitted exactly once**, the first time
some flush discovers it.  (Under *overlapping bounded windows*, findings
that embed bare node tuples instead of events -- see :func:`finding_key`
-- can evade the dedup and repeat.)

Exactness contract (unbounded window): every flush gives, for every
analysis, the findings and verdicts of a batch ``Analysis.run()`` over
the events consumed so far, native or not.  The final flush sees the
whole trace, so the findings of ``StreamResult.results`` are identical to
batch -- streaming changes *when* findings surface, never the answer.  A
native analysis's insert, query and edge counts (``insert_count``,
``query_count``, ``sync_edges``, ``saturation_edges``) report the work
done incrementally on the order it kept, not a batch run's.  The emission
log (``StreamResult.findings``) has *alarm* semantics: each entry was a
true finding of the trace consumed up to its position.  For monotone
analyses (e.g. the C11 detector) alarms and final findings coincide
exactly; predictive analyses are non-monotone -- a reordering witness
valid for a prefix can be invalidated by later events -- so a mid-stream
alarm is occasionally absent from the final set.  Bounded windows
(tumbling/sliding) additionally trade completeness for bounded memory:
each flush only sees the buffered window (re-indexed to a fresh trace),
so findings whose evidence spans evicted events are missed by
construction.
"""

from __future__ import annotations

import dataclasses
import enum
import weakref
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analyses.common.base import Analysis, AnalysisResult
from repro.core.factory import AUTO_BACKEND
from repro.errors import CheckpointError, ReproError, StreamError
from repro.obs import metrics as obs_metrics
from repro.trace.event import Event
from repro.trace.trace import Trace
from repro.stream.window import UnboundedWindow, Window


# --------------------------------------------------------------------------- #
# Finding identity
# --------------------------------------------------------------------------- #
def finding_key(finding: Any, base: Optional[Dict[int, int]] = None) -> str:
    """A stable, JSON-safe identity string for an analysis finding.

    Findings are frozen dataclasses embedding :class:`Event` objects; the
    key walks that structure generically.  ``base`` maps a thread id to
    the index offset of a re-based window snapshot, so the same
    Event-bearing finding keys identically whether it was discovered from
    the full trace or from a window whose events were re-indexed.

    Known limitation: only :class:`Event` instances are rebased.  Findings
    that embed bare ``(thread, index)`` tuples (the TSO witness, the UAF
    constraint nodes) cannot be told apart from ordinary numeric tuples,
    so under *overlapping bounded windows* such a finding rediscovered in
    a later window keys differently and is emitted again.  Unbounded
    windows are unaffected (``base`` is empty, keys are exact), which is
    where the engine's exactly-once contract is stated.
    """
    offsets = base or {}

    def walk(value: Any):
        if isinstance(value, Event):
            index = value.index + offsets.get(value.thread, 0)
            return ("E", value.thread, index, value.kind.value)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return (type(value).__name__,) + tuple(
                walk(getattr(value, f.name))
                for f in dataclasses.fields(value))
        if isinstance(value, (tuple, list)):
            return tuple(walk(item) for item in value)
        if isinstance(value, (set, frozenset)):
            return tuple(sorted(repr(walk(item)) for item in value))
        if isinstance(value, enum.Enum):
            return value.value
        return repr(value)

    return repr(walk(finding))


# --------------------------------------------------------------------------- #
# Result containers
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class StreamFinding:
    """One finding, stamped with the stream position that surfaced it."""

    analysis: str
    finding: Any
    position: int  #: 1-based count of events consumed when it was emitted

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.position}] {self.analysis}: {self.finding}"


@dataclass(frozen=True)
class StreamWarning:
    """A typed, non-fatal condition of a streaming run.

    ``category`` is a stable machine-readable tag (currently
    ``"backend-fallback"``: a requested backend was inapplicable to an
    analysis and the engine substituted its default -- previously a
    silent switch).  ``analysis`` names the affected attachment.
    """

    category: str
    analysis: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.category}] {self.analysis}: {self.message}"


@dataclass
class StreamStats:
    """Live counters of a streaming run."""

    events: int = 0
    threads: int = 0
    flushes: int = 0
    flush_errors: int = 0
    emitted: int = 0
    evicted: int = 0
    checkpoints: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class StreamResult:
    """Outcome of a streaming run (returned by :meth:`StreamEngine.run`)."""

    name: str
    findings: List[StreamFinding]
    results: Dict[str, AnalysisResult]
    stats: StreamStats
    #: Analyses whose *last* flush failed (e.g. the stream stopped in the
    #: middle of a pending operation), with the error message.  Their
    #: ``results`` entry is the last successful flush, if any.
    errors: Dict[str, str] = field(default_factory=dict)
    #: Typed non-fatal conditions (see :class:`StreamWarning`).
    warnings: List[StreamWarning] = field(default_factory=list)
    #: Concrete backend picked per analysis when the ``auto``
    #: pseudo-backend was requested (empty otherwise).
    backends_selected: Dict[str, str] = field(default_factory=dict)

    @property
    def finding_count(self) -> int:
        return len(self.findings)

    def findings_for(self, analysis: str) -> List[Any]:
        """Findings *emitted* (alarm stream) for one analysis, in emission
        order.  See the module docstring: for non-monotone predictive
        analyses this can be a superset of :meth:`final_findings_for`."""
        return [item.finding for item in self.findings
                if item.analysis == analysis]

    def final_findings_for(self, analysis: str) -> List[Any]:
        """The authoritative findings of the final flush for one analysis
        (batch-identical under an unbounded window)."""
        result = self.results.get(analysis)
        return list(result.findings) if result is not None else []

    def summary(self) -> str:
        per_analysis = ", ".join(
            f"{name}: {result.finding_count}"
            for name, result in sorted(self.results.items()))
        return (f"stream[{self.name}]: {self.stats.events} events, "
                f"{self.stats.flushes} flushes, {self.finding_count} findings "
                f"({per_analysis})")


class StreamView:
    """What an attached analysis sees of the stream: a name and a snapshot
    of the currently buffered events (memoised per flush point).

    The view holds its engine through a weak reference: the engine holds
    the view (and every attached analysis holds it too), so a strong one
    would make a cycle that only the cyclic garbage collector frees.  A
    view outliving its engine raises :class:`StreamError`.
    """

    def __init__(self, engine: "StreamEngine") -> None:
        self._engine_ref = weakref.ref(engine)

    @property
    def _engine(self) -> "StreamEngine":
        engine = self._engine_ref()
        if engine is None:
            raise StreamError("the stream engine of this view is gone")
        return engine

    @property
    def name(self) -> str:
        return self._engine.name

    @property
    def position(self) -> int:
        """Events consumed so far."""
        return self._engine.cursor

    def snapshot(self) -> Trace:
        """The buffered events as a trace (re-indexed if windowed)."""
        return self._engine.snapshot()[0]


@dataclass
class _Attachment:
    """One analysis attached to the stream."""

    analysis: Analysis
    name: str
    native: bool
    emitted: set = field(default_factory=set)
    # A native analysis rediscovers its findings at every flush: each one
    # is keyed once (finding -> finding_key), not walked again.
    keys: dict = field(default_factory=dict)
    last_result: Optional[AnalysisResult] = None
    last_error: Optional[str] = None
    # Telemetry instruments, bound once at engine construction when a
    # metrics registry is active (None otherwise -- the disabled path
    # never touches them).
    m_feed: Any = None
    m_flush: Any = None
    m_findings: Any = None


def _native_key(attachment: _Attachment, finding: Any) -> str:
    """``finding_key(finding)``, kept per native attachment; a finding
    that cannot be hashed is walked every time."""
    keys = attachment.keys
    try:
        key = keys.get(finding)
    except TypeError:
        return finding_key(finding)
    if key is None:
        key = keys[finding] = finding_key(finding)
    return key


# --------------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------------- #
class StreamEngine:
    """Online analysis over an event stream (see module docstring).

    Parameters
    ----------
    analyses:
        Analysis names (registry keys) or instances to attach.  Instances
        must use *named* backend specs so flushes can rebuild fresh orders.
    backend:
        Backend name forced on analyses constructed from names (default:
        each analysis's own default backend).  The ``auto`` pseudo-backend
        is resolved by the ``auto`` rule (:mod:`repro.tune`) when each
        analysis is attached; the picks are reported in
        ``StreamResult.backends_selected``.
    window:
        A :class:`~repro.stream.window.Window` policy (default unbounded).
    on_finding:
        Callback invoked with each :class:`StreamFinding` as it is emitted.
    """

    def __init__(self, analyses: Sequence[Union[str, Analysis]],
                 *, backend: Optional[str] = None,
                 window: Optional[Window] = None,
                 name: str = "stream",
                 on_finding: Optional[Callable[[StreamFinding], None]] = None,
                 ) -> None:
        if not analyses:
            raise StreamError("StreamEngine needs at least one analysis")
        if backend is not None and backend != AUTO_BACKEND:
            from repro.core import BACKENDS

            if backend not in BACKENDS:
                known = ", ".join(sorted(BACKENDS))
                raise StreamError(
                    f"unknown partial-order backend {backend!r}; "
                    f"known: {known}")
        self.name = name
        self.backend_option = backend
        self.warnings: List[StreamWarning] = []
        self.backends_selected: Dict[str, str] = {}
        self.window = window if window is not None else UnboundedWindow()
        self.on_finding = on_finding
        self.stats = StreamStats()
        self._findings: List[StreamFinding] = []
        self._cursor = 0
        self._next_index: Dict[int, int] = {}
        self._evicted_per_thread: Dict[int, int] = {}
        self._buffer: List[Event] = []
        self._live_trace: Optional[Trace] = (
            None if self.window.bounded else Trace(name=name))
        self._snapshot_cache: Optional[Tuple[int, Trace, Dict[int, int]]] = None
        self._last_flush_cursor: Optional[int] = None
        self._finished = False
        #: Set by :meth:`from_state` until the engine has been fed the
        #: history its checkpoint covers again: the checkpoint's cursor and
        #: the per-thread ``next_index``/``evicted`` counts to check.
        self._restore: Optional[Tuple[int, Dict[int, int],
                                      Dict[int, int]]] = None

        # Attach analyses.
        self._view = StreamView(self)
        self._attachments: List[_Attachment] = []
        for spec in analyses:
            analysis = self._build_analysis(spec)
            native = bool(analysis.streaming_native) and not self.window.bounded
            analysis.begin(self._view)
            self._attachments.append(_Attachment(
                analysis=analysis, name=analysis.name, native=native))
            if analysis._resolved_backend is not None:
                self.backends_selected[analysis.name] = \
                    analysis._resolved_backend
        names = [attachment.name for attachment in self._attachments]
        if len(set(names)) != len(names):
            raise StreamError(f"duplicate analyses attached: {names}")

        # Telemetry: bind instruments once against the registry active at
        # construction time.  ``self._metrics is None`` is the entire
        # disabled-mode cost on the per-event path.
        self._metrics = obs_metrics.ACTIVE
        self._m_events = self._m_flushes = self._m_flush_errors = None
        self._m_evicted = self._m_buffered = None
        if self._metrics is not None:
            registry = self._metrics
            self._m_events = registry.counter("stream_events_total")
            self._m_flushes = registry.counter("stream_flushes_total")
            self._m_flush_errors = registry.counter(
                "stream_flush_errors_total")
            self._m_evicted = registry.counter("stream_evicted_total")
            self._m_buffered = registry.gauge("stream_buffered_events")
            for attachment in self._attachments:
                if attachment.native:
                    attachment.m_feed = registry.histogram(
                        "stream_feed_seconds", analysis=attachment.name)
                attachment.m_flush = registry.histogram(
                    "stream_flush_seconds", analysis=attachment.name)
                attachment.m_findings = registry.counter(
                    "stream_findings_total", analysis=attachment.name)

    def _build_analysis(self, spec: Union[str, Analysis]) -> Analysis:
        if isinstance(spec, Analysis):
            if not isinstance(spec._backend_spec, str):
                raise StreamError(
                    f"analysis {spec.name!r}: streaming requires a named "
                    "backend spec (flushes rebuild fresh backend instances)")
            return spec
        cls = Analysis.by_name(spec)
        backend = self.backend_option or cls.default_backend()
        if backend == AUTO_BACKEND:
            return cls(AUTO_BACKEND)
        if backend not in cls.applicable_backends():
            fallback = cls.default_backend()
            self.warnings.append(StreamWarning(
                category="backend-fallback", analysis=cls.name,
                message=f"requested backend {backend!r} is not applicable "
                        f"to analysis {cls.name!r}; using its default "
                        f"{fallback!r} instead"))
            backend = fallback
        return cls(backend)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def cursor(self) -> int:
        """Total events consumed from the source so far (a restored engine
        reports its checkpoint's cursor while it rebuilds)."""
        return self._cursor if self._restore is None else self._restore[0]

    @property
    def restoring(self) -> bool:
        """Whether this engine, restored from a checkpoint, still awaits
        events of the history the checkpoint covers (see
        :meth:`from_state`)."""
        return self._restore is not None

    @property
    def analyses(self) -> List[str]:
        return [attachment.name for attachment in self._attachments]

    @property
    def metrics(self) -> Optional["obs_metrics.MetricsRegistry"]:
        """The metrics registry this engine reports into (bound at
        construction; ``None`` when telemetry was disabled then)."""
        return self._metrics

    @property
    def buffered_events(self) -> int:
        """Events currently retained (window buffer, or the whole history
        under an unbounded window)."""
        if self._live_trace is not None:
            return len(self._live_trace)
        return len(self._buffer)

    @property
    def findings(self) -> List[StreamFinding]:
        return list(self._findings)

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def feed(self, event: Event) -> None:
        """Consume one event: index it, give it to every native analysis,
        and flush/evict at window boundaries (a restored engine rebuilding
        its history only evicts; see :meth:`from_state`)."""
        if self._finished:
            raise StreamError("stream already finished")
        self._cursor += 1
        self._ingest(event)
        if self._restore is not None:
            if self.window.boundary(self._cursor):
                self._evict()
            if self._cursor == self._restore[0]:
                self._end_restore()
            return
        self.stats.events = self._cursor
        self.stats.threads = len(self._next_index)
        if self._metrics is not None:
            self._m_events.inc()
            self._m_buffered.set(self.buffered_events)
        if self.window.boundary(self._cursor):
            self.flush()
            evicted = self._evict()
            self.stats.evicted += evicted
            if self._m_evicted is not None and evicted:
                self._m_evicted.inc(evicted)

    def _end_restore(self) -> None:
        """Check a restored engine's rebuilt counts against its checkpoint
        once it has been fed the checkpoint's cursor of events."""
        cursor, next_index, evicted = self._restore
        self._restore = None
        if self._next_index != next_index \
                or self._evicted_per_thread != evicted:
            raise CheckpointError(
                f"the first {cursor} events fed do not rebuild the "
                f"checkpointed stream: per-thread counts "
                f"{self._next_index} (evicted {self._evicted_per_thread}), "
                f"checkpoint {next_index} (evicted {evicted})")

    def _ingest(self, event: Event) -> None:
        """Per-event bookkeeping shared by live events and the rebuild of a
        restored engine."""
        expected = self._next_index.get(event.thread, 0)
        if event.index != expected:
            raise StreamError(
                f"out-of-order stream: event {event} has index "
                f"{event.index}, expected {expected} for thread "
                f"{event.thread}")
        self._next_index[event.thread] = expected + 1
        # Exactly one retained copy: the live trace under an unbounded
        # window (it never evicts), the window buffer under a bounded one.
        if self._live_trace is not None:
            self._live_trace.add(event)
        else:
            self._buffer.append(event)
            self._snapshot_cache = None
        for attachment in self._attachments:
            if attachment.native:
                if attachment.m_feed is not None:
                    with attachment.m_feed.time():
                        found = list(attachment.analysis.feed(event))
                else:
                    found = attachment.analysis.feed(event)
                for finding in found:
                    key = _native_key(attachment, finding)
                    # The dedup check matters when a restored engine
                    # rebuilds: re-feeding its history rediscovers findings
                    # whose keys were restored, and those must not re-emit.
                    if key not in attachment.emitted:
                        self._emit(attachment, finding, key)

    # ------------------------------------------------------------------ #
    # Windowing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Tuple[Trace, Dict[int, int]]:
        """The buffered events as a trace, plus per-thread index offsets.

        Unbounded windows return the live trace itself (zero copy, offsets
        empty); bounded windows materialize a fresh trace whose per-thread
        indexes are re-based to 0, with ``offsets[thread]`` recording how
        much was subtracted.
        """
        if self._live_trace is not None:
            return self._live_trace, {}
        cache = self._snapshot_cache
        if cache is not None and cache[0] == self._cursor:
            return cache[1], cache[2]
        offsets = {thread: count
                   for thread, count in self._evicted_per_thread.items()
                   if count}
        trace = Trace(name=f"{self.name}@{self._cursor}")
        for event in self._buffer:
            shift = offsets.get(event.thread, 0)
            trace.add(dataclasses.replace(event, index=event.index - shift)
                      if shift else event)
        self._snapshot_cache = (self._cursor, trace, offsets)
        return trace, offsets

    def _evict(self) -> int:
        """Drop what the window no longer retains; returns how many."""
        retain = self.window.retain()
        if retain is None or len(self._buffer) <= retain:
            return 0
        cut = len(self._buffer) - retain
        for event in self._buffer[:cut]:
            self._evicted_per_thread[event.thread] = (
                self._evicted_per_thread.get(event.thread, 0) + 1)
        del self._buffer[:cut]
        self._snapshot_cache = None
        return cut

    # ------------------------------------------------------------------ #
    # Flushing / emission
    # ------------------------------------------------------------------ #
    def flush(self) -> Dict[str, AnalysisResult]:
        """Flush every attachment over the current window contents.

        Native analyses report or extend the state they keep; batch
        fallbacks re-run over the snapshot.  Findings not yet emitted are
        emitted now.  Returns the per-analysis results of this flush.

        A flush can legitimately fail for an individual analysis when the
        stream stopped mid-state -- e.g. a linearizability history whose
        operations are still pending -- so per-analysis errors are recorded
        (``stats.flush_errors``, ``StreamResult.errors``) rather than
        killing the monitor: the next flush simply re-evaluates.

        With telemetry on, each flush runs under a ``stream_flush`` span
        with one ``flush_analysis`` child per attachment (error-status for
        failed ones), so a watch session renders as a real timeline.
        """
        if self._metrics is not None:
            with self._metrics.span("stream_flush"):
                return self._flush_attachments()
        return self._flush_attachments()

    def _flush_attachments(self) -> Dict[str, AnalysisResult]:
        self.stats.flushes += 1
        if self._m_flushes is not None:
            self._m_flushes.inc()
        self._last_flush_cursor = self._cursor
        results: Dict[str, AnalysisResult] = {}
        offsets: Dict[int, int] = {}
        for attachment in self._attachments:
            try:
                with ExitStack() as telemetry:
                    if self._metrics is not None:
                        telemetry.enter_context(attachment.m_flush.time())
                        telemetry.enter_context(self._metrics.span(
                            "flush_analysis", analysis=attachment.name))
                    if attachment.native:
                        result = attachment.analysis.flush()
                    else:
                        snapshot, offsets = self.snapshot()
                        result = attachment.analysis.run(snapshot)
            except ReproError as error:
                attachment.last_error = str(error)
                self.stats.flush_errors += 1
                if self._m_flush_errors is not None:
                    self._m_flush_errors.inc()
                continue
            attachment.last_error = None
            for finding in result.findings:
                key = _native_key(attachment, finding) if attachment.native \
                    else finding_key(finding, offsets)
                if key not in attachment.emitted:
                    self._emit(attachment, finding, key)
            attachment.last_result = result
            results[attachment.name] = result
        return results

    def _emit(self, attachment: _Attachment, finding: Any, key: str) -> None:
        attachment.emitted.add(key)
        item = StreamFinding(analysis=attachment.name, finding=finding,
                             position=self._cursor)
        self._findings.append(item)
        self.stats.emitted += 1
        if attachment.m_findings is not None:
            attachment.m_findings.inc()
        if self.on_finding is not None:
            self.on_finding(item)

    def finish(self) -> StreamResult:
        """Final flush and result assembly.  Idempotent.

        The final flush is skipped when a window boundary already flushed
        at the current cursor -- flushing again would evaluate the
        post-eviction (possibly empty) buffer and overwrite the results of
        the complete window.  A restored engine whose feed ended before
        its checkpoint's cursor raises :class:`CheckpointError`.
        """
        if self._restore is not None:
            raise CheckpointError(
                f"the feed ended after {self._cursor} events, before the "
                f"{self._restore[0]} its checkpoint covers")
        if not self._finished:
            if self._last_flush_cursor != self._cursor:
                self.flush()
            self._finished = True
        return StreamResult(
            name=self.name,
            findings=list(self._findings),
            results={attachment.name: attachment.last_result
                     for attachment in self._attachments
                     if attachment.last_result is not None},
            stats=self.stats,
            errors={attachment.name: attachment.last_error
                    for attachment in self._attachments
                    if attachment.last_error is not None},
            warnings=list(self.warnings),
            backends_selected=dict(self.backends_selected),
        )

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #
    def run(self, source: Iterable[Event],
            *, max_events: Optional[int] = None,
            checkpoint_path: Optional[str] = None,
            checkpoint_every: Optional[int] = None) -> StreamResult:
        """Consume ``source`` to exhaustion (or ``max_events``) and finish.

        A restored engine is fed the source from its start: the events its
        checkpoint covers rebuild its state (see :meth:`from_state`) and
        count toward neither ``max_events`` nor ``checkpoint_every``.
        ``checkpoint_path`` + ``checkpoint_every`` save the engine state
        every that many events (and once more at the end).
        """
        from repro.stream.checkpoint import save_checkpoint

        consumed = 0
        for event in source:
            rebuilding = self._restore is not None
            self.feed(event)
            if rebuilding:
                continue
            consumed += 1
            if (checkpoint_path is not None and checkpoint_every
                    and consumed % checkpoint_every == 0):
                save_checkpoint(self, checkpoint_path)
            if max_events is not None and consumed >= max_events:
                break
        result = self.finish()
        if checkpoint_path is not None:
            save_checkpoint(self, checkpoint_path)
        return result

    # ------------------------------------------------------------------ #
    # Checkpoint support (state capture/restore; file I/O lives in
    # repro.stream.checkpoint)
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """Serializable engine state: what the stream decided (config,
        backend per attachment, cursor, per-thread counts, dedup keys and
        stats) -- never the events, which the feed holds."""
        from repro.stream.checkpoint import CHECKPOINT_VERSION

        if self._restore is not None:
            raise CheckpointError(
                f"cannot checkpoint an engine still rebuilding: it has been "
                f"fed {self._cursor} of the {self._restore[0]} events its "
                f"checkpoint covers")
        flush_every = getattr(self.window, "flush_every", None)
        return {
            "version": CHECKPOINT_VERSION,
            "name": self.name,
            "cursor": self._cursor,
            "window": self.window.spec(),
            "flush_every": flush_every,
            "backend": self.backend_option,
            "analyses": [
                {"name": attachment.name,
                 "backend": str(attachment.analysis._backend_spec)}
                for attachment in self._attachments],
            "next_index": {str(thread): count
                           for thread, count in self._next_index.items()},
            "evicted": {str(thread): count
                        for thread, count in self._evicted_per_thread.items()},
            "emitted": {attachment.name: sorted(attachment.emitted)
                        for attachment in self._attachments},
            "stats": self.stats.as_dict(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any],
                   *, on_finding: Optional[Callable[[StreamFinding], None]]
                   = None) -> "StreamEngine":
        """Rebuild an engine from :meth:`state_dict` output.

        The engine reports the checkpoint's cursor at once, and rebuilds
        its state -- the live trace or window buffer, and every native
        analysis's state -- from the first ``cursor`` events it is fed
        again, through the normal ingestion path plus eviction at window
        boundaries (no flush; the restored dedup keys suppress findings
        already reported).  It then checks the rebuilt per-thread counts
        against the checkpoint and raises :class:`CheckpointError` on a
        mismatch, as :meth:`finish` does when the feed ends before the
        cursor.  A version-1 checkpoint restores the same way (its
        ``buffer`` of events is ignored).

        Each analysis is rebuilt from its registry name and the *backend*
        recorded per attachment; a backend the analysis cannot run on
        (e.g. one since removed) raises :class:`CheckpointError`.  Extra
        constructor keyword arguments of a hand-built analysis instance
        are not captured by a checkpoint -- monitors that must survive
        restarts should attach analyses by name (as the ``watch`` CLI
        does).
        """
        from repro.stream.checkpoint import READABLE_VERSIONS
        from repro.stream.window import parse_window

        if state.get("version") not in READABLE_VERSIONS:
            raise CheckpointError(
                f"unsupported checkpoint version {state.get('version')!r}")
        window = parse_window(state["window"],
                              flush_every=state.get("flush_every"))
        analyses = []
        for item in state["analyses"]:
            analysis_cls = Analysis.by_name(item["name"])
            backend = item["backend"]
            applicable = analysis_cls.applicable_backends()
            if backend != AUTO_BACKEND and backend not in applicable:
                raise CheckpointError(
                    f"checkpoint attaches {item['name']!r} on backend "
                    f"{backend!r}, which it cannot run on; applicable: "
                    f"{', '.join(applicable)}")
            analyses.append(analysis_cls(backend))
        engine = cls(
            analyses=analyses,
            backend=state.get("backend"),
            window=window,
            name=state.get("name", "stream"),
            on_finding=on_finding,
        )
        for attachment in engine._attachments:
            attachment.emitted = set(
                state.get("emitted", {}).get(attachment.name, ()))
        next_index = {int(thread): count
                      for thread, count in state.get("next_index", {}).items()}
        engine._restore = (
            state["cursor"], next_index,
            {int(thread): count
             for thread, count in state.get("evicted", {}).items()})
        stats = state.get("stats", {})
        engine.stats.events = state["cursor"]
        engine.stats.threads = len(next_index)
        engine.stats.flushes = stats.get("flushes", 0)
        engine.stats.flush_errors = stats.get("flush_errors", 0)
        engine.stats.evicted = stats.get("evicted", 0)
        engine.stats.checkpoints = stats.get("checkpoints", 0)
        # Findings emitted before the checkpoint are represented by their
        # dedup keys; the emitted counter reflects the full history.
        engine.stats.emitted = stats.get("emitted", 0)
        if not state["cursor"]:
            engine._end_restore()
        return engine
