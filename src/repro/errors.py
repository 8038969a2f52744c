"""Exception hierarchy and exit-code policy for the repro library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class when they do not care about the precise
failure mode.

This module is also the single source of truth for the process exit codes
of every front end (the CLI, the ``api-smoke`` scripts, CI jobs):

=====================  =====  ==================================================
Constant               Value  Meaning
=====================  =====  ==================================================
:data:`EXIT_OK`        0      The run completed cleanly.
:data:`EXIT_FAILURE`   1      The run completed, but reported failures the
                              caller must look at (sweep job errors, fuzz
                              divergences, perf regressions, a failed final
                              stream flush).
:data:`EXIT_ERROR`     2      The request itself was bad or could not be
                              served: every :class:`ReproError` subclass
                              (including :class:`ConfigError`) and ``OSError``.
:data:`EXIT_INTERRUPT` 130    The run was interrupted (SIGINT convention).
=====================  =====  ==================================================

Front ends map exceptions through :func:`exit_code_for` instead of choosing
codes ad hoc, so the table above is a stable contract for external tooling.
"""

from __future__ import annotations

#: Exit code of a clean run.
EXIT_OK = 0
#: Exit code of a completed run that reported failures (divergences,
#: failed sweep jobs, perf regressions, a failed final stream flush).
EXIT_FAILURE = 1
#: Exit code for invalid requests and environment errors.
EXIT_ERROR = 2
#: Exit code for an interrupted run (128 + SIGINT).
EXIT_INTERRUPT = 130


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class UnsupportedOperationError(ReproError):
    """Raised when a partial-order backend does not support an operation.

    The canonical example is calling ``delete_edge`` on a Vector Clock or
    Segment Tree backend: the paper (Section 1) points out that these
    structures cannot handle decremental updates, and we surface that as an
    explicit error instead of silently corrupting the order.
    """


class InvalidEdgeError(ReproError):
    """Raised when an edge update violates the chain-DAG restrictions.

    Updates are only allowed across nodes in *different* chains (Section
    2.2 of the paper); intra-chain order is implicit program order.
    """


class InvalidNodeError(ReproError):
    """Raised when a node identifier is malformed or out of range."""


class TraceError(ReproError):
    """Raised when a trace is malformed (bad event, unbalanced locks, ...)."""


class TraceFormatError(TraceError):
    """Raised when a binary ``.stc`` trace is malformed: bad magic bytes,
    an unsupported format version, truncated or out-of-bounds sections,
    section lengths that disagree with the event count, or interned ids
    pointing outside the value pool.  Decoding never surfaces a raw
    ``struct.error`` / ``IndexError`` and never returns silently wrong
    data -- every integrity violation becomes this typed error."""


class AnalysisError(ReproError):
    """Raised when a dynamic analysis is mis-configured or fails internally."""


class BenchmarkError(ReproError):
    """Raised by the benchmark harness on invalid configuration."""


class GenerationError(ReproError):
    """Raised by the scenario-program generation subsystem (bad distribution
    spec, malformed scenario, corpus/manifest problems)."""


class FuzzError(GenerationError):
    """Raised by the differential fuzzer on invalid configuration."""


class StreamError(ReproError):
    """Raised by the streaming engine (bad source, out-of-order feed, ...)."""


class CheckpointError(StreamError):
    """Raised when a stream checkpoint cannot be saved or restored."""


class FeedCancelledError(StreamError):
    """Raised to producers blocked in :meth:`FeedSource.push`/``emit`` when
    the *consumer* side went away (the consuming iterator was closed or the
    feed was cancelled).  Without this, a producer blocked on backpressure
    against a dead consumer would deadlock forever -- worker shutdown in
    :mod:`repro.serve` relies on the typed unblock."""


class ServeError(ReproError):
    """Raised by the multi-tenant serving layer (:mod:`repro.serve`):
    malformed ingest lines, unknown tenants, supervisor/worker failures,
    quota violations surfaced as errors."""


class ProtocolError(ServeError):
    """Raised when an ingest line violates the serve line protocol
    (bad tenant id, malformed control line, event for an ended tenant)."""


class ConfigError(ReproError):
    """Raised by :mod:`repro.api` when a request config is invalid
    (unknown keys, out-of-range values, conflicting options)."""


class ObservabilityError(ReproError):
    """Raised by :mod:`repro.obs` (conflicting metric registrations,
    malformed snapshot files, unusable perf-trend inputs)."""


def exit_code_for(error: BaseException) -> int:
    """The stable exit code for ``error`` (see the module docstring).

    Any :class:`ReproError` subclass and ``OSError`` map to
    :data:`EXIT_ERROR`; ``KeyboardInterrupt`` maps to
    :data:`EXIT_INTERRUPT`.  Anything else is a genuine bug and is *not*
    mapped -- callers should let it propagate with its traceback.
    """
    if isinstance(error, KeyboardInterrupt):
        return EXIT_INTERRUPT
    if isinstance(error, (ReproError, OSError)):
        return EXIT_ERROR
    raise TypeError(f"no exit-code mapping for {type(error).__name__}")
