"""Event sources for the streaming engine.

A source is anything that yields :class:`~repro.trace.event.Event` objects
in observed (total) order, with per-thread indexes assigned consecutively
from 0 -- exactly the invariant :class:`~repro.trace.trace.Trace` enforces.
A restored monitor resumes by reading its source again from the start
(the first events rebuild its state, see :mod:`repro.stream.checkpoint`),
so a source that can be opened again -- a file, a manifest member, a
generator spec -- is all a resume needs.

Four concrete sources ship:

* :class:`IterableSource` -- wraps any iterable (or a replayable factory);
* :class:`TraceSource` / :class:`GeneratorSource` -- in-memory traces,
  either pre-built or regenerated deterministically from a registered
  workload kind;
* :class:`FileSource` -- an STD-format file (optionally ``.gz``), read
  incrementally; with ``follow=True`` it keeps polling for appended lines,
  ``tail -f`` style;
* :class:`FeedSource` -- a thread-safe push queue with *bounded buffering*:
  producers block (backpressure) when the consumer falls behind.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, Optional, Union

from repro.errors import FeedCancelledError, StreamError
from repro.trace.event import Event, EventKind
from repro.trace.formats import (LineDecoder, open_trace, parse_header,
                                 parse_trace_line)
from repro.trace.generators import GENERATOR_REGISTRY, build_trace
from repro.trace.trace import Trace


class EventSource:
    """Abstract event source (see module docstring)."""

    #: Human-readable stream name (used as the trace name in results).
    name: str = "stream"

    def events(self) -> Iterator[Event]:
        """Yield events in observed order."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[Event]:
        return self.events()


class IterableSource(EventSource):
    """Source over an in-memory iterable of events.

    Pass a zero-argument callable returning a fresh iterator to make the
    source *replayable* (iterable more than once); a plain
    iterable/iterator supports a single pass.
    """

    def __init__(self, events: Union[Iterable[Event], Callable[[], Iterable[Event]]],
                 name: str = "stream") -> None:
        self.name = name
        if callable(events):
            self._factory: Optional[Callable[[], Iterable[Event]]] = events
            self._iterable: Optional[Iterable[Event]] = None
        else:
            self._factory = None
            self._iterable = events

    def events(self) -> Iterator[Event]:
        if self._factory is not None:
            return iter(self._factory())
        if self._iterable is None:
            raise StreamError(
                f"source {self.name!r} is single-pass and already consumed")
        iterable, self._iterable = self._iterable, None
        return iter(iterable)


class TraceSource(EventSource):
    """Replay a pre-built trace as a stream."""

    def __init__(self, trace: Trace, name: Optional[str] = None) -> None:
        self._trace = trace
        self.name = name if name is not None else trace.name

    def events(self) -> Iterator[Event]:
        return iter(self._trace)


class GeneratorSource(EventSource):
    """Regenerate a registered synthetic workload and stream it.

    The trace is deterministic given its parameters, so the source is
    replayable for free -- a restored monitor simply rebuilds it.
    """

    def __init__(self, kind: str, threads: int = 4, events: int = 200,
                 seed: int = 0, **params) -> None:
        if kind not in GENERATOR_REGISTRY:
            known = ", ".join(sorted(GENERATOR_REGISTRY))
            raise StreamError(f"unknown trace kind {kind!r}; known: {known}")
        self.kind = kind
        self.threads = threads
        self.size = events
        self.seed = seed
        self.params = dict(params)
        self.name = f"{kind}-t{threads}-n{events}-s{seed}"
        self._trace: Optional[Trace] = None

    @classmethod
    def from_spec(cls, spec: str) -> "GeneratorSource":
        """Parse ``kind[:key=value,...]``, e.g. ``racy:threads=3,events=40``.

        Integer-looking values are converted; everything else stays a
        string.
        """
        kind, _, tail = spec.partition(":")
        params: Dict[str, object] = {}
        if tail:
            for item in tail.split(","):
                if not item.strip():
                    continue
                key, separator, value = item.partition("=")
                if not separator:
                    raise StreamError(
                        f"malformed generator parameter {item!r} in {spec!r}")
                key = key.strip()
                value = value.strip()
                try:
                    params[key] = int(value)
                except ValueError:
                    try:
                        params[key] = float(value)
                    except ValueError:
                        params[key] = value
        return cls(kind, **params)  # type: ignore[arg-type]

    def _materialize(self) -> Trace:
        if self._trace is None:
            try:
                self._trace = build_trace(self.kind,
                                          num_threads=self.threads,
                                          events=self.size, seed=self.seed,
                                          name=self.name, **self.params)
            except TypeError as error:
                # Bad parameter names/types from a CLI spec surface as the
                # library's error type, not a raw traceback.
                raise StreamError(
                    f"invalid generator parameters for {self.name!r}: "
                    f"{error}") from error
        return self._trace

    def events(self) -> Iterator[Event]:
        return iter(self._materialize())


class FileSource(EventSource):
    """Stream events from an STD-format trace file (optionally ``.gz``).

    Parameters
    ----------
    path:
        The trace file.  ``.gz`` files are read transparently (but cannot
        be followed: gzip streams have no stable notion of "appended
        since").
    follow:
        Keep polling for appended lines once EOF is reached (``tail -f``).
        Partial lines (no trailing newline yet) are buffered until the
        writer completes them.
    poll_interval:
        Seconds between polls while following.
    idle_timeout:
        Stop following after this many seconds without new data
        (``None`` = follow forever).
    """

    def __init__(self, path: Union[str, Path], follow: bool = False,
                 poll_interval: float = 0.2,
                 idle_timeout: Optional[float] = None,
                 name: Optional[str] = None) -> None:
        self._path = Path(path)
        if follow and str(path).endswith(".gz"):
            raise StreamError("--follow is not supported for .gz traces")
        self.follow = follow
        self.poll_interval = poll_interval
        self.idle_timeout = idle_timeout
        self.name = name if name is not None else self._path.stem

    def events(self) -> Iterator[Event]:
        decoder = LineDecoder()
        pending = ""
        line_number = 0
        last_data = time.monotonic()
        with open_trace(self._path, "r") as stream:
            while True:
                chunk = stream.readline()
                if chunk:
                    last_data = time.monotonic()
                    if self.follow and not chunk.endswith("\n"):
                        # The writer is mid-line; wait for the rest.
                        pending += chunk
                        continue
                    line, pending = pending + chunk, ""
                    line_number += 1
                    header = parse_header(line)
                    if header is not None:
                        self.name = header
                        continue
                    event = parse_trace_line(line, decoder, line_number)
                    if event is not None:
                        yield event
                    continue
                if not self.follow:
                    # pending is only populated while following (a final
                    # partial line is returned by readline and parsed
                    # through the normal path above).
                    return
                if (self.idle_timeout is not None
                        and time.monotonic() - last_data > self.idle_timeout):
                    # Treat a dangling partial line like the non-follow
                    # path does an unterminated final line: parse it.
                    if pending:
                        line_number += 1
                        event = parse_trace_line(pending, decoder,
                                                 line_number)
                        if event is not None:
                            yield event
                    return
                time.sleep(self.poll_interval)


class FeedSource(EventSource):
    """Thread-safe push feed with bounded buffering and backpressure.

    A producer thread calls :meth:`emit` (or :meth:`push` with pre-built
    events); the engine consumes via :meth:`events`.  When the internal
    buffer holds ``maxsize`` events, producers block until the consumer
    drains -- or raise :class:`~repro.errors.StreamError` once ``timeout``
    expires, so a stalled monitor surfaces as an error instead of unbounded
    memory growth.

    The consumer side can also go away: when the iterator returned by
    :meth:`events` is closed (explicitly, by ``break``-ing out of a ``for``
    loop and dropping it, or by engine shutdown) the feed is *cancelled* --
    every producer blocked in :meth:`push`/:meth:`emit` is unblocked with a
    typed :class:`~repro.errors.FeedCancelledError` instead of deadlocking
    against a consumer that will never drain again.  :meth:`cancel` does
    the same explicitly.
    """

    def __init__(self, maxsize: int = 1024, name: str = "feed") -> None:
        if maxsize < 1:
            raise StreamError(f"maxsize must be >= 1, got {maxsize}")
        self.name = name
        self._maxsize = maxsize
        self._buffer: deque = deque()
        self._condition = threading.Condition()
        self._closed = False
        self._cancelled = False
        self._next_index: Dict[int, int] = {}

    def _reserve_slot(self, timeout: Optional[float]) -> None:
        """Wait (holding the condition) until the buffer has room.

        Must be called with ``self._condition`` held; raises when the feed
        is closed or cancelled, or the backpressure timeout expires.
        """
        if self._cancelled:
            raise FeedCancelledError(
                f"feed {self.name!r}: consumer is gone (feed cancelled)")
        if self._closed:
            raise StreamError(f"feed {self.name!r} is closed")
        if not self._condition.wait_for(
                lambda: (len(self._buffer) < self._maxsize or self._closed
                         or self._cancelled),
                timeout=timeout):
            raise StreamError(
                f"feed {self.name!r}: backpressure timeout after "
                f"{timeout}s (buffer full at {self._maxsize})")
        if self._cancelled:
            raise FeedCancelledError(
                f"feed {self.name!r}: consumer is gone (feed cancelled)")
        if self._closed:
            raise StreamError(f"feed {self.name!r} is closed")

    def push(self, event: Event, timeout: Optional[float] = None) -> None:
        """Enqueue a pre-built event, blocking while the buffer is full."""
        with self._condition:
            self._reserve_slot(timeout)
            self._buffer.append(event)
            self._condition.notify_all()

    def emit(self, thread: int, kind: Union[EventKind, str],
             timeout: Optional[float] = None, **metadata) -> Event:
        """Build the next event of ``thread`` and enqueue it.

        The feed assigns per-thread sequence ids itself, so producers only
        name the thread and the operation.  Index assignment and enqueue
        happen in one critical section: two producers emitting for the
        same thread concurrently must not be able to enqueue their events
        out of index order.
        """
        kind = EventKind(kind) if not isinstance(kind, EventKind) else kind
        with self._condition:
            self._reserve_slot(timeout)
            index = self._next_index.get(thread, 0)
            self._next_index[thread] = index + 1
            event = Event(thread=thread, index=index, kind=kind, **metadata)
            self._buffer.append(event)
            self._condition.notify_all()
        return event

    def close(self) -> None:
        """Mark the feed finished; the consumer drains and stops."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    def cancel(self) -> None:
        """Mark the consumer gone: unblock every pending/future producer
        with :class:`~repro.errors.FeedCancelledError` and stop the
        consumer iterator at the next opportunity.  Idempotent; buffered
        events are dropped (there is no one left to analyse them)."""
        with self._condition:
            self._cancelled = True
            self._buffer.clear()
            self._condition.notify_all()

    @property
    def cancelled(self) -> bool:
        with self._condition:
            return self._cancelled

    def __len__(self) -> int:
        with self._condition:
            return len(self._buffer)

    def events(self) -> Iterator[Event]:
        try:
            while True:
                with self._condition:
                    self._condition.wait_for(
                        lambda: (self._buffer or self._closed
                                 or self._cancelled))
                    if self._cancelled:
                        return
                    if not self._buffer and self._closed:
                        return
                    event = self._buffer.popleft()
                    self._condition.notify_all()
                yield event
        finally:
            # The consumer abandoned the iterator (GeneratorExit, an
            # exception in the engine, or plain exhaustion).  After a clean
            # close-and-drain cancelling is a no-op; in every other case it
            # is what turns "producer blocked forever against a dead
            # consumer" into a typed FeedCancelledError.
            with self._condition:
                if not (self._closed and not self._buffer):
                    self._cancelled = True
                    self._buffer.clear()
                self._condition.notify_all()


def _binary_trace_source(path: Union[str, Path], follow: bool,
                         name: Optional[str] = None) -> "TraceSource":
    """A replayable source over a ``.stc`` binary trace.

    The whole trace decodes up front.  Following is refused like
    ``.gz``: a binary columnar file has no notion of "lines appended
    since".
    """
    if follow:
        raise StreamError("--follow is not supported for .stc traces")
    from repro.trace.io import read_trace

    return TraceSource(read_trace(path), name=name)


def open_source(spec: str, follow: bool = False,
                poll_interval: float = 0.2,
                idle_timeout: Optional[float] = None) -> EventSource:
    """Resolve a CLI ``--source`` value into a source.

    An existing file path becomes a :class:`FileSource` for STD text
    (``.std`` / ``.std.gz``) or a replayable :class:`TraceSource` over the
    decoded trace for ``.stc`` binary (sniffed by magic bytes, then
    extension); a corpus manifest (``manifest.json`` or
    ``manifest.json#TRACE_ID``, see :mod:`repro.gen.corpus`) resolves to a
    source over the named member (first member by default); otherwise the
    value is parsed as a generator spec ``kind[:key=value,...]`` (e.g.
    ``racy:threads=3,events=60,seed=1``).
    """
    from repro.trace.io import trace_format

    manifest_path = spec.partition("#")[0]
    if manifest_path.endswith(".json") and os.path.isfile(manifest_path):
        from repro.errors import GenerationError
        from repro.gen.corpus import read_manifest, resolve_member

        try:
            manifest = read_manifest(manifest_path)
        except GenerationError as error:  # manifest-shaped, bad version
            raise StreamError(str(error)) from error
        if manifest is not None:
            try:
                member_path, member_name = resolve_member(spec, manifest)
            except GenerationError as error:
                raise StreamError(str(error)) from error
            if trace_format(member_path) == "stc":
                return _binary_trace_source(member_path, follow,
                                            name=member_name)
            return FileSource(member_path, follow=follow,
                              poll_interval=poll_interval,
                              idle_timeout=idle_timeout, name=member_name)
    if os.path.exists(spec):
        if trace_format(spec) == "stc":
            return _binary_trace_source(spec, follow)
        return FileSource(spec, follow=follow, poll_interval=poll_interval,
                          idle_timeout=idle_timeout)
    kind = spec.partition(":")[0]
    if kind in GENERATOR_REGISTRY:
        if follow:
            raise StreamError("--follow only applies to file sources")
        return GeneratorSource.from_spec(spec)
    raise StreamError(
        f"source {spec!r} is neither an existing trace file nor a "
        f"registered trace kind (known kinds: "
        f"{', '.join(sorted(GENERATOR_REGISTRY))})")
