"""Plain-text serialization of traces.

The artifact accompanying the paper distributes its traces in a simple
line-oriented "STD"-like format.  We provide a comparable format so users
can persist generated workloads, inspect them, and feed externally produced
traces into the analyses:

.. code-block:: text

    # one event per line, observed order, '|'-separated fields
    thread|kind|key=value|key=value|...

Only fields whose value is set are emitted.  Values are stored as
``repr``-like literals for ints and strings; anything else round-trips as a
string.  Characters that would corrupt the line structure (``|``, newlines,
and the escape character itself) are escaped on write and unescaped on
read, so arbitrary variable names and values survive a round-trip.

Files whose name ends in ``.gz`` are transparently compressed: every
function that accepts a path (``dump_trace``, ``load_trace``, and through
them the ``analyze``/``sweep``/``watch`` CLI commands) reads and writes
gzip when the suffix asks for it.

Every reader of event lines -- :func:`load_trace`, the streaming layer
(:mod:`repro.stream`) tailing a file or restoring a checkpoint buffer, and
the serve shard -- decodes them through one :class:`LineDecoder`.  The
part of a line after the thread id repeats heavily in real traces (the
same access to the same variable with the same value), so the decoder
decodes each distinct tail once and builds later events from the memo.
:func:`load_trace` also fills the trace's columnar view while it parses,
so :meth:`~repro.trace.trace.Trace.columns` has nothing left to encode.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple, Union

from repro.errors import TraceError
from repro.trace.columns import TraceColumns, event_tag
from repro.trace.event import Event, EventKind, MemoryOrder
from repro.trace.trace import Trace

_FIELDS = (
    "variable",
    "value",
    "target",
    "memory_order",
    "operation",
    "argument",
    "result",
    "atomic",
)

#: Escape table for characters that are structural in the line format.  A
#: literal ``|`` would split the field, a newline would split the line, and
#: ``\\`` is the escape character itself.  ``\r`` is escaped too so traces
#: survive universal-newline reading unchanged.
_ESCAPE_TABLE = {
    ord("\\"): "\\\\",
    ord("|"): "\\p",
    ord("\n"): "\\n",
    ord("\r"): "\\r",
}

_UNESCAPE_TABLE = {"\\": "\\", "p": "|", "n": "\n", "r": "\r"}

#: Precomputed value->member tables.  Calling ``EventKind(text)`` routes
#: through ``EnumMeta.__call__`` and its missing-value machinery on every
#: event line, which is measurable on large ``.std`` loads; a dict hit is
#: one hash lookup.
_KIND_BY_VALUE = {kind.value: kind for kind in EventKind}
_MEMORY_ORDER_BY_VALUE = {order.value: order for order in MemoryOrder}


def _escape(text: str) -> str:
    return text.translate(_ESCAPE_TABLE)


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    out: List[str] = []
    i = 0
    while i < len(text):
        char = text[i]
        if char == "\\" and i + 1 < len(text):
            out.append(_UNESCAPE_TABLE.get(text[i + 1], text[i + 1]))
            i += 2
        else:
            out.append(char)
            i += 1
    return "".join(out)


def _encode_value(value) -> str:
    if isinstance(value, bool):
        return f"bool:{int(value)}"
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, MemoryOrder):
        return f"mo:{value.value}"
    return "str:" + _escape(str(value))


def _decode_value(text: str):
    prefix, _, payload = text.partition(":")
    # Typed payloads tolerate incidental whitespace (e.g. a hand-edited
    # line with trailing spaces); ``str`` payloads are taken verbatim --
    # their whitespace is data.
    if prefix == "int":
        return int(payload)
    if prefix == "bool":
        return bool(int(payload))
    if prefix == "mo":
        stripped = payload.strip()
        order = _MEMORY_ORDER_BY_VALUE.get(stripped)
        # Fall back to the enum call for unknown payloads so the error
        # behaviour (ValueError) is unchanged.
        return order if order is not None else MemoryOrder(stripped)
    if prefix == "str":
        return _unescape(payload)
    raise TraceError(f"cannot decode field value {text!r}")


def _is_gzip_path(path: Union[str, Path]) -> bool:
    return str(path).endswith(".gz")


def open_trace(path: Union[str, Path], mode: str = "r") -> TextIO:
    """Open a trace file for text I/O, transparently gzipped for ``.gz``.

    ``mode`` is ``"r"``, ``"w"`` or ``"a"`` (text is implied; encoding is
    always UTF-8).  Gzip members are written with a zeroed mtime and no
    embedded filename, so the same trace serialises to byte-identical
    ``.std.gz`` output wherever and whenever it is written -- the property
    the generator-determinism tests and the fuzzer's reproducibility
    contract pin down.
    """
    if mode not in ("r", "w", "a"):
        raise TraceError(f"unsupported trace file mode {mode!r}")
    if _is_gzip_path(path):
        if mode == "r":
            return gzip.open(path, "rt", encoding="utf-8")
        raw = open(path, mode + "b")
        try:
            binary = gzip.GzipFile(filename="", mode=mode + "b",
                                   fileobj=raw, mtime=0)
        except Exception:  # pragma: no cover - constructor cannot realistically fail
            raw.close()
            raise
        return io.TextIOWrapper(_OwningGzipWriter(binary, raw),
                                encoding="utf-8")
    return open(path, mode, encoding="utf-8")


class _OwningGzipWriter(io.BufferedIOBase):
    """Minimal write-only wrapper closing both the gzip member and the
    underlying file object (``GzipFile`` with an explicit ``fileobj`` leaves
    the raw file open on close)."""

    def __init__(self, member: gzip.GzipFile, raw) -> None:
        self._member = member
        self._raw = raw

    def write(self, data) -> int:
        return self._member.write(data)

    def writable(self) -> bool:
        return True

    def flush(self) -> None:
        if not self._member.closed:
            self._member.flush()

    def close(self) -> None:
        if self.closed:  # pragma: no cover - double-close guard
            return
        try:
            try:
                self._member.close()
            finally:
                # Close the raw fd even when flushing the final compressed
                # block fails (e.g. disk full) -- leaking it until GC would
                # exhaust fds in long sweeps.
                self._raw.close()
        finally:
            super().close()


# --------------------------------------------------------------------------- #
# Line-level primitives
# --------------------------------------------------------------------------- #
def format_header(name: str) -> str:
    """The ``# trace NAME`` header line (without trailing newline)."""
    return "# trace " + _escape(name)


def format_event(event: Event) -> str:
    """Serialise one event to its line (without trailing newline)."""
    parts = [str(event.thread), event.kind.value]
    for field in _FIELDS:
        value = getattr(event, field)
        if value is None or (field == "atomic" and value is False):
            continue
        parts.append(f"{field}={_encode_value(value)}")
    return "|".join(parts)


def parse_header(line: str) -> Optional[str]:
    """Return the trace name if ``line`` is a header comment, else ``None``.

    Only line terminators and leading indentation are shed -- edge
    whitespace *inside* the name is data and round-trips, like string
    field values do.
    """
    line = line.lstrip().rstrip("\r\n")
    if line.startswith("# trace "):
        return _unescape(line[len("# trace "):])
    return None


#: The most entries each memo of a :class:`LineDecoder` holds.  A full
#: memo is cleared, not grown, so input whose lines never repeat costs one
#: decode per line, as with no memo, in bounded memory.
MEMO_CAP = 1 << 14

#: A memo entry: the kind, the decoded ``(field, value)`` pairs, the
#: :func:`~repro.trace.columns.event_tag` and the variable (or ``None``).
Entry = Tuple[EventKind, Tuple[Tuple[str, Any], ...], int, Any]

_new_object = object.__new__
_set_field = object.__setattr__


def _build_event(thread: int, index: int, kind: EventKind,
                 fields: Tuple[Tuple[str, Any], ...]) -> Event:
    """The event ``Event(thread, index, kind, **dict(fields))``, built
    without the frozen dataclass's eleven-field ``__init__``: a field the
    line does not set reads its class-level default."""
    event = _new_object(Event)
    _set_field(event, "thread", thread)
    _set_field(event, "index", index)
    _set_field(event, "kind", kind)
    for field, value in fields:
        _set_field(event, field, value)
    return event


_TERMINATORS = "\r\n"


def _not_an_event(line: str, line_number: int) -> None:
    """Return ``None`` for a blank or comment line (surrounding whitespace
    ignored); raise the parse error of any other line whose thread id does
    not parse."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    line = line.strip(_TERMINATORS)
    thread_text, bar, _ = line.partition("|")
    if not bar:
        raise TraceError(f"malformed trace line {line_number}: {line!r}")
    raise TraceError(
        f"malformed thread id {thread_text!r} on line {line_number}")


class LineDecoder:
    """Decodes STD event lines, assigning per-thread indexes in order.

    ``next_index`` maps thread id to the next per-thread sequence id and
    is advanced by :meth:`decode`, so a caller feeding consecutive lines
    (a whole file, a tailed stream, one serve tenant's payloads) assigns
    the indexes :func:`load_trace` would; seed it to resume mid-stream.

    ``memo`` maps a line's *tail* -- everything after the first ``|`` --
    to its decoded :data:`Entry`, and ``parts`` maps each ``field=value``
    part to its decoded pair, so a new tail made of parts seen before
    decodes no value again.  Only what decodes is memoized, so a malformed
    line raises the same :class:`~repro.errors.TraceError` (message and
    line number) whether or not its tail was seen before.  Both memos are
    cleared when they reach :data:`MEMO_CAP`.
    """

    __slots__ = ("next_index", "memo", "parts")

    def __init__(self, next_index: Optional[Dict[int, int]] = None) -> None:
        self.next_index: Dict[int, int] = (
            {} if next_index is None else next_index)
        self.memo: Dict[str, Entry] = {}
        self.parts: Dict[str, Tuple[str, Any]] = {}

    def entry(self, line: str,
              line_number: int = 0) -> Optional[Tuple[int, Entry]]:
        """The thread id and decoded entry of ``line``, or ``None`` for a
        blank or comment line.  Assigns no index."""
        thread_text, bar, tail = line.partition("|")
        try:
            thread = int(thread_text)
        except ValueError:
            return _not_an_event(line, line_number)
        entry = self.memo.get(tail)
        if entry is not None:
            return thread, entry
        if not bar:
            raise TraceError(f"malformed trace line {line_number}: "
                             f"{line.strip(_TERMINATORS)!r}")
        # Only terminators are shed: trailing spaces or tabs in the final
        # field are string-value *data* and must survive.
        parts = tail.rstrip(_TERMINATORS).split("|")
        kind = _KIND_BY_VALUE.get(parts[0])
        if kind is None:
            raise TraceError(
                f"unknown event kind {parts[0]!r} on line {line_number}"
            )
        pairs = []
        decoded_parts = self.parts
        for part in parts[1:]:
            decoded = decoded_parts.get(part)
            if decoded is None:
                field, _, encoded = part.partition("=")
                if field not in _FIELDS:
                    raise TraceError(
                        f"unknown field {field!r} on line {line_number}")
                decoded = (field, _decode_value(encoded))
                if len(decoded_parts) >= MEMO_CAP:
                    decoded_parts.clear()
                decoded_parts[part] = decoded
            pairs.append(decoded)
        # A field given twice keeps its last value, here and when the
        # event is built (its pairs are set in order).
        fields = dict(pairs)
        entry = (kind, tuple(pairs),
                 event_tag(kind, fields.get("atomic"),
                           fields.get("memory_order")),
                 fields.get("variable"))
        memo = self.memo
        if len(memo) >= MEMO_CAP:
            memo.clear()
        memo[tail] = entry
        return thread, entry

    def decode(self, line: str, line_number: int = 0) -> Optional[Event]:
        """The next event of ``line``'s thread, or ``None`` for a blank or
        comment line."""
        found = self.entry(line, line_number)
        if found is None:
            return None
        thread, (kind, fields, _tag, _variable) = found
        next_index = self.next_index
        index = next_index.get(thread, 0)
        next_index[thread] = index + 1
        return _build_event(thread, index, kind, fields)


def parse_trace_line(line: str, decoder: LineDecoder,
                     line_number: int = 0) -> Optional[Event]:
    """Parse one line into an :class:`Event`, or ``None`` for blank/comment
    (``decoder.decode``: the decoder carries the per-thread indexes and the
    tail memo from line to line)."""
    return decoder.decode(line, line_number)


# --------------------------------------------------------------------------- #
# Whole-trace (de)serialization
# --------------------------------------------------------------------------- #
def dump_trace(trace: Trace, destination: Union[str, Path, TextIO]) -> None:
    """Serialise ``trace`` to a file path or text stream.

    Paths ending in ``.gz`` are written gzip-compressed.
    """
    if isinstance(destination, (str, Path)):
        with open_trace(destination, "w") as stream:
            dump_trace(trace, stream)
        return
    destination.write(format_header(trace.name) + "\n")
    for event in trace:
        destination.write(format_event(event) + "\n")


def dumps_trace(trace: Trace) -> str:
    """Serialise ``trace`` to a string."""
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


def load_trace(source: Union[str, Path, TextIO], name: str = "trace") -> Trace:
    """Load a trace from a file path or text stream.

    Paths ending in ``.gz`` are read gzip-compressed.  The trace's
    columnar view is encoded in the same pass.
    """
    if isinstance(source, (str, Path)):
        with open_trace(source, "r") as stream:
            return load_trace(stream, name=name)
    entry_of = LineDecoder().entry
    build = _build_event
    events: List[Event] = []
    # thread -> (its events, their positions in ``events``); the chain
    # length is the thread's next index.
    per_thread: Dict[int, Tuple[List[Event], List[int]]] = {}
    tags = bytearray()
    threads: List[int] = []
    indexes: List[int] = []
    var_ids: List[int] = []
    intern: Dict[Any, int] = {}
    trace_name = name
    for line_number, raw_line in enumerate(source, start=1):
        found = entry_of(raw_line, line_number)
        if found is None:
            header = parse_header(raw_line)
            if header is not None:
                trace_name = header
            continue
        thread, (kind, fields, tag, variable) = found
        slot = per_thread.get(thread)
        if slot is None:
            slot = per_thread[thread] = ([], [])
        chain, positions = slot
        index = len(chain)
        positions.append(len(events))
        event = build(thread, index, kind, fields)
        chain.append(event)
        events.append(event)
        tags.append(tag)
        threads.append(thread)
        indexes.append(index)
        if variable is None:
            var_ids.append(-1)
        else:
            var_id = intern.get(variable)
            if var_id is None:
                var_id = intern[variable] = len(intern)
            var_ids.append(var_id)
    columns = TraceColumns.from_tags(
        events, tags, threads, indexes, var_ids, intern,
        {thread: positions for thread, (_, positions) in per_thread.items()})
    return Trace.from_chains(
        events, {thread: chain for thread, (chain, _) in per_thread.items()},
        columns, name=trace_name)


def loads_trace(text: str, name: str = "trace") -> Trace:
    """Load a trace from a string produced by :func:`dumps_trace`."""
    return load_trace(io.StringIO(text), name=name)
