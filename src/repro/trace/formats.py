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

Besides whole-trace (de)serialization this module exposes the line-level
primitives -- :func:`format_event`, :func:`parse_trace_line`,
:func:`open_trace` -- that the streaming layer (:mod:`repro.stream`) uses to
tail files incrementally and to checkpoint event buffers.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Union

from repro.errors import TraceError
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


def parse_trace_line(line: str, next_index: Dict[int, int],
                     line_number: int = 0) -> Optional[Event]:
    """Parse one line into an :class:`Event`, or ``None`` for blank/comment.

    ``next_index`` maps thread id to the next per-thread sequence id and is
    advanced in place, so a caller feeding consecutive lines (a whole file,
    or a tailed stream) assigns the same indexes :func:`load_trace` would.
    """
    # Blank/comment detection ignores surrounding whitespace, but the event
    # line itself only sheds its terminators: trailing spaces or tabs in
    # the final field are string-value *data* and must survive.
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    line = line.strip("\r\n")
    parts = line.split("|")
    if len(parts) < 2:
        raise TraceError(f"malformed trace line {line_number}: {line!r}")
    try:
        thread = int(parts[0])
    except ValueError:
        raise TraceError(
            f"malformed thread id {parts[0]!r} on line {line_number}"
        ) from None
    kind = _KIND_BY_VALUE.get(parts[1])
    if kind is None:
        raise TraceError(
            f"unknown event kind {parts[1]!r} on line {line_number}"
        )
    metadata = {}
    for part in parts[2:]:
        field, _, encoded = part.partition("=")
        if field not in _FIELDS:
            raise TraceError(f"unknown field {field!r} on line {line_number}")
        metadata[field] = _decode_value(encoded)
    index = next_index.get(thread, 0)
    next_index[thread] = index + 1
    return Event(thread=thread, index=index, kind=kind, **metadata)


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

    Paths ending in ``.gz`` are read gzip-compressed.
    """
    if isinstance(source, (str, Path)):
        with open_trace(source, "r") as stream:
            return load_trace(stream, name=name)
    events: List[Event] = []
    next_index: Dict[int, int] = {}
    trace_name = name
    for line_number, raw_line in enumerate(source, start=1):
        # Only a comment line, possibly indented, can be the header; an
        # event line starts with its thread id.
        first = raw_line[:1]
        if first == "#" or first.isspace():
            header = parse_header(raw_line)
            if header is not None:
                trace_name = header
                continue
        event = parse_trace_line(raw_line, next_index, line_number)
        if event is not None:
            events.append(event)
    return Trace(events, name=trace_name)


def loads_trace(text: str, name: str = "trace") -> Trace:
    """Load a trace from a string produced by :func:`dumps_trace`."""
    return load_trace(io.StringIO(text), name=name)
