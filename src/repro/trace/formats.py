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
same access to the same variable), so the decoder decodes each distinct
thread spelling and tail once and builds later events from its memos.
Where lines differ only in the value written or read, it decodes each
line *shape* -- the tail with its encoded value cut out -- once, and
then only the value of each line.  :func:`load_trace` runs the memo-hit
path inline and fills the trace's columnar view while it parses, so
:meth:`~repro.trace.trace.Trace.columns` has nothing left to encode.

A malformed line -- an unknown kind or field, a value that does not
decode, or a fork/join target or operation the ``.stc`` format would
refuse -- raises :class:`~repro.errors.TraceError` naming its line.
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


def _decode_value(text: str, line_number: int):
    """The value a field's ``text`` encodes; a :class:`TraceError` naming
    ``line_number`` when it encodes none."""
    prefix, _, payload = text.partition(":")
    # Typed payloads tolerate incidental whitespace (e.g. a hand-edited
    # line with trailing spaces); ``str`` payloads are taken verbatim --
    # their whitespace is data.
    try:
        if prefix == "int":
            return int(payload)
        if prefix == "bool":
            return bool(int(payload))
        if prefix == "mo":
            order = _MEMORY_ORDER_BY_VALUE.get(payload.strip())
            if order is not None:
                return order
        elif prefix == "str":
            return _unescape(payload)
    except ValueError:
        pass
    raise TraceError(
        f"cannot decode field value {text!r} on line {line_number}")


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

#: A ``(field, value)`` pair of a decoded line.
Pair = Tuple[str, Any]

#: A memo entry: the kind, the decoded pairs in line order, the
#: :func:`~repro.trace.columns.event_tag` and the variable's interned id
#: (``-1`` without a variable or an intern table).
Entry = Tuple[EventKind, Tuple[Pair, ...], int, int]

#: A shape entry: an :data:`Entry` of a line with a ``value=`` part, its
#: pairs split around the first such part -- the kind, the pairs before
#: it, the pairs after it, the tag and the variable id.
Shape = Tuple[EventKind, Tuple[Pair, ...], Tuple[Pair, ...], int, int]

_VALUE_PART = "|value="

_new_object = object.__new__
_set_field = object.__setattr__


def _build_event(thread: int, index: int, kind: EventKind,
                 fields: Tuple[Pair, ...]) -> Event:
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


def _remember(memo: Dict[str, Any], key: str, value: Any) -> None:
    """Store ``key`` in ``memo``, clearing it first if it is full."""
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[key] = value


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
    ``variables``, when given, is the intern table each entry's variable
    id indexes: a variable gets the next id when a line first names it.

    A line is its thread id, a ``|`` and its *tail*.  Four memos, each
    cleared when it reaches :data:`MEMO_CAP`, let a line that repeats
    what came before skip the work:

    * ``threads`` maps thread-id text to the thread, so ``int`` runs once
      per spelling;
    * ``memo`` maps a tail to its decoded :data:`Entry`;
    * ``shapes`` maps a tail with its (first) encoded value cut out to
      its :data:`Shape`, so a line that differs from one seen before only
      in its value decodes that value alone;
    * ``parts`` maps each ``field=value`` part to its decoded pair, so a
      new tail made of parts seen before decodes no value again.

    Only what decodes is memoized, so a malformed line raises the same
    :class:`~repro.errors.TraceError` (message and line number) whether or
    not it repeats a thread id, tail, shape or part seen before.
    """

    __slots__ = ("next_index", "variables", "threads", "memo", "shapes",
                 "parts")

    def __init__(self, next_index: Optional[Dict[int, int]] = None,
                 variables: Optional[Dict[Any, int]] = None) -> None:
        self.next_index: Dict[int, int] = (
            {} if next_index is None else next_index)
        self.variables = variables
        self.threads: Dict[str, int] = {}
        self.memo: Dict[str, Entry] = {}
        self.shapes: Dict[str, Shape] = {}
        self.parts: Dict[str, Pair] = {}

    def entry(self, line: str,
              line_number: int = 0) -> Optional[Tuple[int, Entry]]:
        """The thread id and decoded entry of ``line``, or ``None`` for a
        blank or comment line.  Assigns no index."""
        thread_text, bar, tail = line.partition("|")
        thread = self.threads.get(thread_text)
        if thread is None:
            try:
                thread = int(thread_text)
            except ValueError:
                return _not_an_event(line, line_number)
            _remember(self.threads, thread_text, thread)
        entry = self.memo.get(tail)
        if entry is None:
            if not bar:
                raise TraceError(f"malformed trace line {line_number}: "
                                 f"{line.strip(_TERMINATORS)!r}")
            entry = self._decode_tail(tail, line_number)
        return thread, entry

    def _decode_tail(self, tail: str, line_number: int) -> Entry:
        shape_key = None
        start = tail.find(_VALUE_PART)
        if start >= 0:
            end = tail.find("|", start + 1)
            if end < 0:
                end = len(tail)
            # The key keeps the ``|value=`` marker, so the key and the cut
            # value give back the tail.  A second ``value=`` part stays in
            # the key, and its pair after the cut one, so it still wins.
            value_at = start + len(_VALUE_PART)
            shape_key = tail[:value_at] + tail[end:]
            shape = self.shapes.get(shape_key)
            if shape is not None:
                # Every other part of the shape decoded when it was
                # stored, so only the value can be malformed.
                kind, before, after, tag, var_id = shape
                encoded = tail[value_at:end]
                if end == len(tail):
                    encoded = encoded.rstrip(_TERMINATORS)
                value = ("value", _decode_value(encoded, line_number))
                entry = kind, before + (value,) + after, tag, var_id
                _remember(self.memo, tail, entry)
                return entry
        # Only terminators are shed: trailing spaces or tabs in the final
        # field are string-value *data* and must survive.
        parts = tail.rstrip(_TERMINATORS).split("|")
        kind = _KIND_BY_VALUE.get(parts[0])
        if kind is None:
            raise TraceError(
                f"unknown event kind {parts[0]!r} on line {line_number}"
            )
        decoded_parts = self.parts
        pairs = []
        for part in parts[1:]:
            pair = decoded_parts.get(part)
            if pair is None:
                pair = self._decode_part(part, line_number)
            pairs.append(pair)
        pairs = tuple(pairs)
        # A field given twice keeps its last value, here and when the
        # event is built (its pairs are set in order).
        fields = dict(pairs)
        tag = event_tag(kind, fields.get("atomic"),
                        fields.get("memory_order"))
        variable = fields.get("variable")
        intern = self.variables
        var_id = -1
        if variable is not None and intern is not None:
            var_id = intern.get(variable, -1)
            if var_id < 0:
                var_id = intern[variable] = len(intern)
        if shape_key is not None:
            at = tail.count("|", 0, start)
            _remember(self.shapes, shape_key,
                      (kind, pairs[:at], pairs[at + 1:], tag, var_id))
        entry = kind, pairs, tag, var_id
        _remember(self.memo, tail, entry)
        return entry

    def _decode_part(self, part: str, line_number: int) -> Pair:
        """Decode and memoize one ``field=value`` part."""
        field, _, encoded = part.partition("=")
        if field not in _FIELDS:
            raise TraceError(f"unknown field {field!r} on line {line_number}")
        value = _decode_value(encoded, line_number)
        # The .stc decoder refuses these, so a trace loaded here always
        # converts to a file that reads back.
        if field == "target" and type(value) is not int:
            raise TraceError(f"non-integer fork/join target {value!r} "
                             f"on line {line_number}")
        if field == "operation" and type(value) is not str:
            raise TraceError(
                f"non-string operation {value!r} on line {line_number}")
        pair = (field, value)
        _remember(self.parts, part, pair)
        return pair

    def decode(self, line: str, line_number: int = 0) -> Optional[Event]:
        """The next event of ``line``'s thread, or ``None`` for a blank or
        comment line."""
        found = self.entry(line, line_number)
        if found is None:
            return None
        thread, (kind, fields, _tag, _var_id) = found
        next_index = self.next_index
        index = next_index.get(thread, 0)
        next_index[thread] = index + 1
        return _build_event(thread, index, kind, fields)


def parse_trace_line(line: str, decoder: LineDecoder,
                     line_number: int = 0) -> Optional[Event]:
    """Parse one line into an :class:`Event`, or ``None`` for blank/comment
    (``decoder.decode``: the decoder carries the per-thread indexes and the
    memos from line to line)."""
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
    events: List[Event] = []
    tags = bytearray()
    threads: List[int] = []
    indexes: List[int] = []
    var_ids: List[int] = []
    intern: Dict[Any, int] = {}
    decoder = LineDecoder(variables=intern)
    entry_of, decode_tail = decoder.entry, decoder._decode_tail
    memo = decoder.memo
    build = _build_event
    # thread -> (its events, their positions in ``events``); the chain
    # length is the thread's next index.
    per_thread: Dict[int, Tuple[List[Event], List[int]]] = {}
    # thread-id text -> (thread, its events, their positions).
    slots: Dict[str, Tuple[int, List[Event], List[int]]] = {}
    trace_name = name
    for line_number, raw_line in enumerate(source, start=1):
        thread_text, bar, tail = raw_line.partition("|")
        slot = slots.get(thread_text)
        entry = memo.get(tail)
        if entry is None and slot is not None and bar:
            entry = decode_tail(tail, line_number)
        if entry is None or slot is None:
            # A new thread spelling, a blank, comment or header line, or
            # a line with no tail (which raises).
            found = entry_of(raw_line, line_number)
            if found is None:
                header = parse_header(raw_line)
                if header is not None:
                    trace_name = header
                continue
            thread, entry = found
            chain_slot = per_thread.get(thread)
            if chain_slot is None:
                chain_slot = per_thread[thread] = ([], [])
            slot = (thread, *chain_slot)
            _remember(slots, thread_text, slot)
        thread, chain, positions = slot
        kind, fields, tag, var_id = entry
        index = len(chain)
        positions.append(len(events))
        event = build(thread, index, kind, fields)
        chain.append(event)
        events.append(event)
        tags.append(tag)
        threads.append(thread)
        indexes.append(index)
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
