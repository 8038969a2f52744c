"""The one STD line decoder: equivalence with a plain per-line parse, and
a bounded memo.

``reference_load`` below is the loader as it was before lines were
memoized -- split, partition and decode every line from scratch, then
append every event through ``Trace``'s checked path -- kept here as the
oracle every ingest site (``load_trace``, the stream file source, the
serve shard) must agree with.
"""

import gzip
import io
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.serve.shard import ShardOptions, TenantShard
from repro.stream.source import FileSource
from repro.trace import EventKind, MemoryOrder, Trace, load_trace, loads_trace
from repro.trace.columns import TraceColumns
from repro.trace.event import Event
from repro.trace.formats import (
    MEMO_CAP,
    LineDecoder,
    format_event,
    format_header,
)

FIELDS = ("variable", "value", "target", "memory_order", "operation",
          "argument", "result", "atomic")


# --------------------------------------------------------------------------- #
# Reference: the per-line parse, no memo
# --------------------------------------------------------------------------- #
def reference_unescape(text: str) -> str:
    table = {"\\": "\\", "p": "|", "n": "\n", "r": "\r"}
    out: List[str] = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            out.append(table.get(text[i + 1], text[i + 1]))
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def reference_decode_value(text: str):
    prefix, _, payload = text.partition(":")
    if prefix == "int":
        return int(payload)
    if prefix == "bool":
        return bool(int(payload))
    if prefix == "mo":
        return MemoryOrder(payload.strip())
    if prefix == "str":
        return reference_unescape(payload)
    raise TraceError(f"cannot decode field value {text!r}")


def reference_parse_line(line: str, next_index: Dict[int, int],
                         line_number: int) -> Optional[Event]:
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
    kinds = {kind.value: kind for kind in EventKind}
    kind = kinds.get(parts[1])
    if kind is None:
        raise TraceError(
            f"unknown event kind {parts[1]!r} on line {line_number}")
    metadata = {}
    for part in parts[2:]:
        field, _, encoded = part.partition("=")
        if field not in FIELDS:
            raise TraceError(f"unknown field {field!r} on line {line_number}")
        metadata[field] = reference_decode_value(encoded)
    index = next_index.get(thread, 0)
    next_index[thread] = index + 1
    return Event(thread=thread, index=index, kind=kind, **metadata)


def reference_load(text: str, name: str = "trace") -> Trace:
    events = []
    next_index: Dict[int, int] = {}
    trace_name = name
    for line_number, raw_line in enumerate(io.StringIO(text), start=1):
        if raw_line[:1] == "#" or raw_line[:1].isspace():
            header = raw_line.lstrip().rstrip("\r\n")
            if header.startswith("# trace "):
                trace_name = reference_unescape(header[len("# trace "):])
                continue
        event = reference_parse_line(raw_line, next_index, line_number)
        if event is not None:
            events.append(event)
    return Trace(events, name=trace_name)


def assert_same_events(actual, expected) -> None:
    actual, expected = list(actual), list(expected)
    assert actual == expected
    for got, want in zip(actual, expected):
        for field in ("thread", "index", "kind") + FIELDS:
            assert type(getattr(got, field)) is type(getattr(want, field)), \
                (field, got, want)


def assert_same_columns(trace: Trace) -> None:
    built = trace.columns()
    fresh = TraceColumns(list(trace)).sync()
    for column in ("kinds", "threads", "indexes", "var_ids",
                   "access_flags", "read_flags", "write_flags",
                   "atomic_flags", "acquire_mo_flags", "release_mo_flags",
                   "variables", "thread_positions"):
        assert getattr(built, column) == getattr(fresh, column), column
    assert len(built) == len(trace)


# --------------------------------------------------------------------------- #
# Strategies: traces whose lines repeat, with every field type
# --------------------------------------------------------------------------- #
#: Text with every character the format escapes.
texts = st.text(alphabet=st.sampled_from("ab|\\\n\r p:=#"), max_size=6)
scalars = st.one_of(st.integers(-5, 300), st.booleans(), texts)
orders = st.sampled_from(list(MemoryOrder))


@st.composite
def bodies(draw):
    """One event's kind and fields (no thread or index yet)."""
    kind = draw(st.sampled_from(list(EventKind)))
    fields = {}
    if draw(st.booleans()):
        fields["variable"] = draw(scalars)
    if draw(st.booleans()):
        fields["value"] = draw(st.one_of(scalars, orders))
    if draw(st.integers(0, 4)) == 0:
        fields["target"] = draw(st.integers(0, 5))
    if draw(st.booleans()):
        fields["memory_order"] = draw(orders)
    if draw(st.integers(0, 4)) == 0:
        fields["operation"] = draw(texts)
    if draw(st.integers(0, 4)) == 0:
        fields["argument"] = draw(scalars)
    if draw(st.integers(0, 4)) == 0:
        fields["result"] = draw(scalars)
    if draw(st.booleans()):
        fields["atomic"] = draw(st.booleans())
    return kind, fields


@st.composite
def trace_texts(draw):
    """STD text: events drawn from a small pool of bodies (so tails
    repeat), mixed with blank and comment lines, an indented header, and
    CRLF endings on some lines."""
    pool = draw(st.lists(bodies(), min_size=1, max_size=6))
    name = draw(texts)
    lines = []
    if draw(st.booleans()):
        lines.append("  " + format_header(name))
    next_index: Dict[int, int] = {}
    for _ in range(draw(st.integers(0, 40))):
        choice = draw(st.integers(0, 9))
        if choice == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        if choice == 1:
            lines.append(draw(st.sampled_from(
                ["# a comment", "  # indented|read|x", "#0|read"])))
            continue
        thread = draw(st.integers(0, 3))
        kind, fields = draw(st.sampled_from(pool))
        index = next_index.get(thread, 0)
        next_index[thread] = index + 1
        lines.append(format_event(Event(thread, index, kind, **fields)))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                            min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, endings))


# --------------------------------------------------------------------------- #
# load_trace against the reference
# --------------------------------------------------------------------------- #
class TestLoadEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(trace_texts())
    def test_load_matches_reference(self, text):
        loaded = loads_trace(text, name="fallback")
        expected = reference_load(text, name="fallback")
        assert loaded.name == expected.name
        assert_same_events(loaded, expected)
        assert_same_columns(loaded)

    @settings(max_examples=50, deadline=None)
    @given(text=trace_texts())
    def test_gzip_file_matches_reference(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("gz") / "trace.std.gz"
        with gzip.open(path, "wt", encoding="utf-8", newline="") as stream:
            stream.write(text)
        # Text mode reads universal newlines, so compare against the
        # reference on the same translated text.
        with gzip.open(path, "rt", encoding="utf-8") as stream:
            translated = stream.read()
        loaded = load_trace(path)
        assert_same_events(loaded, reference_load(translated))
        assert_same_columns(loaded)

    @pytest.mark.parametrize("text", [
        "0|write|variable=str:a|variable=str:b\n",    # last value wins
        "0|write|value=int:1|variable=str:a\n"
        "0|write|variable=str:a|value=int:1\n",
        "0|read|variable=str:a  \n0|read|variable=str:a\n",  # data spaces
        " 3|read|variable=str:a\n+3|read|variable=str:a\n",
        "\u0663|read|variable=str:a\n3|read|variable=str:a\n",
        "0|read|variable=str:a\r\n0|read|variable=str:a\n"
        "0|read|variable=str:a",
        "0|read|value=mo: relaxed \n0|read|value=int: 7\n",
        "0|fence\n# trace late name\n0|fence\n",
    ])
    def test_hand_written_lines_match_reference(self, text):
        loaded = loads_trace(text)
        expected = reference_load(text)
        assert loaded.name == expected.name
        assert_same_events(loaded, expected)
        assert_same_columns(loaded)

    def test_columns_need_no_sync_after_load(self):
        text = "".join(format_event(Event(thread % 3, thread // 3,
                                          EventKind.WRITE, variable="x",
                                          value=1)) + "\n"
                       for thread in range(30))
        loaded = loads_trace(text)
        columns = loaded.columns()
        assert len(columns) == 30
        assert columns is loaded.columns()

    def test_appends_after_load_reach_the_columns(self):
        loaded = loads_trace("0|write|variable=str:x|value=int:1\n")
        loaded.columns()
        loaded.read(1, "y", value=2)
        assert_same_columns(loaded)


class TestMalformedLines:
    BAD = (
        "x|read|variable=str:a",         # bad thread id
        "0|sneeze|variable=str:a",       # unknown kind
        "0|read|colour=str:a",           # unknown field
        "0|read|variable=float:1.5",     # bad value prefix
        "0",                             # no kind at all
    )

    @staticmethod
    def reference_error(text: str) -> str:
        with pytest.raises(TraceError) as caught:
            reference_load(text)
        return str(caught.value)

    @pytest.mark.parametrize("bad", BAD)
    def test_same_error_as_reference(self, bad):
        text = "0|read|variable=str:a\n\n" + bad + "\n"
        with pytest.raises(TraceError) as caught:
            loads_trace(text)
        assert str(caught.value) == self.reference_error(text)

    @pytest.mark.parametrize("thread", ["x", "", " ", "1.5", "#"])
    def test_bad_thread_on_a_memoized_tail(self, thread):
        # The tail is decoded (and memoized) on line 1; line 2 repeats it
        # behind a thread id that does not parse.
        text = "0|read|variable=str:a\n" + thread + "|read|variable=str:a\n"
        expected = None
        try:
            reference = reference_load(text)
        except TraceError as error:
            expected = str(error)
        if expected is None:
            assert_same_events(loads_trace(text), reference)
            return
        with pytest.raises(TraceError) as caught:
            loads_trace(text)
        assert str(caught.value) == expected

    def test_error_line_numbers_count_every_line(self):
        text = "# trace t\n0|read|variable=str:a\n\n0|read|variable=str:a\n" \
               "0|read|bad\n"
        with pytest.raises(TraceError, match="on line 5"):
            loads_trace(text)

    def test_failed_decode_is_not_memoized(self):
        decoder = LineDecoder()
        with pytest.raises(TraceError):
            decoder.decode("0|read|variable=str:a|colour=str:b", 1)
        assert decoder.memo == {}
        with pytest.raises(TraceError, match="'colour' on line 2"):
            decoder.decode("0|read|variable=str:a|colour=str:b", 2)


# --------------------------------------------------------------------------- #
# The other ingest sites decode the same events
# --------------------------------------------------------------------------- #
class TestIngestSites:
    @settings(max_examples=40, deadline=None)
    @given(text=trace_texts())
    def test_file_source_matches_load(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("src") / "trace.std"
        path.write_text(text, encoding="utf-8", newline="")
        streamed = list(FileSource(path).events())
        assert_same_events(streamed, load_trace(path))

    @settings(max_examples=40, deadline=None)
    @given(trace_texts())
    def test_shard_matches_load(self, text):
        loaded = loads_trace(text)
        lines = [format_event(event) for event in loaded]
        shard = TenantShard(ShardOptions(analyses=("race-prediction",),
                                         backend=None))
        for seq, line in enumerate(lines, start=1):
            shard.feed_line("t", seq, line)
        engine = shard.ensure_tenant("t").engine
        assert_same_events(engine.snapshot()[0], loaded)


# --------------------------------------------------------------------------- #
# Bounded memo
# --------------------------------------------------------------------------- #
class TestBoundedMemo:
    def test_memo_never_exceeds_cap(self):
        decoder = LineDecoder()
        high = 0
        for number in range(100_000):
            event = decoder.decode(
                f"{number % 4}|write|variable=str:v{number}|value=int:{number}",
                number + 1)
            high = max(high, len(decoder.memo), len(decoder.parts))
            assert event.value == number
        assert high <= MEMO_CAP
        assert decoder.next_index == {thread: 25_000 for thread in range(4)}

    def test_restored_tenant_decodes_the_rest_identically(self, tmp_path):
        lines = [f"{n % 3}|write|variable=str:x{n % 5}|value=int:{n % 7}"
                 for n in range(60)]
        options = ShardOptions(analyses=("race-prediction",), backend=None,
                               checkpoint_dir=str(tmp_path),
                               checkpoint_every=10)
        first = TenantShard(options)
        for seq, line in enumerate(lines[:35], start=1):
            first.feed_line("t", seq, line)
        # A respawned worker restores the checkpoint taken after line 30
        # and is replayed the whole feed; lines up to 30 rebuild it.
        second = TenantShard(options)
        for seq, line in enumerate(lines, start=1):
            second.feed_line("t", seq, line)
        restored = second.ensure_tenant("t").engine.snapshot()[0]
        assert_same_events(restored, reference_load("\n".join(lines)))
