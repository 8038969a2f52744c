"""The ``.stc`` binary columnar format: round trips, integrity.

Four contracts under test:

* **lossless** -- ``decode_trace(encode_trace(t))`` reproduces every
  event, every derived view, and the columnar encoding of ``t``;
* **deterministic** -- the same trace always encodes to the same bytes
  (including through a decode/re-encode cycle);
* **one representation** -- decoding returns a plain :class:`Trace`
  that indexes, slices, looks up nodes and grows like any other;
* **safe** -- every malformed input (bad magic, bad version, truncation
  at *any* byte, lying section table, out-of-range interned ids,
  inconsistent flag columns, a thread table or position list that
  disagrees with the THREADS and INDEXES columns) raises
  :class:`TraceFormatError`, never an ``IndexError``/``struct.error``
  and never a silently wrong trace.
"""

from __future__ import annotations

import gzip
import struct

import pytest

from repro.errors import TraceFormatError
from repro.trace import (
    STC_MAGIC,
    STC_VERSION,
    Event,
    EventKind,
    MemoryOrder,
    Trace,
    decode_trace,
    dumps_trace,
    encode_trace,
    loads_trace,
    read_trace_stc,
    write_trace_stc,
)
from repro.trace.binfmt import (
    SEC_ACCESS,
    SEC_ARG_IDS,
    SEC_ATOMIC,
    SEC_INDEXES,
    SEC_KINDS,
    SEC_MO_CODES,
    SEC_OP_IDS,
    SEC_POSITIONS,
    SEC_TARGET_IDS,
    SEC_THREAD_TABLE,
    SEC_THREADS,
    SEC_VALUE_IDS,
    SEC_VAR_IDS,
    SECTION_NAMES,
)
from repro.trace.generators import GENERATOR_REGISTRY, build_trace

#: Strings that stress the STD escaping rules; the binary format must
#: carry them untouched too (shared shapes with test_formats.py).
ADVERSARIAL_VALUES = [
    "a|b", "x=y", "line1\nline2", "cr\rlf\n", "back\\slash", "\\p literal",
    "|=\\\n|", "trailing\\", "# trace impostor", "trailing spaces  ",
    "\ttabs\t",
]

_PRELUDE = struct.Struct("<4sHHQI")
_TABLE_ENTRY = struct.Struct("<IQQ")


def rich_trace() -> Trace:
    """Every event kind, every metadata field type, adversarial strings."""
    trace = Trace(name="rich")
    trace.append(0, EventKind.FORK, target=1)
    trace.append(1, EventKind.WRITE, variable="x", value=1)
    trace.append(1, EventKind.READ, variable="x", value=1)
    trace.append(0, EventKind.ACQUIRE, variable="lock")
    trace.append(0, EventKind.WRITE, variable="x", value=True)
    trace.append(0, EventKind.RELEASE, variable="lock")
    trace.append(1, EventKind.ATOMIC_WRITE, variable="flag", value=-7,
                 memory_order=MemoryOrder.RELEASE)
    trace.append(0, EventKind.ATOMIC_READ, variable="flag", value=-7,
                 memory_order=MemoryOrder.ACQUIRE)
    trace.append(0, EventKind.ATOMIC_RMW, variable="ctr", value=2,
                 argument=1, result=2, memory_order=MemoryOrder.ACQ_REL)
    trace.append(1, EventKind.FENCE, memory_order=MemoryOrder.SEQ_CST)
    trace.append(0, EventKind.ALLOC, variable="heap0")
    trace.append(0, EventKind.FREE, variable="heap0")
    trace.append(1, EventKind.BEGIN, operation="enqueue", argument=41)
    trace.append(1, EventKind.END, operation="enqueue", result=True)
    trace.append(0, EventKind.JOIN, target=1)
    for position, value in enumerate(ADVERSARIAL_VALUES):
        trace.append(2, EventKind.WRITE, variable=value, value=value)
    trace.append(2, EventKind.WRITE, variable=MemoryOrder.SEQ_CST,
                 value=MemoryOrder.RELAXED)
    trace.append(2, EventKind.WRITE, variable=12345678901234,
                 value=-98765432109876)
    return trace


def generator_trace(kind: str = "c11") -> Trace:
    return build_trace(kind, num_threads=3, events=20, seed=7)


def section_table(blob: bytes):
    """Parse the section table: ``{section_id: (offset, length)}``."""
    _magic, _version, _flags, _count, section_count = _PRELUDE.unpack_from(
        blob, 0)
    table = {}
    for position in range(section_count):
        section_id, offset, length = _TABLE_ENTRY.unpack_from(
            blob, _PRELUDE.size + position * _TABLE_ENTRY.size)
        table[section_id] = (offset, length)
    return table


def patch_section(blob: bytes, section_id: int, position: int,
                  replacement: bytes) -> bytes:
    """Overwrite bytes at ``position`` inside one section's payload."""
    offset, length = section_table(blob)[section_id]
    assert position + len(replacement) <= length, "patch escapes section"
    start = offset + position
    return blob[:start] + replacement + blob[start + len(replacement):]


def section_array(blob: bytes, section_id: int, fmt: str) -> list:
    """One fixed-width column section as a list (``fmt`` is one item)."""
    offset, length = section_table(blob)[section_id]
    item = struct.Struct(fmt)
    return [item.unpack_from(blob, offset + at)[0]
            for at in range(0, length, item.size)]


def assert_traces_equal(left: Trace, right: Trace) -> None:
    assert left.name == right.name
    assert len(left) == len(right)
    assert list(left) == list(right)
    assert left.threads == right.threads
    for thread in left.threads:
        assert left.thread_length(thread) == right.thread_length(thread)


# --------------------------------------------------------------------------- #
# Round trips
# --------------------------------------------------------------------------- #
class TestRoundTrip:
    def test_rich_trace_round_trips(self):
        trace = rich_trace()
        loaded = decode_trace(encode_trace(trace))
        assert_traces_equal(trace, loaded)

    def test_empty_trace_round_trips(self):
        trace = Trace(name="empty")
        blob = encode_trace(trace)
        loaded = decode_trace(blob)
        assert len(loaded) == 0
        assert loaded.name == "empty"
        assert loaded.threads == []
        assert list(loaded) == []
        assert loaded.columns().sync() is loaded.columns()

    def test_single_thread_round_trips(self):
        trace = Trace(name="solo")
        for position in range(5):
            trace.append(3, EventKind.WRITE, variable="v", value=position)
        loaded = decode_trace(encode_trace(trace))
        assert_traces_equal(trace, loaded)
        assert loaded.threads == [3]
        assert loaded.max_thread_length == 5

    @pytest.mark.parametrize("kind", sorted(GENERATOR_REGISTRY))
    def test_every_generator_kind_round_trips(self, kind):
        trace = build_trace(kind, num_threads=3, events=12, seed=7)
        loaded = decode_trace(encode_trace(trace))
        assert_traces_equal(trace, loaded)

    def test_adversarial_variables_survive(self):
        trace = Trace(name="adv")
        for value in ADVERSARIAL_VALUES:
            trace.append(0, EventKind.WRITE, variable=value, value=value)
        loaded = decode_trace(encode_trace(trace))
        for event, value in zip(loaded, ADVERSARIAL_VALUES):
            assert event.variable == value
            assert event.value == value

    def test_value_types_are_distinguished(self):
        """True vs 1 vs ``"1"`` vs a memory order never collapse."""
        trace = Trace(name="types")
        for value in (1, True, "1", 0, False, "", MemoryOrder.RELAXED,
                      "relaxed"):
            trace.append(0, EventKind.WRITE, variable="x", value=value)
        values = [event.value for event in decode_trace(encode_trace(trace))]
        assert values == [1, True, "1", 0, False, "", MemoryOrder.RELAXED,
                          "relaxed"]
        assert [type(value) for value in values] == [
            int, bool, str, int, bool, str, MemoryOrder, str]

    def test_std_stc_std_is_text_identical(self):
        trace = generator_trace()
        text = dumps_trace(trace)
        loaded = decode_trace(encode_trace(loads_trace(text)))
        assert dumps_trace(loaded) == text

    def test_derived_views_match(self):
        trace = generator_trace("racy")
        loaded = decode_trace(encode_trace(trace))
        assert loaded.reads_from() == trace.reads_from()
        assert ([(cs.lock, cs.thread, cs.acquire, cs.release)
                 for cs in loaded.critical_sections()]
                == [(cs.lock, cs.thread, cs.acquire, cs.release)
                    for cs in trace.critical_sections()])
        assert loaded.fork_join_edges() == trace.fork_join_edges()

    def test_columns_match_eager_encoding(self):
        trace = generator_trace()
        eager = trace.columns()
        decoded = decode_trace(encode_trace(trace)).columns()
        assert bytes(decoded.kinds) == bytes(eager.kinds)
        assert list(decoded.threads) == list(eager.threads)
        assert list(decoded.var_ids) == list(eager.var_ids)
        assert bytes(decoded.access_flags) == bytes(eager.access_flags)
        assert bytes(decoded.read_flags) == bytes(eager.read_flags)
        assert bytes(decoded.write_flags) == bytes(eager.write_flags)
        assert bytes(decoded.acquire_mo_flags) == bytes(eager.acquire_mo_flags)
        assert bytes(decoded.release_mo_flags) == bytes(eager.release_mo_flags)
        assert ({thread: list(positions)
                 for thread, positions in decoded.thread_positions.items()}
                == {thread: list(positions)
                    for thread, positions in eager.thread_positions.items()})

    def test_decode_name_override(self):
        blob = encode_trace(rich_trace())
        assert decode_trace(blob, name="other").name == "other"


# --------------------------------------------------------------------------- #
# Determinism
# --------------------------------------------------------------------------- #
class TestDeterminism:
    def test_same_trace_same_bytes(self):
        trace = rich_trace()
        assert encode_trace(trace) == encode_trace(trace)

    @pytest.mark.parametrize("kind", sorted(GENERATOR_REGISTRY))
    def test_reencode_is_byte_identical(self, kind):
        blob = encode_trace(build_trace(kind, num_threads=3, events=12,
                                        seed=7))
        assert encode_trace(decode_trace(blob)) == blob

    def test_magic_and_version(self):
        blob = encode_trace(rich_trace())
        assert blob[:4] == STC_MAGIC
        magic, version, flags, count, _sections = _PRELUDE.unpack_from(blob)
        assert magic == STC_MAGIC
        assert version == STC_VERSION
        assert flags == 0
        assert count == len(rich_trace())


# --------------------------------------------------------------------------- #
# The decoded trace
# --------------------------------------------------------------------------- #
class TestDecodedTrace:
    def test_decode_returns_a_plain_trace(self):
        trace = generator_trace()
        loaded = decode_trace(encode_trace(trace))
        assert type(loaded) is Trace
        assert len(loaded) == len(trace)
        assert loaded.threads == trace.threads
        assert loaded.num_threads == trace.num_threads
        assert loaded.max_thread_length == trace.max_thread_length
        for thread in trace.threads:
            assert loaded.thread_events(thread) == trace.thread_events(thread)
        columns = loaded.columns()
        assert len(columns.kinds) == len(trace)
        assert columns.sync() is columns
        assert list(columns.events) == list(loaded)

    def test_indexing(self):
        trace = generator_trace()
        loaded = decode_trace(encode_trace(trace))
        assert loaded[5] == trace[5]
        assert loaded[5] is loaded[5]

    def test_negative_and_slice_indexing(self):
        trace = generator_trace()
        loaded = decode_trace(encode_trace(trace))
        assert loaded[-1] == trace[len(trace) - 1]
        assert loaded[2:5] == list(trace)[2:5]
        with pytest.raises(IndexError):
            loaded[len(trace)]

    def test_event_at(self):
        trace = generator_trace()
        loaded = decode_trace(encode_trace(trace))
        node = (trace.threads[0], 2)
        assert loaded.event_at(node) == trace.event_at(node)
        for event in loaded:
            assert loaded.event_at(event.node) is event

    def test_derived_indexes(self):
        trace = generator_trace("racy")
        loaded = decode_trace(encode_trace(trace))
        assert loaded.locks_held_map() == trace.locks_held_map()
        assert list(loaded) == list(trace)

    def test_append_after_load_extends_columns(self):
        trace = generator_trace()
        loaded = decode_trace(encode_trace(trace))
        columns = loaded.columns()
        before = len(columns.kinds)
        loaded.append(0, EventKind.WRITE, variable="zz", value=9)
        assert len(loaded) == len(trace) + 1
        synced = loaded.columns()
        assert len(synced.kinds) == before + 1
        assert loaded[-1].variable == "zz"


# --------------------------------------------------------------------------- #
# Corruption and truncation
# --------------------------------------------------------------------------- #
class TestCorruption:
    def decode_error(self, blob: bytes) -> str:
        with pytest.raises(TraceFormatError) as info:
            decode_trace(blob)
        return str(info.value)

    def test_bad_magic(self):
        blob = encode_trace(rich_trace())
        assert "magic" in self.decode_error(b"XXXX" + blob[4:])

    def test_bad_version(self):
        blob = encode_trace(rich_trace())
        mutated = blob[:4] + struct.pack("<H", 999) + blob[6:]
        assert "version" in self.decode_error(mutated)

    def test_empty_input(self):
        self.decode_error(b"")

    def test_not_a_trace_at_all(self):
        self.decode_error(b"# STD trace impostor\n" * 4)

    def test_truncation_at_every_byte(self):
        """Cutting the blob at ANY byte must raise TraceFormatError --
        never IndexError, struct.error, or a silently shorter trace."""
        blob = encode_trace(generator_trace())
        for cut in range(len(blob)):
            with pytest.raises(TraceFormatError):
                decode_trace(blob[:cut])
        assert len(decode_trace(blob)) == len(generator_trace())

    def test_truncated_empty_trace_blob(self):
        blob = encode_trace(Trace(name="empty"))
        for cut in range(len(blob)):
            with pytest.raises(TraceFormatError):
                decode_trace(blob[:cut])

    def test_kind_code_out_of_range(self):
        blob = patch_section(encode_trace(rich_trace()), SEC_KINDS, 0,
                             b"\xff")
        assert "kind" in self.decode_error(blob)

    def test_memory_order_code_out_of_range(self):
        blob = patch_section(encode_trace(rich_trace()), SEC_MO_CODES, 0,
                             b"\x63")
        assert "memory order" in self.decode_error(blob).replace("-", " ")

    def test_atomic_flag_out_of_range(self):
        blob = patch_section(encode_trace(rich_trace()), SEC_ATOMIC, 0,
                             b"\x07")
        assert "ATOMIC" in self.decode_error(blob)

    def test_variable_id_out_of_range(self):
        blob = patch_section(encode_trace(rich_trace()), SEC_VAR_IDS, 4,
                             struct.pack("<i", 1_000_000))
        self.decode_error(blob)

    def test_pool_id_out_of_range(self):
        blob = patch_section(encode_trace(rich_trace()), SEC_VALUE_IDS, 4,
                             struct.pack("<i", 1_000_000))
        self.decode_error(blob)

    def test_negative_id_below_minus_one(self):
        blob = patch_section(encode_trace(rich_trace()), SEC_VALUE_IDS, 4,
                             struct.pack("<i", -2))
        self.decode_error(blob)

    def test_flag_column_disagrees_with_kinds(self):
        trace = Trace(name="flags")
        trace.append(0, EventKind.READ, variable="x", value=1)
        blob = encode_trace(trace)
        offset, _length = section_table(blob)[SEC_ACCESS]
        flipped = blob[:offset] + bytes([blob[offset] ^ 1]) + blob[offset + 1:]
        self.decode_error(flipped)

    def test_thread_table_unsorted(self):
        trace = Trace(name="tt")
        trace.append(5, EventKind.WRITE, variable="x", value=1)
        trace.append(9, EventKind.WRITE, variable="x", value=2)
        blob = encode_trace(trace)
        offset, length = section_table(blob)[SEC_THREAD_TABLE]
        payload = blob[offset:offset + length]
        entry = struct.Struct("<qQ")
        first = payload[4:4 + entry.size]
        second = payload[4 + entry.size:4 + 2 * entry.size]
        swapped = blob[:offset] + payload[:4] + second + first \
            + blob[offset + length:]
        self.decode_error(swapped)

    def test_thread_table_zero_count(self):
        trace = Trace(name="tt")
        trace.append(5, EventKind.WRITE, variable="x", value=1)
        blob = encode_trace(trace)
        offset, _length = section_table(blob)[SEC_THREAD_TABLE]
        mutated = patch_section(blob, SEC_THREAD_TABLE, 4,
                                struct.pack("<qQ", 5, 0))
        self.decode_error(mutated)

    def test_position_out_of_range(self):
        trace = Trace(name="pos")
        trace.append(0, EventKind.WRITE, variable="x", value=1)
        blob = encode_trace(trace)
        mutated = patch_section(blob, SEC_POSITIONS, 0,
                                struct.pack("<q", 7))
        self.decode_error(mutated)

    def test_section_offset_out_of_bounds(self):
        blob = encode_trace(rich_trace())
        table_at = _PRELUDE.size  # first entry
        section_id, offset, length = _TABLE_ENTRY.unpack_from(blob, table_at)
        lying = blob[:table_at] + _TABLE_ENTRY.pack(
            section_id, len(blob), length) + blob[table_at
                                                  + _TABLE_ENTRY.size:]
        self.decode_error(lying)

    def test_section_length_overruns_blob(self):
        blob = encode_trace(rich_trace())
        table_at = _PRELUDE.size
        section_id, offset, _length = _TABLE_ENTRY.unpack_from(blob, table_at)
        lying = blob[:table_at] + _TABLE_ENTRY.pack(
            section_id, offset, len(blob)) + blob[table_at
                                                  + _TABLE_ENTRY.size:]
        self.decode_error(lying)

    def test_duplicate_section_id(self):
        blob = encode_trace(rich_trace())
        first = _TABLE_ENTRY.unpack_from(blob, _PRELUDE.size)
        second_at = _PRELUDE.size + _TABLE_ENTRY.size
        lying = blob[:second_at] + _TABLE_ENTRY.pack(*first) \
            + blob[second_at + _TABLE_ENTRY.size:]
        self.decode_error(lying)

    def test_every_section_is_individually_required(self):
        """Zeroing any table entry's id (making that section 'unknown')
        must fail: the decoder demands all sections listed."""
        blob = encode_trace(rich_trace())
        for position in range(len(SECTION_NAMES)):
            entry_at = _PRELUDE.size + position * _TABLE_ENTRY.size
            _sid, offset, length = _TABLE_ENTRY.unpack_from(blob, entry_at)
            mutated = blob[:entry_at] + _TABLE_ENTRY.pack(
                4_000_000_000, offset, length) \
                + blob[entry_at + _TABLE_ENTRY.size:]
            self.decode_error(mutated)

    def test_wrong_array_section_length(self):
        """A lying length (not count*itemsize) on a typed column."""
        blob = encode_trace(rich_trace())
        for position in range(len(SECTION_NAMES)):
            entry_at = _PRELUDE.size + position * _TABLE_ENTRY.size
            section_id, offset, length = _TABLE_ENTRY.unpack_from(
                blob, entry_at)
            if section_id in (SEC_KINDS, SEC_VAR_IDS, SEC_POSITIONS):
                mutated = blob[:entry_at] + _TABLE_ENTRY.pack(
                    section_id, offset, length - 1) \
                    + blob[entry_at + _TABLE_ENTRY.size:]
                self.decode_error(mutated)

    def test_every_node_is_checked(self):
        """Two INDEXES entries rewritten to 0: each event's index no
        longer matches its place in its thread's chain.  The thread
        table's first and last positions still agree, so only a check of
        every node catches it."""
        trace = build_trace("c11", num_threads=3, events=20, seed=1)
        blob = encode_trace(trace)
        for position in (1, 2):
            blob = patch_section(blob, SEC_INDEXES, 8 * position,
                                 struct.pack("<q", 0))
        assert "INDEXES" in self.decode_error(blob)

    def test_positions_must_increase(self):
        trace = Trace(name="order")
        trace.append(0, EventKind.WRITE, variable="x", value=1)
        trace.append(0, EventKind.WRITE, variable="x", value=2)
        blob = encode_trace(trace)
        mutated = patch_section(blob, SEC_POSITIONS, 0,
                                struct.pack("<qq", 1, 0))
        assert "increasing" in self.decode_error(mutated)

    def test_fork_target_must_be_an_integer(self):
        trace = Trace(name="fork")
        trace.append(0, EventKind.WRITE, variable="x", value="text")
        trace.append(0, EventKind.FORK, target=1)
        blob = encode_trace(trace)
        text_id = section_array(blob, SEC_VALUE_IDS, "<i")[0]
        mutated = patch_section(blob, SEC_TARGET_IDS, 4,
                                struct.pack("<i", text_id))
        assert self.decode_error(mutated) == (
            "event 1 has a non-integer fork/join target 'text'")

    def test_operation_must_be_a_string(self):
        trace = Trace(name="op")
        trace.append(0, EventKind.BEGIN, operation="enqueue", argument=41)
        blob = encode_trace(trace)
        argument_id = section_array(blob, SEC_ARG_IDS, "<i")[0]
        mutated = patch_section(blob, SEC_OP_IDS, 0,
                                struct.pack("<i", argument_id))
        assert self.decode_error(mutated) == (
            "event 0 has a non-string operation 41")

    def test_encode_rejects_oversized_identifiers(self):
        trace = Trace(name="big")
        trace.append(2 ** 70, EventKind.WRITE, variable="x", value=1)
        with pytest.raises(TraceFormatError):
            encode_trace(trace)


class TestNodeSectionMutations:
    """Any single entry of INDEXES, THREADS or POSITIONS rewritten to any
    nearby value: decoding raises :class:`TraceFormatError` or returns a
    trace in which every event sits at its own node."""

    @pytest.mark.parametrize("section_id",
                             [SEC_INDEXES, SEC_THREADS, SEC_POSITIONS],
                             ids=["INDEXES", "THREADS", "POSITIONS"])
    def test_single_entry_changes(self, section_id):
        trace = build_trace("fork-join", num_threads=3, events=12, seed=3)
        blob = encode_trace(trace)
        original = section_array(blob, section_id, "<q")
        replacements = (set(range(-1, len(trace) + 1)) | set(trace.threads)
                        | {max(trace.threads) + 1, 2 ** 40})
        for entry, value in enumerate(original):
            for replacement in sorted(replacements - {value}):
                mutated = patch_section(blob, section_id, 8 * entry,
                                        struct.pack("<q", replacement))
                try:
                    loaded = decode_trace(mutated)
                except TraceFormatError:
                    continue
                for event in loaded:
                    assert loaded.event_at(event.node) is event


# --------------------------------------------------------------------------- #
# File I/O
# --------------------------------------------------------------------------- #
class TestFileIO:
    def test_write_read_stc(self, tmp_path):
        trace = rich_trace()
        path = tmp_path / "t.stc"
        write_trace_stc(trace, path)
        assert path.read_bytes()[:4] == STC_MAGIC
        assert_traces_equal(trace, read_trace_stc(path))

    def test_write_read_stc_gz(self, tmp_path):
        trace = rich_trace()
        path = tmp_path / "t.stc.gz"
        write_trace_stc(trace, path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert_traces_equal(trace, read_trace_stc(path))

    def test_gzip_writes_are_byte_reproducible(self, tmp_path):
        trace = rich_trace()
        first, second = tmp_path / "a.stc.gz", tmp_path / "b.stc.gz"
        write_trace_stc(trace, first)
        write_trace_stc(trace, second)
        assert first.read_bytes() == second.read_bytes()

    def test_read_detects_gzip_by_content(self, tmp_path):
        """A gzipped blob under a plain ``.stc`` name still loads."""
        trace = rich_trace()
        path = tmp_path / "t.stc"
        path.write_bytes(gzip.compress(encode_trace(trace), mtime=0))
        assert_traces_equal(trace, read_trace_stc(path))

    def test_empty_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "t.stc"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError):
            read_trace_stc(path)

    def test_read_name_defaults_to_embedded_name(self, tmp_path):
        path = tmp_path / "t.stc"
        write_trace_stc(rich_trace(), path)
        assert read_trace_stc(path).name == "rich"
