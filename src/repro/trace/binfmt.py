"""Binary columnar trace format (``.stc`` -- "serialized trace columns").

An ``.stc`` file is :class:`~repro.trace.columns.TraceColumns` on disk: a
fixed prelude, a section table, then one section per column, each a typed
:mod:`array` blob that loads with a single ``array.frombytes`` over a
``memoryview`` slice.  Decoding validates every section, builds all
events in one pass and returns a plain :class:`~repro.trace.trace.Trace`
whose columnar view and per-thread position lists come straight from the
decoded sections -- the same object the STD loader returns.

Layout (version 1, everything little-endian)::

    prelude     magic b"\\x89STC" | version u16 | flags u16
                | event_count u64 | section_count u32
    table       section_count x (section_id u32 | offset u64 | length u64)
    sections    raw bytes, referenced by the table

Sections (ids in :data:`SECTION_NAMES`)::

    NAME          trace name, UTF-8
    POOL          value-interning pool: entry_count u32, then tagged
                  entries (INT: zigzag varint; FALSE/TRUE: empty;
                  STR: varint byte length + UTF-8; MO: u8 memory-order code)
    VARIABLES     variable table: count u32 + pool ids u32[], in
                  first-appearance order (``TraceColumns.variables``)
    KINDS         u8[n]   kind codes (:data:`~repro.trace.columns.KIND_CODES`)
    THREADS       i64[n]  thread ids
    INDEXES       i64[n]  per-thread sequence ids
    VAR_IDS       i32[n]  interned variable id, -1 when absent
    VALUE_IDS     i32[n]  pool id of ``event.value``, -1 when absent
    TARGET_IDS    i32[n]  pool id of ``event.target``, -1 when absent
    MO_CODES      u8[n]   memory-order code (0 = none, then enum order)
    OP_IDS        i32[n]  pool id of ``event.operation``, -1 when absent
    ARG_IDS       i32[n]  pool id of ``event.argument``, -1 when absent
    RESULT_IDS    i32[n]  pool id of ``event.result``, -1 when absent
    ATOMIC        u8[n]   ``event.atomic`` flags
    ACCESS/READ/WRITE/ACQUIRE_MO/RELEASE_MO
                  u8[n]   predicate flag columns (redundant with KINDS and
                  MO_CODES; stored so the columnar view needs no re-derive
                  pass and *verified* against them on load)
    THREAD_TABLE  count u32 + count x (thread_id i64 | event_count u64),
                  sorted by thread id
    POSITIONS     i64[n]  per-thread global positions, concatenated in
                  THREAD_TABLE order (``TraceColumns.thread_positions``)

Encoding is deterministic: the same trace always serialises to identical
bytes (pool and variable ids are assigned in first-reference order, the
thread table is sorted), and ``.stc.gz`` uses the same canonical gzip
parameters as the text format (zeroed mtime, no embedded filename).

Every integrity violation raises :class:`~repro.errors.TraceFormatError`;
see :func:`decode_trace`.
"""

from __future__ import annotations

import gzip
import mmap
import struct
import sys
from array import array
from pathlib import Path
from operator import lt as _lt
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import TraceFormatError
from repro.trace.columns import (
    _ACCESS_CODES,
    _READ_CODES,
    _WRITE_CODES,
    KIND_BY_CODE,
    KIND_CODES,
    TraceColumns,
)
from repro.trace.event import Event, MemoryOrder
from repro.trace.trace import Trace

#: First bytes of every ``.stc`` file (high bit set, like PNG, so text
#: tools cannot mistake it for STD).
STC_MAGIC = b"\x89STC"

#: The one format version this build reads and writes.
STC_VERSION = 1

# The on-disk integer widths are fixed; ``array`` typecodes are only
# C-width *aliases*, so pin them down once at import time.
_U8, _I32, _U32, _I64 = "B", "i", "I", "q"
if (array(_I32).itemsize, array(_U32).itemsize, array(_I64).itemsize) != (4, 4, 8):
    raise ImportError(
        "repro.trace.binfmt requires 4-byte 'i'/'I' and 8-byte 'q' arrays"
    )  # pragma: no cover - never on CPython's supported platforms

_BIG_ENDIAN = sys.byteorder == "big"

_PRELUDE = struct.Struct("<4sHHQI")
_TABLE_ENTRY = struct.Struct("<IQQ")
_THREAD_ENTRY = struct.Struct("<qQ")
_U32_STRUCT = struct.Struct("<I")

# Section ids.
SEC_NAME = 1
SEC_POOL = 2
SEC_VARIABLES = 3
SEC_KINDS = 4
SEC_THREADS = 5
SEC_INDEXES = 6
SEC_VAR_IDS = 7
SEC_VALUE_IDS = 8
SEC_TARGET_IDS = 9
SEC_MO_CODES = 10
SEC_OP_IDS = 11
SEC_ARG_IDS = 12
SEC_RESULT_IDS = 13
SEC_ATOMIC = 14
SEC_ACCESS = 15
SEC_READ = 16
SEC_WRITE = 17
SEC_ACQUIRE_MO = 18
SEC_RELEASE_MO = 19
SEC_THREAD_TABLE = 20
SEC_POSITIONS = 21

#: Human-readable section names, used in error messages and docs.
SECTION_NAMES = {
    SEC_NAME: "NAME",
    SEC_POOL: "POOL",
    SEC_VARIABLES: "VARIABLES",
    SEC_KINDS: "KINDS",
    SEC_THREADS: "THREADS",
    SEC_INDEXES: "INDEXES",
    SEC_VAR_IDS: "VAR_IDS",
    SEC_VALUE_IDS: "VALUE_IDS",
    SEC_TARGET_IDS: "TARGET_IDS",
    SEC_MO_CODES: "MO_CODES",
    SEC_OP_IDS: "OP_IDS",
    SEC_ARG_IDS: "ARG_IDS",
    SEC_RESULT_IDS: "RESULT_IDS",
    SEC_ATOMIC: "ATOMIC",
    SEC_ACCESS: "ACCESS",
    SEC_READ: "READ",
    SEC_WRITE: "WRITE",
    SEC_ACQUIRE_MO: "ACQUIRE_MO",
    SEC_RELEASE_MO: "RELEASE_MO",
    SEC_THREAD_TABLE: "THREAD_TABLE",
    SEC_POSITIONS: "POSITIONS",
}

# Value-pool entry tags.
_TAG_INT = 1
_TAG_FALSE = 2
_TAG_TRUE = 3
_TAG_STR = 4
_TAG_MO = 5

#: Memory-order wire codes: 0 is "no memory order", then enum order.
_MO_CODE = {order: code for code, order in enumerate(MemoryOrder, start=1)}
_MO_BY_CODE = (None,) + tuple(MemoryOrder)

# 256-entry translate tables deriving each flag column from the kind (or
# memory-order) code column in one C-level pass; used both to encode and
# to cross-check the stored flag sections on load.
_ACCESS_TABLE = bytes(1 if code in _ACCESS_CODES else 0 for code in range(256))
_READ_TABLE = bytes(1 if code in _READ_CODES else 0 for code in range(256))
_WRITE_TABLE = bytes(1 if code in _WRITE_CODES else 0 for code in range(256))
_ACQ_MO_TABLE = bytes(
    1 if (0 < code < len(_MO_BY_CODE) and _MO_BY_CODE[code].is_acquire) else 0
    for code in range(256)
)
_REL_MO_TABLE = bytes(
    1 if (0 < code < len(_MO_BY_CODE) and _MO_BY_CODE[code].is_release) else 0
    for code in range(256)
)


# --------------------------------------------------------------------------- #
# Varints
# --------------------------------------------------------------------------- #
def _append_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data, offset: int, end: int, label: str) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= end:
            raise TraceFormatError(f"truncated varint in {label}")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 1024:  # a legitimate int never needs 147 continuation bytes
            raise TraceFormatError(f"runaway varint in {label}")


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


# --------------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------------- #
def _intern_key(value) -> tuple:
    # The tag participates in the key so ``True`` and ``1`` (equal, same
    # hash) intern to *distinct* pool entries and round-trip with their
    # types intact -- the same reason the STD format prefixes values.
    if isinstance(value, bool):
        return (_TAG_TRUE if value else _TAG_FALSE,)
    if isinstance(value, int):
        return (_TAG_INT, value)
    if isinstance(value, MemoryOrder):
        return (_TAG_MO, _MO_CODE[value])
    # Everything else serialises as its string form, matching STD's
    # ``str:`` fallback semantics.
    return (_TAG_STR, value if isinstance(value, str) else str(value))


def _arr_bytes(arr: array) -> bytes:
    if _BIG_ENDIAN:  # pragma: no cover - little-endian hosts in CI
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def encode_trace(trace: Trace) -> bytes:
    """Serialise ``trace`` to ``.stc`` bytes (deterministic: equal traces
    encode to identical bytes).

    Raises
    ------
    TraceFormatError
        If an event carries data the format cannot hold (a thread id
        outside i64, or more than 2**31 interned values/variables).
    """
    pool_ids: Dict[tuple, int] = {}
    pool_blob = bytearray()

    def intern(value) -> int:
        key = _intern_key(value)
        pool_id = pool_ids.get(key)
        if pool_id is None:
            pool_id = pool_ids[key] = len(pool_ids)
            tag = key[0]
            pool_blob.append(tag)
            if tag == _TAG_INT:
                _append_uvarint(pool_blob, _zigzag(key[1]))
            elif tag == _TAG_STR:
                encoded = key[1].encode("utf-8")
                _append_uvarint(pool_blob, len(encoded))
                pool_blob.extend(encoded)
            elif tag == _TAG_MO:
                pool_blob.append(key[1])
        return pool_id

    kinds = bytearray()
    threads = array(_I64)
    indexes = array(_I64)
    var_ids = array(_I32)
    value_ids = array(_I32)
    target_ids = array(_I32)
    mo_codes = bytearray()
    op_ids = array(_I32)
    arg_ids = array(_I32)
    result_ids = array(_I32)
    atomic_flags = bytearray()
    variable_pool_ids: List[int] = []
    var_by_pool: Dict[int, int] = {}
    thread_positions: Dict[int, List[int]] = {}

    try:
        for position, event in enumerate(trace):
            kinds.append(KIND_CODES[event.kind])
            thread = event.thread
            threads.append(thread)
            indexes.append(event.index)
            variable = event.variable
            if variable is None:
                var_ids.append(-1)
            else:
                pool_id = intern(variable)
                var_id = var_by_pool.get(pool_id)
                if var_id is None:
                    var_id = var_by_pool[pool_id] = len(variable_pool_ids)
                    variable_pool_ids.append(pool_id)
                var_ids.append(var_id)
            value_ids.append(-1 if event.value is None else intern(event.value))
            target_ids.append(
                -1 if event.target is None else intern(event.target))
            memory_order = event.memory_order
            if memory_order is None:
                mo_codes.append(0)
            else:
                code = _MO_CODE.get(memory_order)
                if code is None:
                    raise TraceFormatError(
                        f"cannot encode memory order {memory_order!r}")
                mo_codes.append(code)
            op_ids.append(
                -1 if event.operation is None else intern(event.operation))
            arg_ids.append(
                -1 if event.argument is None else intern(event.argument))
            result_ids.append(
                -1 if event.result is None else intern(event.result))
            atomic_flags.append(1 if event.atomic else 0)
            positions = thread_positions.get(thread)
            if positions is None:
                positions = thread_positions[thread] = []
            positions.append(position)
    except (OverflowError, TypeError) as error:
        raise TraceFormatError(
            f"trace has an identifier outside the .stc integer range: {error}"
        ) from None

    count = len(kinds)
    kind_bytes = bytes(kinds)
    mo_bytes = bytes(mo_codes)
    thread_table = bytearray(_U32_STRUCT.pack(len(thread_positions)))
    positions_flat = array(_I64)
    for thread in sorted(thread_positions):
        positions = thread_positions[thread]
        thread_table += _THREAD_ENTRY.pack(thread, len(positions))
        positions_flat.extend(positions)

    sections = (
        (SEC_NAME, str(trace.name).encode("utf-8")),
        (SEC_POOL, _U32_STRUCT.pack(len(pool_ids)) + bytes(pool_blob)),
        (SEC_VARIABLES,
         _U32_STRUCT.pack(len(variable_pool_ids))
         + _arr_bytes(array(_U32, variable_pool_ids))),
        (SEC_KINDS, kind_bytes),
        (SEC_THREADS, _arr_bytes(threads)),
        (SEC_INDEXES, _arr_bytes(indexes)),
        (SEC_VAR_IDS, _arr_bytes(var_ids)),
        (SEC_VALUE_IDS, _arr_bytes(value_ids)),
        (SEC_TARGET_IDS, _arr_bytes(target_ids)),
        (SEC_MO_CODES, mo_bytes),
        (SEC_OP_IDS, _arr_bytes(op_ids)),
        (SEC_ARG_IDS, _arr_bytes(arg_ids)),
        (SEC_RESULT_IDS, _arr_bytes(result_ids)),
        (SEC_ATOMIC, bytes(atomic_flags)),
        (SEC_ACCESS, kind_bytes.translate(_ACCESS_TABLE)),
        (SEC_READ, kind_bytes.translate(_READ_TABLE)),
        (SEC_WRITE, kind_bytes.translate(_WRITE_TABLE)),
        (SEC_ACQUIRE_MO, mo_bytes.translate(_ACQ_MO_TABLE)),
        (SEC_RELEASE_MO, mo_bytes.translate(_REL_MO_TABLE)),
        (SEC_THREAD_TABLE, bytes(thread_table)),
        (SEC_POSITIONS, _arr_bytes(positions_flat)),
    )
    offset = _PRELUDE.size + _TABLE_ENTRY.size * len(sections)
    table = bytearray()
    payload = bytearray()
    for section_id, blob in sections:
        table += _TABLE_ENTRY.pack(section_id, offset, len(blob))
        payload += blob
        offset += len(blob)
    return (_PRELUDE.pack(STC_MAGIC, STC_VERSION, 0, count, len(sections))
            + bytes(table) + bytes(payload))


# --------------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------------- #
def _decode_pool(data, offset: int, length: int) -> List[Any]:
    end = offset + length
    if length < 4:
        raise TraceFormatError("POOL section too short for its entry count")
    (count,) = _U32_STRUCT.unpack_from(data, offset)
    offset += 4
    pool: List[Any] = []
    for _ in range(count):
        if offset >= end:
            raise TraceFormatError(
                f"POOL section truncated: {count} entries promised, "
                f"{len(pool)} decoded")
        tag = data[offset]
        offset += 1
        if tag == _TAG_INT:
            raw, offset = _read_uvarint(data, offset, end, "POOL int entry")
            pool.append(_unzigzag(raw))
        elif tag == _TAG_FALSE:
            pool.append(False)
        elif tag == _TAG_TRUE:
            pool.append(True)
        elif tag == _TAG_STR:
            size, offset = _read_uvarint(data, offset, end, "POOL string entry")
            if offset + size > end:
                raise TraceFormatError(
                    f"POOL string entry overruns the section by "
                    f"{offset + size - end} bytes")
            try:
                pool.append(bytes(data[offset:offset + size]).decode("utf-8"))
            except UnicodeDecodeError as error:
                raise TraceFormatError(
                    f"POOL string entry is not valid UTF-8: {error}") from None
            offset += size
        elif tag == _TAG_MO:
            if offset >= end:
                raise TraceFormatError("POOL memory-order entry truncated")
            code = data[offset]
            offset += 1
            if not 1 <= code < len(_MO_BY_CODE):
                raise TraceFormatError(
                    f"POOL memory-order code {code} out of range")
            pool.append(_MO_BY_CODE[code])
        else:
            raise TraceFormatError(f"unknown POOL entry tag {tag}")
    if offset != end:
        raise TraceFormatError(
            f"POOL section has {end - offset} trailing bytes after its "
            f"{count} entries")
    return pool


def _check_id_column(arr: array, label: str, limit: int,
                     limit_label: str) -> None:
    if len(arr) and (min(arr) < -1 or max(arr) >= limit):
        raise TraceFormatError(
            f"{label} section has an id outside [-1, {limit}) "
            f"({limit_label})")


def decode_trace(data, name: Optional[str] = None) -> Trace:
    """Decode ``.stc`` bytes into a :class:`~repro.trace.trace.Trace`.

    ``data`` is any bytes-like object (``bytes``, ``memoryview``, an
    ``mmap``).  The columns are validated first -- section bounds, id
    ranges, value types, flag-column consistency with the kind and
    memory-order codes -- then every event is built in one pass and
    every node of the thread table is checked against the THREADS and
    INDEXES columns.  ``name`` overrides the stored trace name when
    given.

    Raises
    ------
    TraceFormatError
        On any malformed input: wrong magic, unsupported version,
        truncated or overlapping sections, bad lengths, out-of-range ids,
        inconsistent flag columns, a thread table or position list that
        disagrees with the THREADS and INDEXES columns.
    """
    view = memoryview(data)
    total = len(view)
    if total < _PRELUDE.size:
        raise TraceFormatError(
            f"not an .stc trace: {total} bytes is shorter than the "
            f"{_PRELUDE.size}-byte prelude")
    magic, version, _flags, count, section_count = _PRELUDE.unpack_from(view, 0)
    if magic != STC_MAGIC:
        raise TraceFormatError(
            f"not an .stc trace: bad magic {bytes(magic)!r} "
            f"(expected {STC_MAGIC!r})")
    if version != STC_VERSION:
        raise TraceFormatError(
            f"unsupported .stc version {version}; this build reads "
            f"version {STC_VERSION}")
    table_end = _PRELUDE.size + _TABLE_ENTRY.size * section_count
    if total < table_end:
        raise TraceFormatError(
            f"section table truncated: {section_count} entries need "
            f"{table_end} bytes, file has {total}")
    sections: Dict[int, Tuple[int, int]] = {}
    for entry in range(section_count):
        section_id, offset, length = _TABLE_ENTRY.unpack_from(
            view, _PRELUDE.size + _TABLE_ENTRY.size * entry)
        section_name = SECTION_NAMES.get(section_id, str(section_id))
        if section_id in sections:
            raise TraceFormatError(f"duplicate section {section_name}")
        if offset < table_end or offset + length > total:
            raise TraceFormatError(
                f"section {section_name} [{offset}, {offset + length}) "
                f"lies outside the file payload [{table_end}, {total})")
        sections[section_id] = (offset, length)

    def section(section_id: int) -> Tuple[int, int]:
        entry = sections.get(section_id)
        if entry is None:
            raise TraceFormatError(
                f"missing required section {SECTION_NAMES[section_id]}")
        return entry

    def byte_column(section_id: int) -> bytearray:
        offset, length = section(section_id)
        if length != count:
            raise TraceFormatError(
                f"section {SECTION_NAMES[section_id]} holds {length} bytes "
                f"for {count} events")
        return bytearray(view[offset:offset + length])

    def array_column(section_id: int, typecode: str,
                     expected: int) -> array:
        offset, length = section(section_id)
        itemsize = 4 if typecode in (_I32, _U32) else 8
        if length != expected * itemsize:
            raise TraceFormatError(
                f"section {SECTION_NAMES[section_id]} holds {length} bytes; "
                f"expected {expected} x {itemsize}")
        arr = array(typecode)
        arr.frombytes(view[offset:offset + length])
        if _BIG_ENDIAN:  # pragma: no cover - little-endian hosts in CI
            arr.byteswap()
        return arr

    name_offset, name_length = section(SEC_NAME)
    try:
        stored_name = bytes(
            view[name_offset:name_offset + name_length]).decode("utf-8")
    except UnicodeDecodeError as error:
        raise TraceFormatError(
            f"NAME section is not valid UTF-8: {error}") from None

    pool_offset, pool_length = section(SEC_POOL)
    pool = _decode_pool(view, pool_offset, pool_length)

    vars_offset, vars_length = section(SEC_VARIABLES)
    if vars_length < 4:
        raise TraceFormatError(
            "VARIABLES section too short for its entry count")
    (var_count,) = _U32_STRUCT.unpack_from(view, vars_offset)
    if vars_length != 4 + 4 * var_count:
        raise TraceFormatError(
            f"VARIABLES section holds {vars_length} bytes for "
            f"{var_count} entries")
    var_pool_ids = array(_U32)
    var_pool_ids.frombytes(view[vars_offset + 4:vars_offset + vars_length])
    if _BIG_ENDIAN:  # pragma: no cover - little-endian hosts in CI
        var_pool_ids.byteswap()
    if len(var_pool_ids) and max(var_pool_ids) >= len(pool):
        raise TraceFormatError(
            f"VARIABLES section references pool id "
            f"{max(var_pool_ids)} outside the {len(pool)}-entry pool")
    variables = [pool[pool_id] for pool_id in var_pool_ids]

    kinds = byte_column(SEC_KINDS)
    threads = array_column(SEC_THREADS, _I64, count)
    indexes = array_column(SEC_INDEXES, _I64, count)
    var_ids = array_column(SEC_VAR_IDS, _I32, count)
    value_ids = array_column(SEC_VALUE_IDS, _I32, count)
    target_ids = array_column(SEC_TARGET_IDS, _I32, count)
    mo_codes = byte_column(SEC_MO_CODES)
    op_ids = array_column(SEC_OP_IDS, _I32, count)
    arg_ids = array_column(SEC_ARG_IDS, _I32, count)
    result_ids = array_column(SEC_RESULT_IDS, _I32, count)
    atomic_flags = byte_column(SEC_ATOMIC)
    access_flags = byte_column(SEC_ACCESS)
    read_flags = byte_column(SEC_READ)
    write_flags = byte_column(SEC_WRITE)
    acquire_mo_flags = byte_column(SEC_ACQUIRE_MO)
    release_mo_flags = byte_column(SEC_RELEASE_MO)

    if count:
        if max(kinds) >= len(KIND_BY_CODE):
            raise TraceFormatError(
                f"KINDS section has code {max(kinds)}; only "
                f"{len(KIND_BY_CODE)} event kinds exist")
        if max(mo_codes) >= len(_MO_BY_CODE):
            raise TraceFormatError(
                f"MO_CODES section has code {max(mo_codes)}; only "
                f"{len(_MO_BY_CODE) - 1} memory orders exist")
        if max(atomic_flags) > 1:
            raise TraceFormatError(
                f"ATOMIC section has flag {max(atomic_flags)}; flags are "
                f"0 or 1")
    _check_id_column(var_ids, "VAR_IDS", len(variables),
                     "the variable table size")
    for section_id, arr in ((SEC_VALUE_IDS, value_ids),
                            (SEC_TARGET_IDS, target_ids),
                            (SEC_OP_IDS, op_ids),
                            (SEC_ARG_IDS, arg_ids),
                            (SEC_RESULT_IDS, result_ids)):
        _check_id_column(arr, SECTION_NAMES[section_id], len(pool),
                         "the value pool size")
    for section_id, stored, derived in (
            (SEC_ACCESS, access_flags, kinds.translate(_ACCESS_TABLE)),
            (SEC_READ, read_flags, kinds.translate(_READ_TABLE)),
            (SEC_WRITE, write_flags, kinds.translate(_WRITE_TABLE)),
            (SEC_ACQUIRE_MO, acquire_mo_flags,
             mo_codes.translate(_ACQ_MO_TABLE)),
            (SEC_RELEASE_MO, release_mo_flags,
             mo_codes.translate(_REL_MO_TABLE))):
        if stored != derived:
            raise TraceFormatError(
                f"section {SECTION_NAMES[section_id]} disagrees with the "
                f"flags derived from the kind/memory-order codes")

    events = _decode_events(
        pool, variables, kinds, threads, indexes, var_ids, value_ids,
        target_ids, mo_codes, op_ids, arg_ids, result_ids, atomic_flags)

    table_offset, table_length = section(SEC_THREAD_TABLE)
    if table_length < 4:
        raise TraceFormatError(
            "THREAD_TABLE section too short for its entry count")
    (thread_count,) = _U32_STRUCT.unpack_from(view, table_offset)
    if table_length != 4 + _THREAD_ENTRY.size * thread_count:
        raise TraceFormatError(
            f"THREAD_TABLE section holds {table_length} bytes for "
            f"{thread_count} entries")
    positions_flat = array_column(SEC_POSITIONS, _I64, count)
    if count and (min(positions_flat) < 0 or max(positions_flat) >= count):
        raise TraceFormatError(
            f"POSITIONS section has a position outside [0, {count})")
    chains: Dict[int, List[Event]] = {}
    thread_positions: Dict[int, array] = {}
    cursor = 0
    previous = None
    for entry in range(thread_count):
        thread, length = _THREAD_ENTRY.unpack_from(
            view, table_offset + 4 + _THREAD_ENTRY.size * entry)
        if previous is not None and thread <= previous:
            raise TraceFormatError(
                "THREAD_TABLE entries are not sorted by thread id")
        previous = thread
        if length == 0 or cursor + length > count:
            raise TraceFormatError(
                f"THREAD_TABLE entry for thread {thread} claims {length} "
                f"events; {count - cursor} positions remain")
        positions = positions_flat[cursor:cursor + length]
        cursor += length
        # Every node: the thread's positions run forward through the
        # trace, each holds an event of this thread, and that event's
        # index is its place in the chain.  With the total checked below,
        # the chains then partition the events exactly as appending them
        # in order would.
        if not all(map(_lt, positions, positions[1:])):
            raise TraceFormatError(
                f"POSITIONS of thread {thread} are not strictly increasing")
        if list(map(threads.__getitem__, positions)) != [thread] * length:
            raise TraceFormatError(
                f"THREAD_TABLE entry for thread {thread} points at "
                f"positions belonging to another thread")
        if list(map(indexes.__getitem__, positions)) != list(range(length)):
            raise TraceFormatError(
                f"INDEXES of thread {thread} are not its chain positions "
                f"0..{length - 1}")
        chains[thread] = list(map(events.__getitem__, positions))
        thread_positions[thread] = positions
    if cursor != count:
        raise TraceFormatError(
            f"THREAD_TABLE entries cover {cursor} of {count} events")

    columns = TraceColumns.from_dense(
        events=events,
        kinds=kinds,
        threads=threads,
        indexes=indexes,
        var_ids=var_ids,
        access_flags=access_flags,
        read_flags=read_flags,
        write_flags=write_flags,
        atomic_flags=atomic_flags,
        acquire_mo_flags=acquire_mo_flags,
        release_mo_flags=release_mo_flags,
        variables=variables,
        thread_positions=thread_positions,
    )
    return Trace.from_chains(events, chains, columns,
                             name=stored_name if name is None else name)


def _decode_events(pool, variables, kinds, threads, indexes, var_ids,
                   value_ids, target_ids, mo_codes, op_ids, arg_ids,
                   result_ids, atomic_flags) -> List[Event]:
    """Build every event of validated columns in one pass, as
    :func:`~repro.trace.formats.load_trace` does: ``object.__new__`` and
    only the fields the event sets, so unset fields read the
    :class:`Event` class defaults.

    Raises :class:`TraceFormatError` for a fork/join target that is not
    an integer or an operation that is not a string.
    """
    new, set_field = object.__new__, object.__setattr__
    kind_by_code, mo_by_code = KIND_BY_CODE, _MO_BY_CODE
    events: List[Event] = []
    append = events.append
    for (thread, index, code, var_id, value_id, target_id, mo_code, op_id,
         arg_id, result_id, atomic) in zip(
            threads, indexes, kinds, var_ids, value_ids, target_ids,
            mo_codes, op_ids, arg_ids, result_ids, atomic_flags):
        event = new(Event)
        set_field(event, "thread", thread)
        set_field(event, "index", index)
        set_field(event, "kind", kind_by_code[code])
        if var_id >= 0:
            set_field(event, "variable", variables[var_id])
        if value_id >= 0:
            set_field(event, "value", pool[value_id])
        if target_id >= 0:
            target = pool[target_id]
            if type(target) is not int:
                raise TraceFormatError(
                    f"event {len(events)} has a non-integer fork/join "
                    f"target {target!r}")
            set_field(event, "target", target)
        if mo_code:
            set_field(event, "memory_order", mo_by_code[mo_code])
        if op_id >= 0:
            operation = pool[op_id]
            if type(operation) is not str:
                raise TraceFormatError(
                    f"event {len(events)} has a non-string operation "
                    f"{operation!r}")
            set_field(event, "operation", operation)
        if arg_id >= 0:
            set_field(event, "argument", pool[arg_id])
        if result_id >= 0:
            set_field(event, "result", pool[result_id])
        if atomic:
            set_field(event, "atomic", True)
        append(event)
    return events


# --------------------------------------------------------------------------- #
# File I/O
# --------------------------------------------------------------------------- #
def _is_gzip_path(path: Union[str, Path]) -> bool:
    return str(path).endswith(".gz")


def write_trace_stc(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` as ``.stc`` (``.gz`` suffixes are
    compressed with the canonical zero-mtime gzip parameters, so output
    is byte-reproducible)."""
    payload = encode_trace(trace)
    if _is_gzip_path(path):
        payload = gzip.compress(payload, compresslevel=9, mtime=0)
    with open(path, "wb") as stream:
        stream.write(payload)


def read_trace_stc(path: Union[str, Path],
                   name: Optional[str] = None) -> Trace:
    """Read an ``.stc`` file into a :class:`~repro.trace.trace.Trace`.

    Plain files are memory-mapped and the column blobs copied out with
    ``array.frombytes`` (the map is not held open); gzip members --
    detected by content, not suffix -- are decompressed first.
    """
    with open(path, "rb") as stream:
        head = stream.read(2)
        stream.seek(0)
        if head == b"\x1f\x8b":
            try:
                data = gzip.decompress(stream.read())
            except (OSError, EOFError) as error:
                raise TraceFormatError(
                    f"cannot decompress {path}: {error}") from None
            return decode_trace(data, name=name)
        try:
            mapped = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # empty file cannot be mapped
            return decode_trace(b"", name=name)
        try:
            return decode_trace(mapped, name=name)
        finally:
            try:
                mapped.close()
            except BufferError:
                # A propagating decode error's traceback still pins
                # memoryviews over the map; the map closes when that
                # traceback is released.  Never mask the decode error.
                pass
