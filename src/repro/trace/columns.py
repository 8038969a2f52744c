"""Columnar (structure-of-arrays) view of a trace.

Analyses' inner loops historically touched :class:`~repro.trace.event.Event`
dataclasses for every event they merely wanted to *skip* -- attribute
access, enum identity checks, and property calls per event.
:class:`TraceColumns` lifts the hot metadata into dense, int-encoded
parallel arrays built once per trace and cached on it:

* ``kinds`` -- one small-int code per event (:data:`KIND_CODES`);
* ``threads`` / ``indexes`` -- the ``(t, i)`` identity columns;
* ``var_ids`` -- the accessed variable/location interned to a dense int id
  (``-1`` when the event has none); ``variables[id]`` recovers the object;
* one-byte flag columns (``access_flags``, ``read_flags``, ``write_flags``,
  ``atomic_flags``, ``acquire_mo_flags``, ``release_mo_flags``) mirroring
  the corresponding event predicates;
* ``thread_positions`` -- per thread, the global positions of its events in
  program order, so per-thread windows index the columns directly.

The view is *live* and append-only: it keeps a reference to the trace's
event list and :meth:`sync` encodes only the events appended since the last
call, so the streaming engine's growing trace pays O(new events) per flush
instead of a rebuild.  Access it through :meth:`repro.trace.trace.Trace.columns`.

The kind code and the six flags of an event are a function of its kind,
its ``atomic`` field and its memory order, so both encoders -- :meth:`sync`
and the STD loader, which builds the view while it parses -- first reduce
each event to one *tag* byte (:func:`event_tag`) and then split a run of
tags into the seven byte columns with ``bytearray.translate``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.trace.event import (
    ACCESS_KINDS,
    READ_KINDS,
    WRITE_KINDS,
    Event,
    EventKind,
    MemoryOrder,
)

#: Small-int code per event kind (dense; enum definition order, stable).
KIND_CODES: Dict[EventKind, int] = {
    kind: code for code, kind in enumerate(EventKind)
}

#: Inverse mapping: ``KIND_BY_CODE[code]`` is the :class:`EventKind`.
KIND_BY_CODE = tuple(EventKind)

ACQUIRE_CODE = KIND_CODES[EventKind.ACQUIRE]
RELEASE_CODE = KIND_CODES[EventKind.RELEASE]
ALLOC_CODE = KIND_CODES[EventKind.ALLOC]
FREE_CODE = KIND_CODES[EventKind.FREE]
FORK_CODE = KIND_CODES[EventKind.FORK]
JOIN_CODE = KIND_CODES[EventKind.JOIN]

_ACCESS_CODES = frozenset(KIND_CODES[kind] for kind in ACCESS_KINDS)
_READ_CODES = frozenset(KIND_CODES[kind] for kind in READ_KINDS)
_WRITE_CODES = frozenset(KIND_CODES[kind] for kind in WRITE_KINDS)

#: A tag holds the kind code in its low four bits (14 kinds), then the
#: atomic, acquire-order and release-order bits.
_KIND_MASK = 15
_ATOMIC_BIT, _ACQUIRE_BIT, _RELEASE_BIT = 16, 32, 64
_TAGS = range(256)
#: ``translate`` table per column, indexed by tag.
_KIND_OF_TAG = bytes(tag & _KIND_MASK for tag in _TAGS)
_ACCESS_OF_TAG = bytes(tag & _KIND_MASK in _ACCESS_CODES for tag in _TAGS)
_READ_OF_TAG = bytes(tag & _KIND_MASK in _READ_CODES for tag in _TAGS)
_WRITE_OF_TAG = bytes(tag & _KIND_MASK in _WRITE_CODES for tag in _TAGS)
_ATOMIC_OF_TAG = bytes(bool(tag & _ATOMIC_BIT) for tag in _TAGS)
_ACQUIRE_OF_TAG = bytes(bool(tag & _ACQUIRE_BIT) for tag in _TAGS)
_RELEASE_OF_TAG = bytes(bool(tag & _RELEASE_BIT) for tag in _TAGS)
_ORDER_BITS = {
    order: (_ACQUIRE_BIT if order.is_acquire else 0)
    | (_RELEASE_BIT if order.is_release else 0)
    for order in MemoryOrder
}


def event_tag(kind: EventKind, atomic: Any, memory_order: Any) -> int:
    """The byte that fixes an event's kind code and its six flags.

    A memory order that is not a :class:`MemoryOrder` (a hand-written
    ``memory_order=str:...`` field) sets neither order flag.
    """
    tag = KIND_CODES[kind] | (_ATOMIC_BIT if atomic else 0)
    if isinstance(memory_order, MemoryOrder):
        tag |= _ORDER_BITS[memory_order]
    return tag


class TraceColumns:
    """Int-encoded columns over a live, append-only event list."""

    __slots__ = (
        "_events", "kinds", "threads", "indexes", "var_ids",
        "access_flags", "read_flags", "write_flags", "atomic_flags",
        "acquire_mo_flags", "release_mo_flags",
        "variables", "_intern", "thread_positions", "_built",
    )

    def __init__(self, events: List[Event]) -> None:
        self._events = events
        self.kinds = bytearray()
        self.threads: List[int] = []
        self.indexes: List[int] = []
        self.var_ids: List[int] = []
        self.access_flags = bytearray()
        self.read_flags = bytearray()
        self.write_flags = bytearray()
        self.atomic_flags = bytearray()
        self.acquire_mo_flags = bytearray()
        self.release_mo_flags = bytearray()
        self.variables: List[Any] = []
        self._intern: Dict[Any, int] = {}
        self.thread_positions: Dict[int, List[int]] = {}
        self._built = 0

    @classmethod
    def from_dense(cls, events: List[Event], kinds, threads, indexes,
                   var_ids, access_flags, read_flags, write_flags,
                   atomic_flags, acquire_mo_flags, release_mo_flags,
                   variables: List[Any],
                   thread_positions: Dict[int, List[int]]) -> "TraceColumns":
        """Build a view over columns encoded elsewhere (the ``.stc``
        decoder) without re-scanning ``events``; events appended later
        are encoded by :meth:`sync` as usual."""
        columns = cls.__new__(cls)
        columns._events = events
        columns.kinds = kinds
        columns.threads = threads
        columns.indexes = indexes
        columns.var_ids = var_ids
        columns.access_flags = access_flags
        columns.read_flags = read_flags
        columns.write_flags = write_flags
        columns.atomic_flags = atomic_flags
        columns.acquire_mo_flags = acquire_mo_flags
        columns.release_mo_flags = release_mo_flags
        columns.variables = variables
        columns._intern = {variable: var_id
                           for var_id, variable in enumerate(variables)}
        columns.thread_positions = thread_positions
        columns._built = len(kinds)
        return columns

    @classmethod
    def from_tags(cls, events: List[Event], tags: bytearray,
                  threads: List[int], indexes: List[int], var_ids: List[int],
                  intern: Dict[Any, int],
                  thread_positions: Dict[int, List[int]]) -> "TraceColumns":
        """Build a view over columns the STD loader encoded while it
        parsed ``events``: one :func:`event_tag` per event, and ``intern``
        mapping each variable to its id in first-seen order."""
        columns = cls(events)
        columns.threads = threads
        columns.indexes = indexes
        columns.var_ids = var_ids
        columns.variables = list(intern)
        columns._intern = intern
        columns.thread_positions = thread_positions
        columns._extend_tags(tags)
        columns._built = len(tags)
        return columns

    def _extend_tags(self, tags: bytearray) -> None:
        """Append the kind and flag columns of a run of tags."""
        self.kinds += tags.translate(_KIND_OF_TAG)
        self.access_flags += tags.translate(_ACCESS_OF_TAG)
        self.read_flags += tags.translate(_READ_OF_TAG)
        self.write_flags += tags.translate(_WRITE_OF_TAG)
        self.atomic_flags += tags.translate(_ATOMIC_OF_TAG)
        self.acquire_mo_flags += tags.translate(_ACQUIRE_OF_TAG)
        self.release_mo_flags += tags.translate(_RELEASE_OF_TAG)

    def __len__(self) -> int:
        return self._built

    @property
    def events(self) -> Sequence[Event]:
        """The underlying event list (same objects the trace holds); use it
        to materialise an event found through the columns."""
        return self._events

    def variable_id(self, variable: Any) -> int:
        """The interned id of ``variable`` (``-1`` if never seen)."""
        return self._intern.get(variable, -1)

    def sync(self) -> "TraceColumns":
        """Encode the events appended since the last call; returns self."""
        events = self._events
        total = len(events)
        built = self._built
        if built == total:
            return self
        tags = bytearray()
        threads = self.threads
        indexes = self.indexes
        var_ids = self.var_ids
        variables = self.variables
        intern = self._intern
        thread_positions = self.thread_positions
        for position in range(built, total):
            event = events[position]
            tags.append(event_tag(event.kind, event.atomic,
                                  event.memory_order))
            thread = event.thread
            threads.append(thread)
            indexes.append(event.index)
            variable = event.variable
            if variable is None:
                var_ids.append(-1)
            else:
                var_id = intern.get(variable)
                if var_id is None:
                    var_id = len(variables)
                    intern[variable] = var_id
                    variables.append(variable)
                var_ids.append(var_id)
            positions = thread_positions.get(thread)
            if positions is None:
                positions = thread_positions[thread] = []
            positions.append(position)
        self._extend_tags(tags)
        self._built = total
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceColumns(events={self._built}, "
            f"variables={len(self.variables)}, "
            f"threads={len(self.thread_positions)})"
        )
