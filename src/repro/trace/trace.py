"""Trace container with the per-thread and per-variable indexes that the
dynamic analyses rely on.

A :class:`Trace` stores events in observed (total) order, assigns per-thread
sequence ids automatically, and exposes the derived views every analysis
needs repeatedly: per-thread chains, accesses grouped by variable, critical
sections per lock, the observed reads-from map, and fork/join edges.

An append stores the event, extends its thread's chain and checks its
per-thread index; nothing else.  The derived indexes -- the per-variable
access lists, the reads-from map, the lock-set map and the critical-section
list -- are built on first read: each accessor first indexes, in one pass,
the events appended since the previous read.  An analysis that never reads
them (``c11-races``, ``tso-consistency``, ``linearizability``) never pays
for them, and a streaming consumer (:mod:`repro.stream`) that interleaves
appends with reads indexes only the new events at each read, so indexing
still costs O(1) amortised per event.  The accessor methods return fresh
copies, so callers can mutate the returned containers freely.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import TraceError
from repro.trace.columns import TraceColumns
from repro.trace.event import READ_KINDS, WRITE_KINDS, Event, EventKind

Node = Tuple[int, int]

_READ, _WRITE = 1, 2

#: Read/write flag bits per kind (every access kind reads, writes or both),
#: so indexing an event is one dict lookup instead of three frozenset
#: membership tests behind ``Event`` properties.
_KIND_FLAGS = {
    kind: (_READ if kind in READ_KINDS else 0)
    | (_WRITE if kind in WRITE_KINDS else 0)
    for kind in EventKind
}


class CriticalSection:
    """A lock-protected region ``[acquire, release]`` of one thread."""

    __slots__ = ("lock", "thread", "acquire", "release")

    def __init__(self, lock, thread: int, acquire: Event,
                 release: Optional[Event]) -> None:
        self.lock = lock
        self.thread = thread
        self.acquire = acquire
        self.release = release

    def contains(self, event: Event) -> bool:
        """Whether ``event`` (same thread) executes while the lock is held."""
        if event.thread != self.thread:
            return False
        if event.index < self.acquire.index:
            return False
        return self.release is None or event.index <= self.release.index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = self.release.index if self.release else "?"
        return f"CS(lock={self.lock}, thread={self.thread}, [{self.acquire.index}, {end}])"


class Trace:
    """An execution trace: a totally ordered sequence of events.

    Events may be supplied pre-built or appended through the convenience
    constructors (:meth:`read`, :meth:`write`, :meth:`acquire`, ...), which
    assign the per-thread sequence id automatically.
    """

    def __init__(self, events: Iterable[Event] = (), name: str = "trace") -> None:
        self.name = name
        self._events: List[Event] = []
        self._per_thread: Dict[int, List[Event]] = defaultdict(list)
        self._next_index: Dict[int, int] = defaultdict(int)
        # Derived indexes, built on first read (see the module docstring):
        # ``_indexed`` events of ``_events`` are in them.
        self._indexed = 0
        self._accesses_by_variable: Dict = defaultdict(list)
        self._writes_by_variable: Dict = defaultdict(list)
        self._reads_from: Dict[Event, Optional[Event]] = {}
        self._last_write: Dict = {}
        self._held_now: Dict[int, frozenset] = defaultdict(frozenset)
        self._held_map: Dict[Node, frozenset] = {}
        self._sections: List[CriticalSection] = []
        self._open_sections: Dict[Tuple[int, object], CriticalSection] = {}
        self._bad_release: Optional[Event] = None
        self._columns: Optional[TraceColumns] = None
        for event in events:
            self._append_existing(event)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_chains(cls, events: List[Event], chains: Dict[int, List[Event]],
                    columns: TraceColumns, name: str = "trace") -> "Trace":
        """A trace over ``events`` whose per-thread ``chains`` the caller
        built and checked for consecutive indexes (the STD loader and the
        ``.stc`` decoder), so no event is checked again; ``columns`` must
        be a view over the same list."""
        trace = cls(name=name)
        trace._events = events
        trace._per_thread.update(chains)
        trace._next_index.update(
            (thread, len(chain)) for thread, chain in chains.items())
        trace._columns = columns
        return trace

    def _append_existing(self, event: Event) -> None:
        expected = self._next_index[event.thread]
        if event.index != expected:
            raise TraceError(
                f"event {event} has index {event.index}, expected {expected} "
                f"for thread {event.thread}"
            )
        self._events.append(event)
        self._per_thread[event.thread].append(event)
        self._next_index[event.thread] = expected + 1

    def _sync_indexes(self) -> None:
        """Index, in one pass, the events appended since the last index
        read.  Every derived-index accessor calls this first."""
        events = self._events
        if self._indexed == len(events):
            return
        index_event = self._index_event
        for position in range(self._indexed, len(events)):
            index_event(events[position])
        self._indexed = len(events)

    def _index_event(self, event: Event) -> None:
        """Advance every derived index by one event (O(1) amortised)."""
        kind = event.kind
        thread = event.thread
        flags = _KIND_FLAGS[kind]
        if flags:
            variable = event.variable
            self._accesses_by_variable[variable].append(event)
            # Reads observe the last write *before* this event, so an RMW
            # (both read and write) must look up its writer before
            # registering itself.
            if flags & _READ:
                self._reads_from[event] = self._last_write.get(variable)
            if flags & _WRITE:
                self._writes_by_variable[variable].append(event)
                self._last_write[variable] = event
        elif kind is EventKind.ACQUIRE:
            self._held_now[thread] = self._held_now[thread] | {event.variable}
            section = CriticalSection(event.variable, thread, event, None)
            self._open_sections[(thread, event.variable)] = section
            self._sections.append(section)
        elif kind is EventKind.RELEASE:
            self._held_now[thread] = self._held_now[thread] - {event.variable}
            section = self._open_sections.pop((thread, event.variable), None)
            if section is None:
                if self._bad_release is None:
                    self._bad_release = event
            else:
                section.release = event
        self._held_map[(thread, event.index)] = self._held_now[thread]

    def add(self, event: Event) -> Event:
        """Append a pre-built event (its index must be the next one of its
        thread) and return it.  This is the streaming ingestion entry point:
        the derived indexes catch up with it on their next read."""
        self._append_existing(event)
        return event

    def append(self, thread: int, kind: EventKind, **metadata) -> Event:
        """Append a new event for ``thread`` and return it."""
        event = Event(thread=thread, index=self._next_index[thread], kind=kind,
                      **metadata)
        self._append_existing(event)
        return event

    # Convenience constructors -- one per event kind used by the analyses.
    def read(self, thread: int, variable, value=None, **kw) -> Event:
        return self.append(thread, EventKind.READ, variable=variable, value=value, **kw)

    def write(self, thread: int, variable, value=None, **kw) -> Event:
        return self.append(thread, EventKind.WRITE, variable=variable, value=value, **kw)

    def acquire(self, thread: int, lock) -> Event:
        return self.append(thread, EventKind.ACQUIRE, variable=lock)

    def release(self, thread: int, lock) -> Event:
        return self.append(thread, EventKind.RELEASE, variable=lock)

    def fork(self, thread: int, child: int) -> Event:
        return self.append(thread, EventKind.FORK, target=child)

    def join(self, thread: int, child: int) -> Event:
        return self.append(thread, EventKind.JOIN, target=child)

    def alloc(self, thread: int, address) -> Event:
        return self.append(thread, EventKind.ALLOC, variable=address)

    def free(self, thread: int, address) -> Event:
        return self.append(thread, EventKind.FREE, variable=address)

    def atomic_read(self, thread: int, variable, value=None, memory_order=None) -> Event:
        return self.append(thread, EventKind.ATOMIC_READ, variable=variable,
                           value=value, memory_order=memory_order, atomic=True)

    def atomic_write(self, thread: int, variable, value=None, memory_order=None) -> Event:
        return self.append(thread, EventKind.ATOMIC_WRITE, variable=variable,
                           value=value, memory_order=memory_order, atomic=True)

    def atomic_rmw(self, thread: int, variable, value=None, memory_order=None) -> Event:
        return self.append(thread, EventKind.ATOMIC_RMW, variable=variable,
                           value=value, memory_order=memory_order, atomic=True)

    def begin(self, thread: int, operation: str, argument=None) -> Event:
        return self.append(thread, EventKind.BEGIN, operation=operation,
                           argument=argument)

    def end(self, thread: int, operation: str, result=None) -> Event:
        return self.append(thread, EventKind.END, operation=operation, result=result)

    # ------------------------------------------------------------------ #
    # Basic views
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, position: int) -> Event:
        return self._events[position]

    @property
    def events(self) -> Sequence[Event]:
        """Events in observed (total) order."""
        return tuple(self._events)

    @property
    def threads(self) -> List[int]:
        """Sorted list of thread identifiers appearing in the trace."""
        return sorted(self._per_thread)

    @property
    def num_threads(self) -> int:
        return len(self._per_thread)

    def thread_events(self, thread: int) -> Sequence[Event]:
        """Events of one thread in program order."""
        return tuple(self._per_thread.get(thread, ()))

    def thread_length(self, thread: int) -> int:
        """Number of events of ``thread``."""
        return len(self._per_thread.get(thread, ()))

    @property
    def max_thread_length(self) -> int:
        """Length of the longest per-thread chain (capacity hint for
        partial-order backends)."""
        return max((len(v) for v in self._per_thread.values()), default=0)

    def event_at(self, node: Node) -> Event:
        """Return the event identified by a ``(thread, index)`` node."""
        thread, index = node
        try:
            return self._per_thread.get(thread, ())[index]
        except IndexError:
            raise TraceError(f"no event at node {node}") from None

    def columns(self) -> TraceColumns:
        """Cached columnar view of the trace (see
        :class:`~repro.trace.columns.TraceColumns`).

        The view is built lazily on first access and advanced incrementally
        afterwards: events appended since the previous call are encoded in
        O(new events), so both batch analyses and the streaming engine's
        growing live trace can call this at every flush point for free.
        """
        columns = self._columns
        if columns is None:
            columns = self._columns = TraceColumns(self._events)
        return columns.sync()

    # ------------------------------------------------------------------ #
    # Derived indexes used by the analyses
    # ------------------------------------------------------------------ #
    def accesses_by_variable(self) -> Dict:
        """Group access events by the variable they touch."""
        self._sync_indexes()
        return {variable: list(events)
                for variable, events in self._accesses_by_variable.items()}

    def writes_by_variable(self) -> Dict:
        self._sync_indexes()
        return {variable: list(events)
                for variable, events in self._writes_by_variable.items()}

    def critical_sections(self) -> List[CriticalSection]:
        """All critical sections, in observed acquire order.

        Raises
        ------
        TraceError
            If a thread releases a lock it does not hold (raised here, not
            at append time, so a malformed trace can still be built and
            inspected).
        """
        self._sync_indexes()
        if self._bad_release is not None:
            event = self._bad_release
            raise TraceError(
                f"thread {event.thread} releases lock {event.variable} "
                "without holding it"
            )
        # Fresh objects per call: the internal index keeps mutating as the
        # trace grows (an open section's release is filled in later), and
        # callers are allowed to mutate what they get back.
        return [CriticalSection(section.lock, section.thread,
                                section.acquire, section.release)
                for section in self._sections]

    def locks_held_at(self, event: Event) -> frozenset:
        """Set of locks held by ``event.thread`` when ``event`` executes.

        Events of this trace are answered in O(1) from the lock-set map; an
        event whose node is not in the trace (e.g. a hypothetical one) falls
        back to scanning its thread prefix.
        """
        self._sync_indexes()
        held = self._held_map.get(event.node)
        if held is not None:
            return held
        current = set()
        for other in self._per_thread.get(event.thread, ()):
            if other.index > event.index:
                break
            if other.kind is EventKind.ACQUIRE:
                current.add(other.variable)
            elif other.kind is EventKind.RELEASE:
                current.discard(other.variable)
        return frozenset(current)

    def locks_held_map(self) -> Dict[Node, frozenset]:
        """Locks held at every event.

        Analyses that query lock sets for many events should use this map
        instead of calling :meth:`locks_held_at` repeatedly.
        """
        self._sync_indexes()
        return dict(self._held_map)

    def reads_from(self) -> Dict[Event, Optional[Event]]:
        """The observed reads-from map: each read maps to the last write to
        the same variable preceding it in the trace order (or ``None``)."""
        self._sync_indexes()
        return dict(self._reads_from)

    def fork_join_edges(self) -> List[Tuple[Node, Node]]:
        """Cross-thread ordering edges induced by fork/join events.

        ``fork(parent -> child)`` orders the fork event before the first
        event of the child; ``join(parent <- child)`` orders the last event
        of the child before the join event.
        """
        edges: List[Tuple[Node, Node]] = []
        for event in self._events:
            if event.kind is EventKind.FORK and event.target in self._per_thread:
                first = self._per_thread[event.target][0]
                edges.append((event.node, first.node))
            elif event.kind is EventKind.JOIN and event.target in self._per_thread:
                last = self._per_thread[event.target][-1]
                edges.append((last.node, event.node))
        return edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(name={self.name!r}, events={len(self._events)}, "
            f"threads={self.num_threads})"
        )
