"""Event model for concurrent execution traces.

The paper models a trace event as a tuple ``⟨t, i, m⟩`` (Section 2.1): a
thread identifier, a per-thread sequence id, and analysis-specific metadata.
CSSTs only ever look at ``(t, i)``; the metadata drives the individual
analyses.  The :class:`Event` class carries the superset of metadata used by
the seven analyses of the evaluation (shared-memory accesses, lock
operations, thread lifecycle, heap lifecycle, C11 atomics and method
invocations for linearizability histories).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple


class EventKind(enum.Enum):
    """The operation an event performs."""

    READ = "read"
    WRITE = "write"
    ACQUIRE = "acquire"
    RELEASE = "release"
    FORK = "fork"
    JOIN = "join"
    ALLOC = "alloc"
    FREE = "free"
    #: Atomic accesses used by the C11 and TSO analyses.
    ATOMIC_READ = "atomic_read"
    ATOMIC_WRITE = "atomic_write"
    ATOMIC_RMW = "atomic_rmw"
    FENCE = "fence"
    #: Method-invocation boundaries used by the linearizability analysis.
    BEGIN = "begin"
    END = "end"

    #: Members are singletons, so identity hashing agrees with ``Enum``
    #: equality and skips the Python-level ``Enum.__hash__`` that every
    #: ``kind in WRITE_KINDS`` test and kind-keyed dict lookup would run.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class MemoryOrder(enum.Enum):
    """C11 memory orders (only the ones relevant to happens-before)."""

    RELAXED = "relaxed"
    ACQUIRE = "acquire"
    RELEASE = "release"
    ACQ_REL = "acq_rel"
    SEQ_CST = "seq_cst"

    #: Identity hashing, as for :class:`EventKind`.
    __hash__ = object.__hash__

    @property
    def is_acquire(self) -> bool:
        return self in (MemoryOrder.ACQUIRE, MemoryOrder.ACQ_REL, MemoryOrder.SEQ_CST)

    @property
    def is_release(self) -> bool:
        return self in (MemoryOrder.RELEASE, MemoryOrder.ACQ_REL, MemoryOrder.SEQ_CST)


#: Event kinds that access a shared memory location.
ACCESS_KINDS = frozenset(
    {
        EventKind.READ,
        EventKind.WRITE,
        EventKind.ATOMIC_READ,
        EventKind.ATOMIC_WRITE,
        EventKind.ATOMIC_RMW,
    }
)

#: Event kinds that write a shared memory location.
WRITE_KINDS = frozenset(
    {EventKind.WRITE, EventKind.ATOMIC_WRITE, EventKind.ATOMIC_RMW}
)

#: Event kinds that read a shared memory location.
READ_KINDS = frozenset(
    {EventKind.READ, EventKind.ATOMIC_READ, EventKind.ATOMIC_RMW}
)


@dataclass(frozen=True)
class Event:
    """A single event of a concurrent execution trace.

    Attributes
    ----------
    thread:
        Identifier of the issuing thread (the chain id of the event).
    index:
        Per-thread sequence id.  ``(thread, index)`` uniquely identifies the
        event and is the node handed to the partial-order backends.
    kind:
        The operation performed.
    variable:
        Shared variable / memory location for access events, lock name for
        ``ACQUIRE``/``RELEASE``, heap address for ``ALLOC``/``FREE``/access.
    value:
        Value written or read (used by consistency analyses).
    target:
        Target thread of ``FORK``/``JOIN`` events.
    memory_order:
        Memory order of C11 atomic events.
    operation:
        Method name for ``BEGIN``/``END`` events of linearizability
        histories (e.g. ``"add"``, ``"contains"``).
    argument / result:
        Argument and return value of a method invocation.
    atomic:
        ``True`` for C11 atomic accesses (kept alongside ``kind`` so the C11
        analysis can distinguish atomics from plain accesses uniformly).
    """

    thread: int
    index: int
    kind: EventKind
    variable: Optional[Any] = None
    value: Optional[Any] = None
    target: Optional[int] = None
    memory_order: Optional[MemoryOrder] = None
    operation: Optional[str] = None
    argument: Optional[Any] = None
    result: Optional[Any] = None
    atomic: bool = field(default=False)

    # ------------------------------------------------------------------ #
    # Identification helpers
    # ------------------------------------------------------------------ #
    def __hash__(self) -> int:
        # Equal events have equal nodes, so hashing the node agrees with
        # the field-wise ``__eq__`` and costs two ints, not eleven fields.
        return hash((self.thread, self.index))

    @property
    def node(self) -> Tuple[int, int]:
        """The ``(chain, index)`` node handed to partial-order backends."""
        return (self.thread, self.index)

    @property
    def is_access(self) -> bool:
        """Whether this event accesses a shared memory location."""
        return self.kind in ACCESS_KINDS

    @property
    def is_write(self) -> bool:
        """Whether this event writes a shared memory location."""
        return self.kind in WRITE_KINDS

    @property
    def is_read(self) -> bool:
        """Whether this event reads a shared memory location."""
        return self.kind in READ_KINDS

    def conflicts_with(self, other: "Event") -> bool:
        """Two access events conflict when they touch the same variable from
        different threads and at least one of them writes."""
        return (
            self.is_access
            and other.is_access
            and self.variable == other.variable
            and self.thread != other.thread
            and (self.is_write or other.is_write)
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        details = []
        if self.variable is not None:
            details.append(f"var={self.variable}")
        if self.value is not None:
            details.append(f"val={self.value}")
        if self.target is not None:
            details.append(f"target={self.target}")
        if self.operation is not None:
            details.append(f"op={self.operation}")
        detail = ", ".join(details)
        return f"<{self.thread}.{self.index} {self.kind.value} {detail}>"
