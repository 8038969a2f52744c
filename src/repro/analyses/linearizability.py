"""Root-causing linearizability violations (Table 7 of the paper).

The analysis of Çirisci et al. [12] explains why a concurrent-object history
is not linearizable.  Its engine is a search over *commit orders*: it
repeatedly picks a minimal pending operation whose response matches the
sequential specification, records the tentative ordering decisions in a
partial order, and -- when it runs into a dead end -- backtracks, *deleting*
the orderings it speculated.  This is the one analysis of the evaluation
whose partial order is fully dynamic (insertions *and* deletions), which is
why its baselines are plain graphs and why CSSTs shine there.

The reproduction implements that engine over histories of three sequential
specifications (set, queue, register), reports whether the history is
linearizable, and, when it is not, returns the *blocking window*: the set of
pending operations over which the search could make no further progress --
the root cause handed to the user.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analyses.common.base import Analysis, AnalysisResult
from repro.analyses.common.hb import insert_ordering
from repro.core.instrumented import InstrumentedOrder
from repro.errors import AnalysisError, TraceError
from repro.trace.event import Event, EventKind
from repro.trace.trace import Trace

Node = Tuple[int, int]


# --------------------------------------------------------------------------- #
# Operations and histories
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Operation:
    """One method invocation of the concurrent object."""

    thread: int
    ordinal: int          #: position among the thread's operations
    name: str
    argument: object
    result: object
    begin: Event
    end: Event

    @property
    def begin_node(self) -> Node:
        return self.begin.node

    @property
    def end_node(self) -> Node:
        return self.end.node

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"T{self.thread}:{self.name}({self.argument}) -> {self.result}"


@dataclass(frozen=True)
class Violation:
    """A linearizability violation together with its blocking window."""

    blocking: Tuple[Operation, ...]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ops = ", ".join(str(op) for op in self.blocking)
        return f"linearizability violation; blocking window: [{ops}]"


def extract_operations(trace: Trace) -> List[Operation]:
    """Pair up begin/end events into operations, per thread."""
    operations: List[Operation] = []
    pending: Dict[int, Event] = {}
    ordinals: Dict[int, int] = {}
    for event in trace:
        if event.kind is EventKind.BEGIN:
            if event.thread in pending:
                raise TraceError(
                    f"thread {event.thread} begins {event.operation!r} while an "
                    "operation is still pending"
                )
            pending[event.thread] = event
        elif event.kind is EventKind.END:
            begin = pending.pop(event.thread, None)
            if begin is None or begin.operation != event.operation:
                raise TraceError(
                    f"unmatched end event {event} (pending begin: {begin})"
                )
            ordinal = ordinals.get(event.thread, 0)
            ordinals[event.thread] = ordinal + 1
            operations.append(
                Operation(
                    thread=event.thread,
                    ordinal=ordinal,
                    name=begin.operation,
                    argument=begin.argument,
                    result=event.result,
                    begin=begin,
                    end=event,
                )
            )
    if pending:
        raise TraceError(f"operations never completed: {sorted(pending)}")
    return operations


# --------------------------------------------------------------------------- #
# Sequential specifications
# --------------------------------------------------------------------------- #
class SequentialSpec:
    """A sequential specification: immutable-state ``apply`` semantics."""

    name = "spec"

    def initial_state(self):
        raise NotImplementedError

    def apply(self, state, operation: Operation):
        """Return ``(expected_result, next_state)`` for ``operation``."""
        raise NotImplementedError


class SetSpec(SequentialSpec):
    """A mathematical set with ``add`` / ``remove`` / ``contains``."""

    name = "set"

    def initial_state(self):
        return frozenset()

    def apply(self, state, operation: Operation):
        key = operation.argument
        if operation.name == "add":
            return key not in state, state | {key}
        if operation.name == "remove":
            return key in state, state - {key}
        if operation.name == "contains":
            return key in state, state
        raise AnalysisError(f"set spec does not define operation {operation.name!r}")


class QueueSpec(SequentialSpec):
    """A FIFO queue with ``enqueue`` / ``dequeue``."""

    name = "queue"

    def initial_state(self):
        return ()

    def apply(self, state, operation: Operation):
        if operation.name == "enqueue":
            return True, state + (operation.argument,)
        if operation.name == "dequeue":
            if not state:
                return None, state
            return state[0], state[1:]
        raise AnalysisError(f"queue spec does not define operation {operation.name!r}")


class RegisterSpec(SequentialSpec):
    """A single-value register with ``write`` / ``read``."""

    name = "register"

    def __init__(self, initial_value: int = 0) -> None:
        self._initial_value = initial_value

    def initial_state(self):
        return self._initial_value

    def apply(self, state, operation: Operation):
        if operation.name == "write":
            return True, operation.argument
        if operation.name == "read":
            return state, state
        raise AnalysisError(
            f"register spec does not define operation {operation.name!r}"
        )


SPECS = {"set": SetSpec, "queue": QueueSpec, "register": RegisterSpec}


# --------------------------------------------------------------------------- #
# The analysis
# --------------------------------------------------------------------------- #
@dataclass
class _Frame:
    """One speculation level of the commit-order search."""

    operation: Operation
    previous_state: object
    inserted_edges: List[Tuple[Node, Node]] = field(default_factory=list)
    tried: set = field(default_factory=set)


class LinearizabilityAnalysis(Analysis):
    """Commit-order search with backtracking over a fully dynamic order.

    Parameters
    ----------
    backend:
        A backend that supports deletion (``"csst"`` or ``"graph"``).
    spec:
        Name of the sequential specification (``"set"``, ``"queue"``,
        ``"register"``) or a :class:`SequentialSpec` instance.
    max_steps:
        Bound on commit/backtrack steps; exceeded searches report an
        ``"unknown"`` verdict instead of running forever.
    """

    name = "linearizability"
    requires_deletion = True

    def __init__(self, backend=None, spec="set", max_steps: int = 200_000,
                 **backend_kwargs) -> None:
        super().__init__(backend, **backend_kwargs)
        if isinstance(spec, str):
            try:
                spec = SPECS[spec]()
            except KeyError:
                raise AnalysisError(f"unknown sequential spec {spec!r}") from None
        self._spec = spec
        self._max_steps = max_steps

    # ------------------------------------------------------------------ #
    def _run(self, trace: Trace, order: InstrumentedOrder,
             result: AnalysisResult) -> None:
        operations = extract_operations(trace)
        per_thread: Dict[int, List[Operation]] = {}
        for operation in operations:
            per_thread.setdefault(operation.thread, []).append(operation)
        result.details["operations"] = len(operations)

        realtime_edges = self._insert_realtime_order(trace, order, operations)
        result.details["realtime_edges"] = realtime_edges

        verdict, blocking, steps = self._search(order, per_thread)
        result.details["verdict"] = verdict
        result.details["steps"] = steps
        if verdict == "violation":
            result.findings.append(Violation(tuple(blocking)))

    # ------------------------------------------------------------------ #
    # Real-time order
    # ------------------------------------------------------------------ #
    @staticmethod
    def _insert_realtime_order(trace: Trace, order: InstrumentedOrder,
                               operations: Sequence[Operation]) -> int:
        """Insert the (covering) real-time order between operations.

        For every operation ``o`` and every other thread, an edge is added
        from the end of the latest operation of that thread that returned
        before ``o`` was invoked.  Together with program order this implies
        the full real-time order.
        """
        inserted = 0
        # Global position of every event, to compare across threads.
        position = {event.node: index for index, event in enumerate(trace)}
        last_completed: Dict[int, Operation] = {}
        ordered_by_begin = sorted(operations, key=lambda op: position[op.begin_node])
        completed = sorted(operations, key=lambda op: position[op.end_node])
        completed_cursor = 0
        for operation in ordered_by_begin:
            begin_position = position[operation.begin_node]
            while (completed_cursor < len(completed)
                   and position[completed[completed_cursor].end_node] < begin_position):
                finished = completed[completed_cursor]
                last_completed[finished.thread] = finished
                completed_cursor += 1
            for thread, finished in last_completed.items():
                if thread == operation.thread:
                    continue
                if insert_ordering(order, finished.end_node, operation.begin_node):
                    inserted += 1
        return inserted

    # ------------------------------------------------------------------ #
    # Commit-order search
    # ------------------------------------------------------------------ #
    def _search(self, order: InstrumentedOrder,
                per_thread: Dict[int, List[Operation]]):
        pointers = {thread: 0 for thread in per_thread}
        state = self._spec.initial_state()
        stack: List[_Frame] = []
        steps = 0

        def frontier() -> List[Operation]:
            ops = []
            for thread, pointer in pointers.items():
                if pointer < len(per_thread[thread]):
                    ops.append(per_thread[thread][pointer])
            return ops

        tried_at_level: set = set()
        while True:
            steps += 1
            if steps > self._max_steps:
                return "unknown", [], steps
            pending = frontier()
            if not pending:
                return "linearizable", [], steps
            candidate = self._pick_candidate(order, pending, tried_at_level, state)
            if candidate is not None:
                operation, next_state = candidate
                frame = _Frame(operation, state, tried=tried_at_level)
                frame.inserted_edges = self._commit_edges(order, operation, pending)
                stack.append(frame)
                pointers[operation.thread] += 1
                state = next_state
                tried_at_level = set()
                continue
            # Dead end: no minimal pending operation matches the spec.
            if not stack:
                return "violation", pending, steps
            frame = stack.pop()
            for source, target in reversed(frame.inserted_edges):
                order.delete_edge(source, target)
            pointers[frame.operation.thread] -= 1
            state = frame.previous_state
            tried_at_level = frame.tried
            tried_at_level.add(self._key(frame.operation))

        # Unreachable.

    def _pick_candidate(self, order: InstrumentedOrder,
                        pending: Sequence[Operation], tried: set, state):
        """Return a minimal, spec-consistent, not-yet-tried pending operation
        together with the state it produces, or ``None``."""
        for operation in pending:
            if self._key(operation) in tried:
                continue
            if not self._is_minimal(order, operation, pending):
                continue
            expected, next_state = self._spec.apply(state, operation)
            if expected == operation.result:
                return operation, next_state
        return None

    @staticmethod
    def _is_minimal(order: InstrumentedOrder, operation: Operation,
                    pending: Sequence[Operation]) -> bool:
        """No other pending operation is forced (real-time or committed
        order) to linearize before ``operation``."""
        for other in pending:
            if other is operation:
                continue
            if order.reachable(other.end_node, operation.begin_node):
                return False
        return True

    @staticmethod
    def _commit_edges(order: InstrumentedOrder, operation: Operation,
                      pending: Sequence[Operation]) -> List[Tuple[Node, Node]]:
        """Record that ``operation`` linearizes before the other pending
        operations.  Returns the edges actually inserted (for undo)."""
        inserted: List[Tuple[Node, Node]] = []
        for other in pending:
            if other is operation or other.thread == operation.thread:
                continue
            source, target = operation.begin_node, other.begin_node
            if order.reachable(source, target) or order.reachable(target, source):
                continue
            order.insert_edge(source, target)
            inserted.append((source, target))
        return inserted

    @staticmethod
    def _key(operation: Operation) -> Tuple[int, int]:
        return (operation.thread, operation.ordinal)


def check_linearizability(trace: Trace, backend=None, spec="set",
                          **kwargs) -> AnalysisResult:
    """Convenience wrapper: run the linearizability root-causing analysis."""
    return LinearizabilityAnalysis(backend, spec=spec, **kwargs).run(trace)
