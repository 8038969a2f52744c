"""tso-consistency against the store-buffer semantics of x86-TSO.

A brute-force search over the executions of tiny traces is the ground
truth.  The machine follows the operational x86-TSO model (the one of
*Lazy TSO Reachability* and of the SPARC TSO store-buffer semantics):
each thread issues its events in program order; a write goes into the
thread's FIFO store buffer; the head of any buffer may be flushed to
memory at any time; a read takes the latest write to its variable in
its own buffer, or else memory (every variable starts at 0).  A trace
is consistent iff some execution issues every event with each read
taking the value the trace records.

The checker is a sound heuristic: an inconsistent verdict must mean no
execution exists.  It may call an inconsistent trace consistent (a
miss); the number of misses on the seeded variants is pinned, so that
incompleteness is measured, not assumed.
"""

import random

import pytest

from repro.analyses.tso import check_tso_consistency
from repro.core import INCREMENTAL_BACKENDS
from repro.trace import MemoryOrder, Trace
from repro.trace.generators import build_trace


def has_execution(trace):
    """Whether some store-buffer execution of ``trace`` gives every read
    the value it records.  A depth-first search over machine states,
    each visited once: per thread how many events are issued and how
    many of its writes are flushed, and the memory."""
    programs = [[event for event in trace.thread_events(thread)
                 if event.is_access] for thread in trace.threads]
    writes = [[(event.variable, event.value) for event in program
               if event.is_write] for program in programs]
    issued_writes = [[sum(1 for event in program[:count] if event.is_write)
                      for count in range(len(program) + 1)]
                     for program in programs]
    variables = sorted({event.variable for program in programs
                        for event in program})
    slot = {variable: position for position, variable in enumerate(variables)}
    start = (tuple((0, 0) for _ in programs), (0,) * len(variables))
    seen = {start}
    stack = [start]
    while stack:
        threads, memory = stack.pop()
        if all(issued == len(program)
               for (issued, _flushed), program in zip(threads, programs)):
            return True
        for thread, ((issued, flushed), program) in enumerate(
                zip(threads, programs)):
            buffered = issued_writes[thread][issued]
            successors = []
            if flushed < buffered:
                variable, value = writes[thread][flushed]
                stored = list(memory)
                stored[slot[variable]] = value
                successors.append(((issued, flushed + 1), tuple(stored)))
            if issued < len(program):
                event = program[issued]
                if event.is_write or _observed(
                        event, writes[thread][flushed:buffered],
                        memory[slot[event.variable]]):
                    successors.append(((issued + 1, flushed), memory))
            for state, stored in successors:
                following = (threads[:thread] + (state,)
                             + threads[thread + 1:], stored)
                if following not in seen:
                    seen.add(following)
                    stack.append(following)
    return False


def _observed(read, buffer, in_memory):
    """Whether ``read`` takes the value it records: the latest buffered
    write to its variable, else memory's."""
    value = in_memory
    for variable, written in buffer:
        if variable == read.variable:
            value = written
    return value == (read.value or 0)


def _litmus(name, *events):
    """A trace from ``(thread, "w" | "r", variable, value)`` tuples, in
    trace order."""
    trace = Trace(name=name)
    for thread, kind, variable, value in events:
        access = trace.atomic_write if kind == "w" else trace.atomic_read
        access(thread, variable, value=value,
               memory_order=MemoryOrder.SEQ_CST)
    return trace


#: name -> (trace, whether TSO allows it).
LITMUS = {
    # Store buffering: both reads miss the other thread's buffered write.
    "SB": (_litmus("SB", (0, "w", "x", 1), (0, "r", "y", 0),
                   (1, "w", "y", 2), (1, "r", "x", 0)), True),
    # Message passing: the flag's write is seen, so is the data's.
    "MP": (_litmus("MP", (0, "w", "d", 1), (0, "w", "f", 2),
                   (1, "r", "f", 2), (1, "r", "d", 1)), True),
    # ... but the stale data read after the flag is forbidden: buffers
    # flush in order.
    "MP-stale": (_litmus("MP-stale", (0, "w", "d", 1), (0, "w", "f", 2),
                         (1, "r", "f", 2), (1, "r", "d", 0)), False),
    # Load buffering: each read sees the other thread's later write.
    "LB": (_litmus("LB", (0, "r", "x", 2), (0, "w", "y", 1),
                   (1, "r", "y", 1), (1, "w", "x", 2)), False),
    "LB-one": (_litmus("LB-one", (0, "r", "x", 2), (0, "w", "y", 1),
                       (1, "r", "y", 0), (1, "w", "x", 2)), True),
    # Independent reads of independent writes: TSO's writers agree on
    # one memory order.
    "IRIW": (_litmus("IRIW", (0, "w", "x", 1), (1, "w", "y", 2),
                     (2, "r", "x", 1), (2, "r", "y", 0),
                     (3, "r", "y", 2), (3, "r", "x", 0)), False),
    "IRIW-agree": (_litmus("IRIW-agree", (0, "w", "x", 1), (1, "w", "y", 2),
                           (2, "r", "x", 1), (2, "r", "y", 0),
                           (3, "r", "y", 2), (3, "r", "x", 1)), True),
    # A thread reads its own buffered write before anyone sees it.
    "forwarding": (_litmus("forwarding", (0, "w", "x", 1), (0, "r", "x", 1),
                           (1, "r", "x", 0)), True),
    # Coherence: a read goes back to the initial value.
    "CoRR": (_litmus("CoRR", (0, "w", "x", 1), (1, "r", "x", 1),
                     (1, "r", "x", 0)), False),
    # A read of a write its own thread issues only later.
    "future-read": (_litmus("future-read", (0, "r", "x", 1),
                            (0, "w", "x", 1)), False),
}


@pytest.mark.parametrize("name", list(LITMUS))
def test_litmus_verdicts_equal_the_enumeration(name):
    trace, allowed = LITMUS[name]
    assert has_execution(trace) is allowed
    for backend in INCREMENTAL_BACKENDS:
        result = check_tso_consistency(trace, backend=backend)
        assert result.details["consistent"] is allowed, (backend, result.findings)


def _executed(rng, threads, events):
    """A trace recorded from a random store-buffer execution: it always
    has one."""
    trace = Trace(name="executed")
    programs = {thread: events for thread in range(threads)}
    buffers = {thread: [] for thread in range(threads)}
    memory = {}
    value = 0
    while any(programs.values()) or any(buffers.values()):
        steps = [("issue", thread) for thread, left in programs.items()
                 if left]
        steps += [("flush", thread) for thread, buffer in buffers.items()
                  if buffer]
        step, thread = rng.choice(steps)
        if step == "flush":
            variable, written = buffers[thread].pop(0)
            memory[variable] = written
            continue
        programs[thread] -= 1
        variable = rng.choice("xy")
        if rng.random() < 0.5:
            value += 1
            buffers[thread].append((variable, value))
            trace.atomic_write(thread, variable, value=value,
                               memory_order=MemoryOrder.SEQ_CST)
            continue
        seen = memory.get(variable, 0)
        for buffered, written in buffers[thread]:
            if buffered == variable:
                seen = written
        trace.atomic_read(thread, variable, value=seen,
                          memory_order=MemoryOrder.SEQ_CST)
    return trace


def _guessed(rng, threads, events):
    """A trace whose reads pick any write of their variable, before or
    after them, or the initial value: mostly inconsistent."""
    trace = Trace(name="guessed")
    slots = [thread for thread in range(threads) for _ in range(events)]
    rng.shuffle(slots)
    kinds = [(thread, rng.choice("xy"), rng.random() < 0.5)
             for thread in slots]
    written = {"x": [0], "y": [0]}
    for value, (_thread, variable, is_write) in enumerate(kinds, 1):
        if is_write:
            written[variable].append(value)
    for value, (thread, variable, is_write) in enumerate(kinds, 1):
        if is_write:
            trace.atomic_write(thread, variable, value=value,
                               memory_order=MemoryOrder.SEQ_CST)
        else:
            trace.atomic_read(thread, variable,
                              value=rng.choice(written[variable]),
                              memory_order=MemoryOrder.SEQ_CST)
    return trace


def _variants():
    """Seeded traces of 2-3 threads and at most 8 events per thread: the
    tso generator's (stale reads on and off), recorded executions, and
    guessed reads-from."""
    for seed in range(40):
        threads = 2 + seed % 2
        events = 3 + seed % 6
        for stale in (0.0, 0.5):
            yield build_trace("tso", num_threads=threads, events=events,
                              seed=seed, stale_read_fraction=stale,
                              num_variables=2)
        rng = random.Random(seed)
        yield _executed(rng, threads, events)
        yield _guessed(rng, threads, 2 + seed % 4)


#: Seeded variants the checker calls consistent that have no execution.
#: Each has a thread read the initial value after its own write to the
#: variable: no rule orders that read after the write's flush.
MISSES = 13


def test_variants_are_sound_and_their_misses_pinned():
    consistent = inconsistent = misses = 0
    for trace in _variants():
        verdict = check_tso_consistency(trace).details["consistent"]
        exists = has_execution(trace)
        if not verdict:
            assert not exists, list(trace)   # soundness
            inconsistent += 1
        elif exists:
            consistent += 1
        else:
            misses += 1
    assert (consistent, inconsistent, misses) == (105, 42, MISSES)
