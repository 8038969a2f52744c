#!/usr/bin/env python3
"""Writing a custom dynamic analysis against the partial-order interface.

The point of CSSTs being a *drop-in* replacement is that an analysis only
talks to the abstract ``PartialOrder`` interface and can switch backends
with one argument.  This example builds a small happens-before race checker
from scratch (it is deliberately simpler than the library's own analyses),
runs it with three different backends, and verifies they agree.

Run with:  python examples/custom_analysis.py
"""

from repro import make_partial_order
from repro.trace import EventKind, Trace
from repro.trace.generators import racy_trace


def happens_before_races(trace: Trace, backend: str) -> list:
    """A minimal happens-before race checker.

    Builds the happens-before order (program order + lock release/acquire
    edges) through the generic interface and reports conflicting accesses
    that end up unordered.
    """
    order = make_partial_order(
        backend,
        num_chains=max(trace.num_threads, 1),
        capacity_hint=max(trace.max_thread_length, 1),
    )

    last_release = {}
    last_access = {}
    races = []
    for event in trace:
        if event.kind is EventKind.RELEASE:
            last_release[event.variable] = event
        elif event.kind is EventKind.ACQUIRE:
            previous = last_release.get(event.variable)
            if previous is not None and previous.thread != event.thread:
                if not order.reachable(previous.node, event.node):
                    order.insert_edge(previous.node, event.node)
        elif event.is_access:
            for (variable, thread), previous in list(last_access.items()):
                if variable != event.variable or thread == event.thread:
                    continue
                if not (previous.is_write or event.is_write):
                    continue
                if not order.reachable(previous.node, event.node):
                    races.append((previous, event))
            last_access[(event.variable, event.thread)] = event
    return races


def main() -> None:
    trace = racy_trace(num_threads=4, events_per_thread=200, num_variables=12,
                       num_locks=2, seed=5, name="custom-analysis-workload")
    print(f"trace: {len(trace)} events, {trace.num_threads} threads")

    counts = {}
    for backend in ("vc-flat", "st", "incremental-csst"):
        races = happens_before_races(trace, backend)
        counts[backend] = len(races)
        print(f"  {backend:18s} {len(races):4d} racy access pairs")

    assert len(set(counts.values())) == 1, "backends disagree!"
    print("\nall backends agree; custom_analysis example finished OK")


if __name__ == "__main__":
    main()
