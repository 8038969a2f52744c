#!/usr/bin/env python3
"""x86-TSO consistency checking of litmus tests and generated histories.

Demonstrates the consistency analysis of the paper's Table 4: the chain DAG
uses two chains per thread (program order + store buffer) and saturation
derives the orderings any witness must satisfy.  Classic litmus tests show
the difference between TSO and sequential consistency: store buffering (SB)
is accepted, while a coherence violation is rejected.

Run with:  python examples/consistency_checking.py
"""

from repro.analyses.tso import check_tso_consistency
from repro.trace import MemoryOrder, Trace
from repro.trace.generators import tso_trace


def store_buffering_litmus() -> Trace:
    """Both threads read the initial value after writing: allowed on TSO."""
    trace = Trace(name="SB")
    trace.atomic_write(0, "x", value=1, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_read(0, "y", value=0, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_write(1, "y", value=2, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_read(1, "x", value=0, memory_order=MemoryOrder.SEQ_CST)
    return trace


def message_passing_litmus() -> Trace:
    """The data read observes the write published before the flag."""
    trace = Trace(name="MP")
    trace.atomic_write(0, "data", value=1, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_write(0, "flag", value=2, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_read(1, "flag", value=2, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_read(1, "data", value=1, memory_order=MemoryOrder.SEQ_CST)
    return trace


def coherence_violation() -> Trace:
    """A read goes back to the initial value after observing a newer one:
    impossible under TSO."""
    trace = Trace(name="CoRR-violation")
    trace.atomic_write(0, "x", value=1, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_read(1, "x", value=1, memory_order=MemoryOrder.SEQ_CST)
    trace.atomic_read(1, "x", value=0, memory_order=MemoryOrder.SEQ_CST)
    return trace


def main() -> None:
    print("litmus tests:")
    for trace in (store_buffering_litmus(), message_passing_litmus(),
                  coherence_violation()):
        result = check_tso_consistency(trace, backend="incremental-csst")
        verdict = "consistent" if result.details["consistent"] else "INCONSISTENT"
        print(f"  {trace.name:16s} -> {verdict}"
              f" ({result.insert_count} orderings inserted)")
        for witness in result.findings:
            print(f"      witness: {witness}")

    print("\ngenerated store-buffer workload:")
    workload = tso_trace(num_threads=3, events_per_thread=300, num_variables=12,
                         stale_read_fraction=0.0, seed=3, name="generated")
    for backend in ("vc-flat", "st", "incremental-csst"):
        result = check_tso_consistency(workload, backend=backend)
        print(
            f"  {backend:18s} consistent={result.details['consistent']} "
            f"time={result.elapsed_seconds:5.2f}s "
            f"inserts={result.insert_count} queries={result.query_count}"
        )
    print("\nconsistency_checking example finished OK")


if __name__ == "__main__":
    main()
