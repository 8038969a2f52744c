"""Benchmark workload configurations.

Each paper table evaluates one analysis over a set of named benchmarks.  We
mirror those datasets with synthetic workloads: every entry keeps the thread
count of the corresponding paper benchmark and scales the event count down
so that a pure-Python run completes in seconds rather than the 80 hours of
the original artifact (see README.md, "Reproducing the paper's tables").
The *relative* behaviour of the data structures -- which is what Figure 10
and the tables compare -- is preserved because the structural trace
characteristics (threads, synchronisation pattern, cross-chain density) are
preserved.

All workloads are deterministic (fixed seeds) so repeated benchmark runs are
comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.trace import generators
from repro.trace.trace import Trace


@dataclass(frozen=True)
class Workload:
    """A named benchmark workload: a trace generator plus analysis options."""

    name: str
    generator: Callable[..., Trace]
    generator_kwargs: Dict[str, object]
    analysis_kwargs: Dict[str, object] = field(default_factory=dict)

    def build(self, scale: float = 1.0) -> Trace:
        """Generate the trace, optionally scaling the per-thread event count."""
        kwargs = dict(self.generator_kwargs)
        for key in ("events_per_thread", "operations_per_thread"):
            if key in kwargs and scale != 1.0:
                kwargs[key] = max(8, int(kwargs[key] * scale))
        kwargs.setdefault("name", self.name)
        return self.generator(**kwargs)


def _racy(name: str, threads: int, events: int, variables: int, locks: int,
          seed: int, **analysis) -> Workload:
    return Workload(
        name,
        generators.racy_trace,
        {
            "num_threads": threads,
            "events_per_thread": events,
            "num_variables": variables,
            "num_locks": locks,
            "seed": seed,
        },
        analysis,
    )


def _deadlock(name: str, threads: int, events: int, locks: int, seed: int,
              **analysis) -> Workload:
    return Workload(
        name,
        generators.deadlock_trace,
        {
            "num_threads": threads,
            "events_per_thread": events,
            "num_locks": locks,
            "seed": seed,
        },
        analysis,
    )


def _memory(name: str, threads: int, events: int, objects: int, seed: int,
            **analysis) -> Workload:
    return Workload(
        name,
        generators.memory_trace,
        {
            "num_threads": threads,
            "events_per_thread": events,
            "num_objects": objects,
            "seed": seed,
        },
        analysis,
    )


def _tso(name: str, threads: int, events: int, variables: int, seed: int,
         stale: float = 0.0, **analysis) -> Workload:
    return Workload(
        name,
        generators.tso_trace,
        {
            "num_threads": threads,
            "events_per_thread": events,
            "num_variables": variables,
            "stale_read_fraction": stale,
            "seed": seed,
        },
        analysis,
    )


def _c11(name: str, threads: int, events: int, atomics: int, plains: int,
         seed: int, **analysis) -> Workload:
    return Workload(
        name,
        generators.c11_trace,
        {
            "num_threads": threads,
            "events_per_thread": events,
            "num_atomic_variables": atomics,
            "num_plain_variables": plains,
            "seed": seed,
        },
        analysis,
    )


def _history(name: str, threads: int, operations: int, structure: str,
             seed: int, violation: bool = True, **analysis) -> Workload:
    return Workload(
        name,
        generators.history_trace,
        {
            "num_threads": threads,
            "operations_per_thread": operations,
            "data_structure": structure,
            "inject_violation": violation,
            "seed": seed,
        },
        analysis,
    )


# --------------------------------------------------------------------------- #
# Table 1: race prediction (paper benchmarks: clean .. batik).
#
# The regime that matters for the data-structure comparison is long chains
# relative to the number of threads (n >> k): the saturation orderings then
# land deep inside the chains and Vector Clock propagation pays O(n) per
# insert while CSSTs pay O(log n).
# --------------------------------------------------------------------------- #
TABLE1_RACE_PREDICTION: Sequence[Workload] = (
    _racy("clean", 4, 350, 24, 3, seed=101, candidate_window=8),
    _racy("bubblesort", 5, 500, 30, 2, seed=102, candidate_window=8),
    _racy("lang", 4, 700, 40, 3, seed=103, candidate_window=8),
    _racy("readerswriters", 6, 600, 36, 2, seed=104, candidate_window=8),
    _racy("raytracer", 4, 900, 48, 4, seed=105, candidate_window=8),
    _racy("bufwriter", 5, 1000, 56, 3, seed=106, candidate_window=8),
    _racy("ftpserver", 6, 1100, 64, 5, seed=107, candidate_window=8),
)

# --------------------------------------------------------------------------- #
# Table 2: deadlock prediction (paper benchmarks: jigsaw .. eclipse).
# --------------------------------------------------------------------------- #
TABLE2_DEADLOCK: Sequence[Workload] = (
    _deadlock("jigsaw", 6, 300, 10, seed=201),
    _deadlock("elevator", 5, 400, 6, seed=202),
    _deadlock("hedc", 5, 500, 8, seed=203),
    _deadlock("JDBCMySQL", 3, 700, 4, seed=204),
    _deadlock("cache4j", 2, 900, 4, seed=205),
    _deadlock("Swing", 6, 650, 10, seed=206),
)

# --------------------------------------------------------------------------- #
# Table 3: memory-bug prediction (paper benchmarks: pbzip2 .. x265).
# --------------------------------------------------------------------------- #
TABLE3_MEMORY_BUGS: Sequence[Workload] = (
    _memory("pbzip2", 5, 400, 60, seed=301, max_candidates=400),
    _memory("pigz", 5, 550, 80, seed=302, max_candidates=400),
    _memory("xz", 2, 900, 60, seed=303, max_candidates=400),
    _memory("lbzip2", 6, 600, 100, seed=304, max_candidates=400),
    _memory("x264", 5, 800, 110, seed=305, max_candidates=400),
)

# --------------------------------------------------------------------------- #
# Table 4: x86-TSO consistency checking (paper benchmarks: dekker .. barrier).
# The chain DAG has two chains per thread (program order + store buffer).
# --------------------------------------------------------------------------- #
TABLE4_TSO: Sequence[Workload] = (
    _tso("dekker", 3, 350, 20, seed=401),
    _tso("peterson", 3, 450, 24, seed=402),
    _tso("lamport", 3, 550, 28, seed=403),
    _tso("dq", 4, 450, 28, seed=404),
    _tso("chase-lev", 5, 400, 32, seed=405),
    _tso("mcs-lock", 5, 550, 40, seed=406),
)

# --------------------------------------------------------------------------- #
# Table 5: use-after-free query generation (paper benchmarks: bbuf .. pbzip).
# --------------------------------------------------------------------------- #
TABLE5_UAF: Sequence[Workload] = (
    _memory("bbuf", 3, 550, 50, seed=501, max_candidates=400),
    _memory("BoundedBuffer", 6, 400, 70, seed=502, max_candidates=400),
    _memory("DiningPhil", 8, 350, 80, seed=503, max_candidates=400),
    _memory("fanger01-ok", 5, 500, 70, seed=504, max_candidates=400),
    _memory("qtsort", 6, 550, 90, seed=505, max_candidates=400),
)

# --------------------------------------------------------------------------- #
# Table 6: C11 race detection (paper benchmarks: dq .. atomicblocks).
# This workload is streaming, which is why the paper finds VCs competitive.
# --------------------------------------------------------------------------- #
TABLE6_C11: Sequence[Workload] = (
    _c11("dq", 5, 700, 4, 8, seed=601),
    _c11("mabain", 7, 600, 5, 10, seed=602),
    _c11("seqlock", 8, 500, 4, 8, seed=603),
    _c11("iris-1", 13, 400, 6, 12, seed=604),
    _c11("readerswriters", 13, 400, 4, 8, seed=605),
    _c11("atomicblocks", 16, 300, 6, 10, seed=606),
)

# --------------------------------------------------------------------------- #
# Table 7: root-causing linearizability violations (paper: three concurrent
# sets, accessed an increasing number of times).
# --------------------------------------------------------------------------- #
TABLE7_LINEARIZABILITY: Sequence[Workload] = (
    # Three concurrent objects, each accessed an increasing number of times
    # (mirroring the structure of the paper's Table 7).  The seeds are chosen
    # so that the commit-order search genuinely has to explore and backtrack;
    # the step bound keeps individual searches from running away.
    _history("LogicalOrderingAVL-s", 3, 14, "set", seed=701, spec="set", max_steps=30_000),
    _history("LogicalOrderingAVL-m", 3, 20, "set", seed=701, spec="set", max_steps=30_000),
    _history("LogicalOrderingAVL-l", 3, 26, "set", seed=701, spec="set", max_steps=30_000),
    _history("OptimisticList-s", 3, 14, "set", seed=704, spec="set", max_steps=30_000),
    _history("OptimisticList-m", 3, 20, "set", seed=704, spec="set", max_steps=30_000),
    _history("OptimisticList-l", 3, 26, "set", seed=704, spec="set", max_steps=30_000),
    _history("RWLockCoarseList-s", 3, 14, "set", seed=705, spec="set", max_steps=30_000),
    _history("RWLockCoarseList-m", 3, 20, "set", seed=705, spec="set", max_steps=30_000),
    _history("RWLockCoarseList-l", 3, 26, "set", seed=705, spec="set", max_steps=30_000),
)

#: Parameters of the Figure 11 scalability experiment, scaled down from the
#: paper's (4-8)x10^4 and (0.25-1)x10^6 events per chain.
FIGURE11_CHAIN_LENGTHS: Sequence[int] = (250, 500, 1000, 2000)
FIGURE11_CHAIN_COUNTS: Sequence[int] = (10, 20)
FIGURE11_WINDOW: int = 200

ALL_TABLES: Dict[str, Sequence[Workload]] = {
    "table1": TABLE1_RACE_PREDICTION,
    "table2": TABLE2_DEADLOCK,
    "table3": TABLE3_MEMORY_BUGS,
    "table4": TABLE4_TSO,
    "table5": TABLE5_UAF,
    "table6": TABLE6_C11,
    "table7": TABLE7_LINEARIZABILITY,
}
