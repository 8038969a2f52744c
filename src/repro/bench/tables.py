"""Regeneration of the paper's tables and figures.

Each ``run_table*`` function reproduces one table of Section 5: it runs the
corresponding analysis over the table's workloads once per partial-order
backend and collects wall-clock time and peak memory into a
:class:`~repro.bench.harness.TableResult`.  :func:`run_figure10` aggregates
the per-table results into the geometric-mean resource ratios of Figure 10,
and :func:`run_figure11` reproduces the controlled scalability experiment of
Figure 11.

The ``benchmarks/`` pytest suites call these functions with small scales;
``python -m repro.bench`` runs them all and prints paper-style tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analyses.c11 import C11RaceAnalysis
from repro.analyses.common.base import Analysis
from repro.analyses.deadlock import DeadlockPredictionAnalysis
from repro.analyses.linearizability import LinearizabilityAnalysis
from repro.analyses.membug import MemoryBugAnalysis
from repro.analyses.race_prediction import RacePredictionAnalysis
from repro.analyses.tso import TSOConsistencyAnalysis
from repro.analyses.uaf import UseAfterFreeAnalysis
from repro.bench.harness import BenchmarkRow, MeasuredRun, TableResult, geometric_mean, measure
from repro.bench.workloads import (
    FIGURE11_CHAIN_COUNTS,
    FIGURE11_CHAIN_LENGTHS,
    FIGURE11_WINDOW,
    TABLE1_RACE_PREDICTION,
    TABLE2_DEADLOCK,
    TABLE3_MEMORY_BUGS,
    TABLE4_TSO,
    TABLE5_UAF,
    TABLE6_C11,
    TABLE7_LINEARIZABILITY,
    Workload,
)
from repro.core import DYNAMIC_BACKENDS, INCREMENTAL_BACKENDS, make_partial_order
from repro.trace.generators import random_cross_edges
from repro.trace.trace import Trace

#: Human-readable labels for backend names (column headers in the paper).
BACKEND_LABELS = {
    "vc-flat": "VCs",
    "st": "STs",
    "incremental-csst": "CSSTs",
    "csst": "CSSTs (dyn)",
    "graph": "Graphs",
}


def run_analysis_table(title: str, workloads: Sequence[Workload],
                       analysis_factory: Callable[..., Analysis],
                       backends: Sequence[str],
                       scale: float = 1.0,
                       track_memory: bool = True) -> TableResult:
    """Run ``analysis_factory(backend)`` over every workload and backend."""
    table = TableResult(title=title, backends=list(backends))
    for workload in workloads:
        trace = workload.build(scale)
        row = BenchmarkRow(
            benchmark=workload.name,
            threads=trace.num_threads,
            events=len(trace),
        )
        row.density = estimate_density(trace, analysis_factory, workload)
        for backend in backends:
            analysis = analysis_factory(backend, **workload.analysis_kwargs)
            run = measure(lambda a=analysis: a.run(trace), track_memory=track_memory)
            row.seconds[backend] = run.seconds
            row.memory[backend] = run.peak_memory_bytes
            row.extra[backend] = run.value
        table.add_row(row)
    return table


def estimate_density(trace: Trace, analysis_factory: Callable[..., Analysis],
                     workload: Workload) -> float:
    """Estimate the paper's ``q`` column: the densest suffix-minima array of
    a CSST run, normalised by the chain length."""
    probe = analysis_factory("incremental-csst", **workload.analysis_kwargs)
    kind = "csst" if probe.requires_deletion else "incremental-csst"
    backend = make_partial_order(
        kind,
        num_chains=probe._num_chains(trace),
        capacity_hint=max(trace.max_thread_length, 1),
    )
    analysis_with_instance = analysis_factory(backend, **workload.analysis_kwargs)
    analysis_with_instance.run(trace)
    chain_length = max(trace.max_thread_length, 1)
    return min(1.0, backend.max_array_density / chain_length)


# --------------------------------------------------------------------------- #
# Tables 1-7
# --------------------------------------------------------------------------- #
def run_table1(backends: Sequence[str] = INCREMENTAL_BACKENDS,
               scale: float = 1.0, track_memory: bool = True) -> TableResult:
    """Table 1: predictive data-race detection."""
    return run_analysis_table(
        "Table 1: race prediction", TABLE1_RACE_PREDICTION,
        RacePredictionAnalysis, backends, scale, track_memory,
    )


def run_table2(backends: Sequence[str] = INCREMENTAL_BACKENDS,
               scale: float = 1.0, track_memory: bool = True) -> TableResult:
    """Table 2: predictive deadlock detection."""
    return run_analysis_table(
        "Table 2: deadlock prediction", TABLE2_DEADLOCK,
        DeadlockPredictionAnalysis, backends, scale, track_memory,
    )


def run_table3(backends: Sequence[str] = INCREMENTAL_BACKENDS,
               scale: float = 1.0, track_memory: bool = True) -> TableResult:
    """Table 3: predictive memory-bug detection."""
    return run_analysis_table(
        "Table 3: memory-bug prediction", TABLE3_MEMORY_BUGS,
        MemoryBugAnalysis, backends, scale, track_memory,
    )


def run_table4(backends: Sequence[str] = INCREMENTAL_BACKENDS,
               scale: float = 1.0, track_memory: bool = True) -> TableResult:
    """Table 4: x86-TSO consistency checking (two chains per thread)."""
    return run_analysis_table(
        "Table 4: x86-TSO consistency checking", TABLE4_TSO,
        TSOConsistencyAnalysis, backends, scale, track_memory,
    )


def run_table5(backends: Sequence[str] = INCREMENTAL_BACKENDS,
               scale: float = 1.0, track_memory: bool = True) -> TableResult:
    """Table 5: use-after-free query generation."""
    return run_analysis_table(
        "Table 5: use-after-free prediction", TABLE5_UAF,
        UseAfterFreeAnalysis, backends, scale, track_memory,
    )


def run_table6(backends: Sequence[str] = INCREMENTAL_BACKENDS,
               scale: float = 1.0, track_memory: bool = True) -> TableResult:
    """Table 6: data-race detection for the C11 memory model."""
    return run_analysis_table(
        "Table 6: C11 race detection", TABLE6_C11,
        C11RaceAnalysis, backends, scale, track_memory,
    )


def run_table7(backends: Sequence[str] = DYNAMIC_BACKENDS,
               scale: float = 1.0, track_memory: bool = True) -> TableResult:
    """Table 7: root-causing linearizability violations (fully dynamic)."""
    return run_analysis_table(
        "Table 7: linearizability root-causing", TABLE7_LINEARIZABILITY,
        LinearizabilityAnalysis, backends, scale, track_memory,
    )


ALL_TABLE_RUNNERS: Dict[str, Callable[..., TableResult]] = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "table7": run_table7,
}


# --------------------------------------------------------------------------- #
# Figure 10: geometric-mean resource ratios over CSSTs
# --------------------------------------------------------------------------- #
@dataclass
class Figure10Result:
    """Per-analysis geometric-mean time and memory ratios over CSSTs."""

    time_ratios: Dict[str, Dict[str, float]] = field(default_factory=dict)
    memory_ratios: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def format(self) -> str:
        lines = ["Figure 10: mean resource ratio over CSSTs", "-" * 60]
        for analysis in self.time_ratios:
            time_part = ", ".join(
                f"{BACKEND_LABELS.get(b, b)} {ratio:.2f}x"
                for b, ratio in self.time_ratios[analysis].items()
            )
            memory_part = ", ".join(
                f"{BACKEND_LABELS.get(b, b)} {ratio:.2f}x"
                for b, ratio in self.memory_ratios.get(analysis, {}).items()
            )
            lines.append(f"{analysis:12s} time: {time_part}")
            if memory_part:
                lines.append(f"{'':12s} mem : {memory_part}")
        lines.append("-" * 60)
        return "\n".join(lines)


def run_figure10(scale: float = 1.0,
                 tables: Optional[Dict[str, TableResult]] = None) -> Figure10Result:
    """Aggregate every table into the Figure 10 summary.

    ``tables`` may carry pre-computed table results (e.g. from a benchmark
    session) to avoid re-running everything.
    """
    if tables is None:
        tables = {name: runner(scale=scale) for name, runner in ALL_TABLE_RUNNERS.items()}
    figure = Figure10Result()
    for name, table in tables.items():
        reference = "csst" if "csst" in table.backends else "incremental-csst"
        figure.time_ratios[name] = table.mean_ratios(reference, "seconds")
        figure.memory_ratios[name] = table.mean_ratios(reference, "memory")
    return figure


# --------------------------------------------------------------------------- #
# Crossover experiment: where the paper's regime begins
# --------------------------------------------------------------------------- #
@dataclass
class CrossoverPoint:
    """One measurement of the crossover experiment."""

    backend: str
    events_per_thread: int
    seconds: float
    insert_count: int
    query_count: int


@dataclass
class CrossoverResult:
    """Analysis time as a function of trace length, per backend.

    The paper's headline result -- CSSTs beating Vector Clocks on
    non-streaming analyses -- relies on traces being long relative to the
    number of threads, so that the O(n) propagation cost of Vector Clock
    insertions dominates their O(1) queries.  This experiment makes the
    regime change visible on the scaled-down Python reproduction: it runs
    the TSO consistency analysis (the most update-heavy analysis of the
    evaluation) over traces of growing length and reports the total
    analysis time per backend.
    """

    points: List[CrossoverPoint] = field(default_factory=list)

    def series(self, backend: str) -> List[Tuple[int, float]]:
        return sorted(
            (point.events_per_thread, point.seconds)
            for point in self.points
            if point.backend == backend
        )

    def format(self) -> str:
        lines = ["Crossover: TSO consistency time vs events per thread", "-" * 66]
        lines.append(f"{'backend':20s} {'events/thread':>14s} {'seconds':>9s}")
        for point in sorted(self.points, key=lambda p: (p.backend, p.events_per_thread)):
            lines.append(
                f"{BACKEND_LABELS.get(point.backend, point.backend):20s} "
                f"{point.events_per_thread:>14d} {point.seconds:>9.2f}"
            )
        lines.append("-" * 66)
        return "\n".join(lines)


def run_crossover(backends: Sequence[str] = INCREMENTAL_BACKENDS,
                  events_per_thread: Sequence[int] = (800, 1600, 3200),
                  num_threads: int = 3, stale_read_fraction: float = 0.15,
                  seed: int = 9) -> CrossoverResult:
    """Run the crossover experiment (see :class:`CrossoverResult`).

    The workload contains occasional stale reads (store-buffer style
    reorderings that are not always TSO-explainable), so the checker both
    builds the full store-buffer order and hunts for a violation witness --
    the insertion-dominated usage pattern in which the paper's comparison
    operates.
    """
    from repro.analyses.tso import TSOConsistencyAnalysis
    from repro.trace.generators import tso_trace

    result = CrossoverResult()
    for events in events_per_thread:
        trace = tso_trace(
            num_threads=num_threads,
            events_per_thread=events,
            num_variables=max(8, events // 25),
            stale_read_fraction=stale_read_fraction,
            seed=seed,
            name=f"crossover-{events}",
        )
        for backend in backends:
            analysis = TSOConsistencyAnalysis(backend)
            outcome = analysis.run(trace)
            result.points.append(
                CrossoverPoint(
                    backend=backend,
                    events_per_thread=events,
                    seconds=outcome.elapsed_seconds,
                    insert_count=outcome.insert_count,
                    query_count=outcome.query_count,
                )
            )
    return result


# --------------------------------------------------------------------------- #
# Figure 11: controlled scalability experiment
# --------------------------------------------------------------------------- #
@dataclass
class ScalabilityPoint:
    """One data point of Figure 11."""

    backend: str
    num_chains: int
    chain_length: int
    insert_seconds: float     #: mean seconds per successful edge insertion
    query_seconds: float      #: mean seconds per reachability query
    inserted_edges: int
    queries: int


@dataclass
class Figure11Result:
    """All measured points of the scalability experiment."""

    points: List[ScalabilityPoint] = field(default_factory=list)

    def series(self, backend: str, num_chains: int, metric: str = "insert_seconds"
               ) -> List[Tuple[int, float]]:
        """The (chain length, value) series for one backend and chain count."""
        return sorted(
            (point.chain_length, getattr(point, metric))
            for point in self.points
            if point.backend == backend and point.num_chains == num_chains
        )

    def format(self) -> str:
        lines = ["Figure 11: scalability (mean seconds per operation)", "-" * 78]
        lines.append(
            f"{'backend':18s} {'k':>3s} {'len':>7s} {'insert (us)':>12s} {'query (us)':>12s}"
        )
        for point in sorted(self.points, key=lambda p: (p.backend, p.num_chains,
                                                        p.chain_length)):
            lines.append(
                f"{BACKEND_LABELS.get(point.backend, point.backend):18s} "
                f"{point.num_chains:>3d} {point.chain_length:>7d} "
                f"{point.insert_seconds * 1e6:>12.2f} {point.query_seconds * 1e6:>12.2f}"
            )
        lines.append("-" * 78)
        return "\n".join(lines)


def run_figure11(backends: Sequence[str] = INCREMENTAL_BACKENDS,
                 chain_lengths: Sequence[int] = FIGURE11_CHAIN_LENGTHS,
                 chain_counts: Sequence[int] = FIGURE11_CHAIN_COUNTS,
                 edges_per_length: float = 1.0, queries: int = 2_000,
                 window: int = FIGURE11_WINDOW, seed: int = 7) -> Figure11Result:
    """Reproduce the Figure 11 protocol.

    For every combination of backend, chain count ``k`` and chain length
    ``l``: start from an empty order of ``k`` chains, attempt to insert
    ``edges_per_length * l`` random windowed cross-chain edges between
    unordered endpoints (measuring mean insertion time), then issue
    ``queries`` random reachability queries (measuring mean query time).
    The paper attempts ``20 l`` edges; the default here is ``1 l`` to keep
    the pure-Python Vector Clock baseline (linear-time insertions) from
    dominating the benchmark wall-clock.
    """
    import random

    figure = Figure11Result()
    for num_chains in chain_counts:
        for chain_length in chain_lengths:
            candidates = random_cross_edges(
                num_chains, chain_length,
                count=max(1, int(edges_per_length * chain_length)),
                window=window, seed=seed,
            )
            rng = random.Random(seed + chain_length)
            query_nodes = [
                (
                    (rng.randrange(num_chains), rng.randrange(chain_length)),
                    (rng.randrange(num_chains), rng.randrange(chain_length)),
                )
                for _ in range(queries)
            ]
            for backend in backends:
                order = make_partial_order(backend, num_chains, chain_length)
                inserted = 0
                insert_time = 0.0
                for source, target in candidates:
                    if order.reachable(source, target) or order.reachable(target, source):
                        continue
                    start = time.perf_counter()
                    order.insert_edge(source, target)
                    insert_time += time.perf_counter() - start
                    inserted += 1
                query_start = time.perf_counter()
                for source, target in query_nodes:
                    order.reachable(source, target)
                query_time = time.perf_counter() - query_start
                figure.points.append(
                    ScalabilityPoint(
                        backend=backend,
                        num_chains=num_chains,
                        chain_length=chain_length,
                        insert_seconds=insert_time / max(inserted, 1),
                        query_seconds=query_time / max(queries, 1),
                        inserted_edges=inserted,
                        queries=queries,
                    )
                )
    return figure
