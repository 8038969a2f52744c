"""Trace-corpus registry: named suites of synthetic workloads.

A *suite* is a declarative grid of trace specifications -- workload kind x
thread count x per-thread events x seed -- that the sweep runner fans out
over.  Specs are tiny, hashable and picklable, so they can be shipped to
worker processes which materialize the actual trace locally (regenerating a
deterministic trace in the worker is far cheaper than pickling hundreds of
thousands of events across the process boundary).

:class:`TraceCorpus` adds lazy materialization with caching on top: a trace
is generated the first time it is requested and reused afterwards, which
matters when several (analysis, backend) jobs share one trace in a serial
(``--jobs 1``) sweep.

The paper's Tables 1-7 are registered here too (``table1`` ...
``table7``): each restates one table's benchmarks as named specs and
declares the table's analysis with its constructor options.
``python -m repro.bench`` runs them and renders each as a paper table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.trace.generators import build_trace, get_generator
from repro.trace.trace import Trace


#: Keyword arguments as a sorted tuple of ``(key, value)`` pairs: hashable
#: and picklable, unlike a dict.
Options = Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class TraceSpec:
    """A fully deterministic recipe for one synthetic trace.

    ``params`` holds extra generator keyword arguments as a sorted tuple of
    ``(key, value)`` pairs so the spec stays hashable and picklable.
    ``name`` (a paper benchmark name such as ``clean``) replaces the
    shape-derived :attr:`trace_id`.
    """

    kind: str
    threads: int
    events: int
    seed: int = 0
    params: Options = ()
    name: Optional[str] = None

    def __post_init__(self) -> None:
        get_generator(self.kind)  # fail fast on unknown kinds

    @property
    def trace_id(self) -> str:
        """Stable identifier used as the trace name and in sweep records."""
        if self.name is not None:
            return self.name
        identifier = f"{self.kind}-t{self.threads}-n{self.events}-s{self.seed}"
        if self.params:
            identifier += "-" + "-".join(f"{k}={v}" for k, v in self.params)
        return identifier

    def build(self) -> Trace:
        """Materialize the trace (deterministic given the spec)."""
        return build_trace(self.kind, num_threads=self.threads,
                           events=self.events, seed=self.seed,
                           name=self.trace_id, **dict(self.params))


@dataclass(frozen=True)
class Suite:
    """A named, ordered collection of trace specs.

    ``analyses`` optionally pins the suite to some analyses, each with its
    constructor options: ``(("race-prediction", (("candidate_window",
    8),)),)``.  Empty means every analysis each trace kind feeds, on
    default options.
    """

    name: str
    description: str
    specs: Tuple[TraceSpec, ...]
    analyses: Tuple[Tuple[str, Options], ...] = ()

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)


def override_seed(suite: Suite, seed: int) -> Suite:
    """Rebind every spec of ``suite`` to ``seed`` (the ``sweep --seed``
    path).

    Suites pin seeds internally for reproducibility; the override swaps in
    one caller-chosen seed across the board so the same grid can be
    re-measured on fresh randomness.  Specs that collapse onto each other
    once the seed is uniform (seed-diversity suites repeat one shape per
    seed) are deduplicated, mirroring the ``full`` suite's registration-time
    dedupe -- duplicate jobs would shadow each other in speedup
    aggregation.
    """
    specs = tuple(dict.fromkeys(
        replace(spec, seed=seed) for spec in suite.specs))
    return replace(suite, specs=specs)


def scale_suite(suite: Suite, scale: float) -> Suite:
    """Scale every spec's per-thread size by ``scale`` (the ``python -m
    repro.bench --scale`` path), to no fewer than 8 events -- or the
    spec's own size, if that is smaller, so scaling down never grows a
    trace."""
    if scale == 1.0:
        return suite
    # Short cells can collapse onto one size; keep one job per trace.
    return replace(suite, specs=tuple(dict.fromkeys(
        replace(spec, events=max(min(spec.events, 8), int(spec.events * scale)))
        for spec in suite.specs)))


def grid(kinds: Iterable[str], threads: Iterable[int], events: Iterable[int],
         seeds: Iterable[int] = (0,), **params) -> Tuple[TraceSpec, ...]:
    """Cartesian grid of specs: kind x threads x events x seed."""
    extra = tuple(sorted(params.items()))
    return tuple(
        TraceSpec(kind=k, threads=t, events=n, seed=s, params=extra)
        for k, t, n, s in itertools.product(kinds, threads, events, seeds)
    )


#: Named suites addressable from ``python -m repro sweep --suite NAME``.
SUITES: Dict[str, Suite] = {}


def register_suite(suite: Suite) -> Suite:
    """Register ``suite`` under its name (overwrites a previous entry)."""
    SUITES[suite.name] = suite
    return suite


def get_suite(name: str) -> Suite:
    """Look up a registered suite, raising :class:`ReproError` if unknown."""
    try:
        return SUITES[name]
    except KeyError:
        known = ", ".join(sorted(SUITES))
        raise ReproError(f"unknown suite {name!r}; known: {known}") from None


register_suite(Suite(
    name="smoke",
    description="Seconds-scale sanity sweep touching every analysis once.",
    specs=(
        grid(["racy"], [3], [40])
        + grid(["deadlock"], [3], [36])
        + grid(["memory"], [3], [36])
        + grid(["tso"], [2], [30])
        + grid(["c11"], [3], [36])
        + grid(["history"], [2], [8])
    ),
))

register_suite(Suite(
    name="quick",
    description="Every workload kind at two thread counts, one seed.",
    specs=(
        grid(["racy", "deadlock", "memory", "tso", "c11"], [2, 4], [120])
        + grid(["history"], [2, 3], [16])
    ),
))

register_suite(Suite(
    name="seeds",
    description="Seed diversity: each kind at a fixed shape, four seeds.",
    specs=(
        grid(["racy", "memory", "c11"], [4], [100], seeds=[0, 1, 2, 3])
        + grid(["history"], [3], [12], seeds=[0, 1, 2, 3])
    ),
))

register_suite(Suite(
    name="scaling",
    description="Thread/event scaling grid for the incremental analyses.",
    specs=(
        grid(["racy"], [2, 4, 8], [100, 200])
        + grid(["tso"], [2, 4, 8], [100, 200])
    ),
))

register_suite(Suite(
    name="full",
    description="Union of 'quick', 'seeds' and 'scaling'.",
    # dict.fromkeys dedupes overlapping grid points while preserving order
    # (a spec appearing twice would run duplicate jobs and the later record
    # would shadow the earlier one in speedup aggregation).
    specs=tuple(dict.fromkeys(SUITES["quick"].specs + SUITES["seeds"].specs
                              + SUITES["scaling"].specs)),
))


#: The crossover grid, per workload kind: (threads, events per thread)
#: cells at two lengths for each of 4, 16 and 64 threads, then one long
#: 4-thread cell (the paper's k << n regime).  Lengths are per kind, so
#: that a short cell takes ~20 ms on the fastest backend (13-20 ms for
#: the shortest ones in the committed table).
#: Linearizability's commit-order search is exponential in the number of
#: concurrent operations (one 16 x 1 history takes 5-10 s), so its
#: histories run at 2, 3 and 4 threads, with 2 x 48 as the long cell.
CROSSOVER_CELLS: Dict[str, Tuple[Tuple[int, int], ...]] = {
    "racy": ((4, 300), (4, 600), (16, 50), (16, 100), (64, 25), (64, 50),
             (4, 1500)),
    "deadlock": ((4, 300), (4, 400), (16, 50), (16, 100), (64, 25),
                 (64, 50), (4, 1500)),
    "tso": ((4, 300), (4, 600), (16, 50), (16, 100), (64, 25), (64, 50),
            (4, 1500)),
    "c11": ((4, 2500), (4, 5000), (16, 200), (16, 400), (64, 50),
            (64, 100), (4, 10000)),
    "memory": ((4, 6000), (4, 10000), (16, 1500), (16, 2000), (64, 300),
               (64, 500), (4, 16000)),
    "history": ((2, 32), (3, 10), (3, 12), (4, 4), (4, 6), (2, 48)),
}

register_suite(Suite(
    name="crossover",
    description="Backend crossover grid behind each analysis's default "
                "(docs/tables/crossover.md): every kind at 4/16/64 threads "
                "x two lengths, plus one long 4-thread cell.",
    specs=tuple(TraceSpec(kind=kind, threads=threads, events=events)
                for kind, cells in CROSSOVER_CELLS.items()
                for threads, events in cells),
))


# --------------------------------------------------------------------------- #
# The paper's Tables 1-7.
#
# Synthetic stand-ins for the paper's benchmarks: each keeps the thread
# count of the benchmark it is named after and scales the event count down
# so that a pure-Python run takes seconds (README.md, "Reproducing the
# paper's tables").  Every spec pins its seed.
# --------------------------------------------------------------------------- #
def _paper_table(number: int, title: str, kind: str, analysis: str,
                 options: Dict[str, object], keys: Sequence[str],
                 rows: Sequence[tuple], **shared) -> Suite:
    """Register ``table<number>``.  Each row is ``(benchmark, threads,
    events, seed, *values)``, ``values`` naming the generator arguments
    ``keys``; ``shared`` arguments go to every row."""
    specs = tuple(
        TraceSpec(kind=kind, threads=threads, events=events, seed=seed,
                  params=tuple(sorted({**shared,
                                       **dict(zip(keys, values))}.items())),
                  name=name)
        for name, threads, events, seed, *values in rows)
    return register_suite(Suite(
        name=f"table{number}", description=f"Table {number}: {title}",
        specs=specs, analyses=((analysis, tuple(sorted(options.items()))),)))


# The regime that matters for the data-structure comparison is long chains
# relative to the number of threads (n >> k): the saturation orderings then
# land deep inside the chains.
_paper_table(1, "race prediction", "racy", "race-prediction",
             {"candidate_window": 8}, ("num_variables", "num_locks"), (
                 ("clean", 4, 350, 101, 24, 3),
                 ("bubblesort", 5, 500, 102, 30, 2),
                 ("lang", 4, 700, 103, 40, 3),
                 ("readerswriters", 6, 600, 104, 36, 2),
                 ("raytracer", 4, 900, 105, 48, 4),
                 ("bufwriter", 5, 1000, 106, 56, 3),
                 ("ftpserver", 6, 1100, 107, 64, 5)))

_paper_table(2, "deadlock prediction", "deadlock", "deadlock-prediction",
             {}, ("num_locks",), (
                 ("jigsaw", 6, 300, 201, 10),
                 ("elevator", 5, 400, 202, 6),
                 ("hedc", 5, 500, 203, 8),
                 ("JDBCMySQL", 3, 700, 204, 4),
                 ("cache4j", 2, 900, 205, 4),
                 ("Swing", 6, 650, 206, 10)))

_paper_table(3, "memory-bug prediction", "memory", "memory-bugs",
             {"max_candidates": 400}, ("num_objects",), (
                 ("pbzip2", 5, 400, 301, 60),
                 ("pigz", 5, 550, 302, 80),
                 ("xz", 2, 900, 303, 60),
                 ("lbzip2", 6, 600, 304, 100),
                 ("x264", 5, 800, 305, 110)))

# The chain DAG has two chains per thread (program order + store buffer).
_paper_table(4, "x86-TSO consistency checking", "tso", "tso-consistency",
             {}, ("num_variables",), (
                 ("dekker", 3, 350, 401, 20),
                 ("peterson", 3, 450, 402, 24),
                 ("lamport", 3, 550, 403, 28),
                 ("dq", 4, 450, 404, 28),
                 ("chase-lev", 5, 400, 405, 32),
                 ("mcs-lock", 5, 550, 406, 40)),
             stale_read_fraction=0.0)

_paper_table(5, "use-after-free prediction", "memory", "use-after-free",
             {"max_candidates": 400}, ("num_objects",), (
                 ("bbuf", 3, 550, 501, 50),
                 ("BoundedBuffer", 6, 400, 502, 70),
                 ("DiningPhil", 8, 350, 503, 80),
                 ("fanger01-ok", 5, 500, 504, 70),
                 ("qtsort", 6, 550, 505, 90)))

# A streaming workload, which is why the paper finds VCs competitive.
_paper_table(6, "C11 race detection", "c11", "c11-races", {},
             ("num_atomic_variables", "num_plain_variables"), (
                 ("dq", 5, 700, 601, 4, 8),
                 ("mabain", 7, 600, 602, 5, 10),
                 ("seqlock", 8, 500, 603, 4, 8),
                 ("iris-1", 13, 400, 604, 6, 12),
                 ("readerswriters", 13, 400, 605, 4, 8),
                 ("atomicblocks", 16, 300, 606, 6, 10)))

# Three concurrent sets, each accessed an increasing number of times.  The
# seeds make the commit-order search explore and backtrack; the step bound
# keeps one search from running away.
_paper_table(7, "linearizability root-causing", "history", "linearizability",
             {"spec": "set", "max_steps": 30_000}, (), tuple(
                 (f"{structure}-{size}", 3, operations, seed)
                 for structure, seed in (("LogicalOrderingAVL", 701),
                                         ("OptimisticList", 704),
                                         ("RWLockCoarseList", 705))
                 for size, operations in (("s", 14), ("m", 20), ("l", 26))),
             data_structure="set", inject_violation=True)


@dataclass
class TraceCorpus:
    """Lazy, cached materialization of trace specs.

    The cache is per-corpus (not global) so tests and long-lived processes
    can control its lifetime; ``clear()`` drops every cached trace.
    """

    _cache: Dict[TraceSpec, Trace] = field(default_factory=dict)

    def get(self, spec: TraceSpec) -> Trace:
        """Return the trace for ``spec``, materializing it on first use."""
        trace = self._cache.get(spec)
        if trace is None:
            trace = spec.build()
            self._cache[spec] = trace
        return trace

    def materialize(self, specs: Sequence[TraceSpec]) -> List[Trace]:
        """Materialize every spec (in order), filling the cache."""
        return [self.get(spec) for spec in specs]

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()
