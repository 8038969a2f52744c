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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ReproError
from repro.trace.generators import build_trace, get_generator
from repro.trace.trace import Trace


@dataclass(frozen=True)
class TraceSpec:
    """A fully deterministic recipe for one synthetic trace.

    ``params`` holds extra generator keyword arguments as a sorted tuple of
    ``(key, value)`` pairs so the spec stays hashable and picklable.
    """

    kind: str
    threads: int
    events: int
    seed: int = 0
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        get_generator(self.kind)  # fail fast on unknown kinds

    @property
    def trace_id(self) -> str:
        """Stable identifier used as the trace name and in sweep records."""
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
    """A named, ordered collection of trace specs."""

    name: str
    description: str
    specs: Tuple[TraceSpec, ...]

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
    return Suite(name=suite.name, description=suite.description, specs=specs)


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
