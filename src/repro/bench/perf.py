"""Perf-regression harness (``python -m repro bench perf``).

The repo's first recorded perf trajectory: a fixed suite of kernel and
analysis benchmarks is timed with warmup plus min-of-N repeats (timing runs
never execute under ``tracemalloc``), written to ``BENCH_<date>.json``, and
compared against the committed ``BENCH_baseline.json`` with a configurable
regression threshold.

Two kinds of cases:

* **Kernel cases** replay the Figure 11 scalability protocol (insert random
  windowed cross-chain edges between unordered endpoints, then issue batch
  reachability queries) against the paper's backends, plus a raw
  suffix-minima op mix on the SST (``sst-ops/flat``, named when the SST
  still had an object twin, so its trend keeps its history).
* **Analysis cases** run whole analyses over fixed synthetic workloads on
  several backends, so the columnar-trace fast paths are measured end to
  end.  ``stream/race-prediction`` runs one of them on a stream that
  flushes every 50 events.

Every case exists in a ``quick`` and a ``full`` size; regression checks only
compare like with like (the baseline file records both modes).  Absolute
seconds are machine-dependent -- the committed baseline anchors *this*
repo's reference machine and CI, and the default threshold (2x) absorbs
machine-to-machine variance; the ``speedups`` section (ratios of two cases
on the same machine, same run) is the machine-independent signal.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import measure, render_table
from repro.bench.workloads import FIGURE11_WINDOW
from repro.errors import BenchmarkError

PERF_FORMAT_VERSION = 1
DEFAULT_REPEATS = 3
DEFAULT_WARMUP = 1
DEFAULT_THRESHOLD = 2.0
BASELINE_FILENAME = "BENCH_baseline.json"


@dataclass(frozen=True)
class PerfCase:
    """One named benchmark: ``setup(quick)`` returns the timed callable.

    Setup cost (trace generation, candidate-edge precomputation) runs
    outside the timed region; the returned callable must be re-runnable
    (each repeat calls it afresh).
    """

    name: str
    setup: Callable[[bool], Callable[[], object]]


#: ``(fast case, slow case, label)`` -- pairs reported under ``speedups``.
SPEEDUP_PAIRS: Sequence[Tuple[str, str, str]] = (
    ("trace-load/stc", "trace-load/std", "stc-parse-over-std-parse"),
    # auto over its best static backend: the ratio is the selection
    # overhead of the `auto` pseudo-backend (target: < 1.05x).
    ("fig11/incremental-csst", "fig11/auto",
     "fig11-auto-over-best-static"),
    ("race-prediction/vc-flat", "race-prediction/auto",
     "race-prediction-auto-over-best-static"),
    ("c11-races/vc-flat", "c11-races/auto", "c11-auto-over-best-static"),
    # The default incremental CSST over vc-flat at 64 threads (target:
    # < 1.5x).
    ("tso-consistency-64t/vc-flat", "tso-consistency-64t/incremental-csst",
     "tso-64t-incremental-csst-over-vc-flat"),
    ("deadlock-prediction-64t/vc-flat",
     "deadlock-prediction-64t/incremental-csst",
     "deadlock-64t-incremental-csst-over-vc-flat"),
    ("race-prediction-64t/vc-flat", "race-prediction-64t/incremental-csst",
     "race-64t-incremental-csst-over-vc-flat"),
    # A stream flushing every 50 events over one batch run of the same
    # trace on the same (default) backend: what answering at every flush
    # costs.
    ("race-prediction/vc-flat", "stream/race-prediction",
     "stream-over-batch"),
)


# --------------------------------------------------------------------------- #
# Case builders
# --------------------------------------------------------------------------- #
#: Backends the Figure 11 kernel runs on -- also the candidate list the
#: ``fig11/auto`` case hands the ``auto`` rule.
FIG11_BACKENDS: Sequence[str] = (
    "csst", "incremental-csst", "vc-flat")


class _Fig11Candidates:
    """The analysis-class surface :func:`repro.tune.choose_backend` reads,
    offering :data:`FIG11_BACKENDS`."""

    @staticmethod
    def applicable_backends() -> Sequence[str]:
        return FIG11_BACKENDS

    @staticmethod
    def default_backend() -> str:
        return "incremental-csst"


#: Kernel runs per ``fig11/*`` and ``sst-ops/flat`` sample, and analysis
#: runs per sample of the analysis cases under 10 ms a run.  One quick
#: run of most of them takes 4-10 ms, and the 2x gate judged them on host
#: noise alone (up to 1.94x with no code change); five runs make a quick
#: sample of ~20 ms or more.
KERNEL_RUNS_PER_SAMPLE = 5


def _fig11_protocol(quick: bool):
    """Backend-independent setup of the Figure 11 protocol: the candidate
    cross-chain edges and the batch query mix, shared by every
    ``fig11/*`` case (all seeds are fixed, so every backend replays the
    identical protocol)."""
    from repro.trace.generators import random_cross_edges

    num_chains = 10
    chain_length = 250 if quick else 1000
    queries = 400 if quick else 2000
    candidates = random_cross_edges(
        num_chains, chain_length, count=chain_length,
        window=FIGURE11_WINDOW, seed=7)
    rng = random.Random(1234)
    query_pairs = [
        ((rng.randrange(num_chains), rng.randrange(chain_length)),
         (rng.randrange(num_chains), rng.randrange(chain_length)))
        for _ in range(queries)
    ]
    return num_chains, chain_length, candidates, query_pairs


def _fig11_run(backend: str, protocol) -> object:
    """Replay one prepared protocol on one backend."""
    from repro.core import make_partial_order

    num_chains, chain_length, candidates, query_pairs = protocol
    order = make_partial_order(backend, num_chains, chain_length)
    inserted = 0
    reachable = order.reachable
    insert = order.insert_edge
    for source, target in candidates:
        if reachable(source, target) or reachable(target, source):
            continue
        insert(source, target)
        inserted += 1
    return inserted, sum(order.query_many(query_pairs))


def _fig11_kernel(backend: str) -> Callable[[bool], Callable[[], object]]:
    """The Figure 11 scalability protocol on one backend."""

    def setup(quick: bool) -> Callable[[], object]:
        protocol = _fig11_protocol(quick)

        def run() -> object:
            for _ in range(KERNEL_RUNS_PER_SAMPLE):
                outcome = _fig11_run(backend, protocol)
            return outcome

        return run

    return setup


def _fig11_auto_kernel() -> Callable[[bool], Callable[[], object]]:
    """Figure 11 with the backend picked per run by the ``auto`` rule.

    The timed region covers the pick + the chosen kernel, so the
    ``*-auto-over-best-static`` speedup pair measures pure selection
    overhead (the pick lands on the best static backend)."""

    def setup(quick: bool) -> Callable[[], object]:
        from repro import tune

        protocol = _fig11_protocol(quick)

        def run() -> object:
            for _ in range(KERNEL_RUNS_PER_SAMPLE):
                chosen = tune.choose_backend(_Fig11Candidates)
                outcome = _fig11_run(chosen, protocol)
            return outcome

        return run

    return setup


def _sst_kernel() -> Callable[[bool], Callable[[], object]]:
    """A scripted update/clear/suffix_min/argleq mix on the SST."""

    def setup(quick: bool) -> Callable[[], object]:
        from repro.core import NO_SUCCESSOR

        operations = 4_000 if quick else 16_000
        rng = random.Random(99)
        script: List[Tuple[str, int]] = []
        live: List[int] = []
        for _ in range(operations):
            roll = rng.random()
            if roll < 0.45 or not live:
                index = rng.randrange(4096)
                script.append(("u", index, rng.randrange(100_000)))
                live.append(index)
            elif roll < 0.60:
                script.append(("c", live.pop(rng.randrange(len(live))), 0))
            elif roll < 0.80:
                script.append(("s", rng.randrange(4096), 0))
            else:
                script.append(("a", rng.randrange(100_000), 0))

        def run() -> object:
            from repro.core import SparseSegmentTree

            for _ in range(KERNEL_RUNS_PER_SAMPLE):
                tree = SparseSegmentTree(1024)
                checksum = 0
                for op, first, second in script:
                    if op == "u":
                        tree.update(first, second)
                    elif op == "c":
                        tree.update(first, NO_SUCCESSOR)
                    elif op == "s":
                        value = tree.suffix_min(first)
                        if value != NO_SUCCESSOR:
                            checksum += value
                    else:
                        result = tree.argleq(first)
                        if result >= 0:
                            checksum += result
            return checksum

        return run

    return setup


def _analysis_case(analysis: str, backend: str, generator: str,
                   runs_per_sample: int = 1,
                   **generator_kwargs) -> Callable[[bool], Callable[[], object]]:
    """One full analysis over a fixed synthetic workload, run
    ``runs_per_sample`` times per timed sample."""

    def setup(quick: bool) -> Callable[[], object]:
        from repro.analyses.common.base import Analysis
        from repro.trace.generators import build_trace

        kwargs = dict(generator_kwargs)
        if quick:
            kwargs["events"] = max(8, kwargs["events"] // 4)
        trace = build_trace(generator, **kwargs)
        cls = Analysis.by_name(analysis)

        def run() -> object:
            for _ in range(runs_per_sample):
                findings = cls(backend).run(trace).finding_count
            return findings

        return run

    return setup


def _stream_case(analysis: str, generator: str, flush_every: int,
                 **generator_kwargs) -> Callable[[bool], Callable[[], object]]:
    """One analysis on a stream over a fixed synthetic workload: the
    trace fed event by event through a
    :class:`~repro.stream.engine.StreamEngine` that flushes every
    ``flush_every`` events (quick mode shrinks the trace as
    :func:`_analysis_case` does)."""

    def setup(quick: bool) -> Callable[[], object]:
        from repro.stream.engine import StreamEngine
        from repro.stream.source import TraceSource
        from repro.stream.window import UnboundedWindow
        from repro.trace.generators import build_trace

        kwargs = dict(generator_kwargs)
        if quick:
            kwargs["events"] = max(8, kwargs["events"] // 4)
        trace = build_trace(generator, **kwargs)

        def run() -> object:
            engine = StreamEngine(
                [analysis], window=UnboundedWindow(flush_every=flush_every))
            return engine.run(TraceSource(trace)).finding_count

        return run

    return setup


#: Loads per ``trace-load/*`` sample, the same for both formats so their
#: ratio stays a per-load ratio.  One quick ``.stc`` load is ~0.5 ms,
#: timer- and host-noise bound against the 2x gate; 20 make a sample of
#: ~10 ms.
TRACE_LOADS_PER_SAMPLE = 20


def _trace_load_case(binary: bool) -> Callable[[bool], Callable[[], object]]:
    """Ingest throughput of one trace format: load, build the columnar
    view, then read every event once.  ``trace-load/std`` (text) and
    ``trace-load/stc`` (``binary``) do the same work on the same
    workload, as every consumer of a loaded trace does, so their ratio
    under ``speedups`` compares the two decoders alone."""

    def setup(quick: bool) -> Callable[[], object]:
        from repro.trace.binfmt import decode_trace, encode_trace
        from repro.trace.formats import dumps_trace, loads_trace
        from repro.trace.generators import build_trace

        trace = build_trace("c11", num_threads=6,
                            events=150 if quick else 600, seed=5)
        load, payload = ((decode_trace, encode_trace(trace)) if binary
                         else (loads_trace, dumps_trace(trace)))

        def run() -> object:
            for _ in range(TRACE_LOADS_PER_SAMPLE):
                loaded = load(payload)
                loaded.columns()
                for _event in loaded:
                    pass
            return len(loaded)

        return run

    return setup


def default_cases() -> List[PerfCase]:
    """The fixed perf suite (order is the report order)."""
    cases = [
        PerfCase(f"fig11/{backend}", _fig11_kernel(backend))
        for backend in FIG11_BACKENDS
    ]
    cases.append(PerfCase("fig11/auto", _fig11_auto_kernel()))
    cases.append(PerfCase("sst-ops/flat", _sst_kernel()))
    # "auto" analysis cases build the analysis inside the timed run, so
    # their seconds include the pick.
    for backend in ("incremental-csst", "vc-flat", "auto"):
        cases.append(PerfCase(
            f"race-prediction/{backend}",
            _analysis_case("race-prediction", backend, "racy",
                           num_threads=4, events=400, seed=11)))
    cases.append(PerfCase(
        "stream/race-prediction",
        _stream_case("race-prediction", "racy", flush_every=50,
                     num_threads=4, events=400, seed=11)))
    for backend in ("vc-flat", "auto"):
        cases.append(PerfCase(
            f"c11-races/{backend}",
            _analysis_case("c11-races", backend, "c11",
                           runs_per_sample=KERNEL_RUNS_PER_SAMPLE,
                           num_threads=8, events=500, seed=12)))
    cases.append(PerfCase(
        "use-after-free/incremental-csst",
        _analysis_case("use-after-free", "incremental-csst", "memory",
                       runs_per_sample=KERNEL_RUNS_PER_SAMPLE,
                       num_threads=5, events=400, seed=13)))
    # Scenario-program (repro.gen) workloads: schedule-driven interleavings
    # whose cross-chain shape the hand-rolled generators cannot produce.
    cases.append(PerfCase(
        "scn-locked-mix/incremental-csst",
        _analysis_case("race-prediction", "incremental-csst", "locked-mix",
                       num_threads=6, events=300, seed=21,
                       scheduler="adversarial")))
    cases.append(PerfCase(
        "scn-mpmc-queue/vc-flat",
        _analysis_case("c11-races", "vc-flat", "mpmc-queue",
                       runs_per_sample=KERNEL_RUNS_PER_SAMPLE,
                       num_threads=8, events=260, seed=22,
                       scheduler="weighted")))
    # The many-thread regime, on the default backend and on vc-flat: the
    # incremental CSST's insert closure and race-prediction's witness
    # phase are the costs that grow with the chain count.
    for analysis, generator, shapes in (
            ("tso-consistency", "tso", ((16, 100), (64, 50))),
            ("deadlock-prediction", "deadlock", ((16, 100), (64, 50))),
            ("race-prediction", "racy", ((64, 50),))):
        for threads, events in shapes:
            for backend in ("incremental-csst", "vc-flat"):
                cases.append(PerfCase(
                    f"{analysis}-{threads}t/{backend}",
                    _analysis_case(analysis, backend, generator,
                                   num_threads=threads, events=events,
                                   seed=1)))
    cases.append(PerfCase("trace-load/std", _trace_load_case(binary=False)))
    cases.append(PerfCase("trace-load/stc", _trace_load_case(binary=True)))
    return cases


# --------------------------------------------------------------------------- #
# Running
# --------------------------------------------------------------------------- #
def run_perf(quick: bool = False, repeats: int = DEFAULT_REPEATS,
             warmup: int = DEFAULT_WARMUP,
             cases: Optional[Sequence[PerfCase]] = None) -> Dict[str, object]:
    """Run the perf suite and return the result document.

    Timing is min-of-``repeats`` after ``warmup`` throwaway runs, and no
    timing run executes under ``tracemalloc``.
    """
    if repeats < 1:
        raise BenchmarkError(f"repeats must be >= 1, got {repeats}")
    if cases is None:
        cases = default_cases()
    results: Dict[str, Dict[str, object]] = {}
    for case in cases:
        runnable = case.setup(quick)
        for _ in range(warmup):
            runnable()
        runs = [measure(runnable, track_memory=False).seconds
                for _ in range(repeats)]
        results[case.name] = {"seconds": min(runs), "runs": runs}
    return {
        "version": PERF_FORMAT_VERSION,
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "warmup": warmup,
        "python": platform.python_version(),
        "results": results,
        "speedups": compute_speedups(results),
    }


def compute_speedups(results: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """Slow-over-fast ratios for every pair present in ``results``:
    ``.stc`` parse over STD parse, ``auto`` over its best static backend
    (selection overhead), ``incremental-csst`` over ``vc-flat`` at 64
    threads, and a flushing stream over one batch run."""
    speedups: Dict[str, float] = {}
    for fast, slow, label in SPEEDUP_PAIRS:
        fast_entry = results.get(fast)
        slow_entry = results.get(slow)
        if fast_entry is None or slow_entry is None:
            continue
        fast_seconds = float(fast_entry["seconds"])
        if fast_seconds > 0:
            speedups[label] = float(slow_entry["seconds"]) / fast_seconds
    return speedups


def build_baseline(repeats: int = DEFAULT_REPEATS,
                   warmup: int = DEFAULT_WARMUP,
                   cases: Optional[Sequence[PerfCase]] = None
                   ) -> Dict[str, object]:
    """Run both modes and assemble a baseline document."""
    quick = run_perf(quick=True, repeats=repeats, warmup=warmup, cases=cases)
    full = run_perf(quick=False, repeats=repeats, warmup=warmup, cases=cases)
    return {
        "version": PERF_FORMAT_VERSION,
        "created": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "repeats": repeats,
        "modes": {"quick": quick, "full": full},
    }


# --------------------------------------------------------------------------- #
# Comparison
# --------------------------------------------------------------------------- #
def compare_documents(current: Dict[str, object], baseline: Dict[str, object],
                      threshold: float = DEFAULT_THRESHOLD) -> List[str]:
    """Regressions of ``current`` against ``baseline`` (empty = clean).

    Only the matching mode section of the baseline is consulted; a baseline
    without that mode yields a single advisory entry prefixed ``note:``
    (which :func:`is_regression` ignores).
    """
    if threshold <= 0:
        raise BenchmarkError(f"threshold must be > 0, got {threshold}")
    mode = str(current.get("mode", "full"))
    base = baseline.get("modes", {}).get(mode)
    if base is None:
        return [f"note: baseline has no {mode!r} mode section; "
                f"regression check skipped"]
    base_results = base.get("results", {})
    regressions: List[str] = []
    for name, entry in current.get("results", {}).items():
        reference = base_results.get(name)
        if reference is None:
            continue
        current_seconds = float(entry["seconds"])
        reference_seconds = float(reference["seconds"])
        if reference_seconds > 0 and current_seconds > reference_seconds * threshold:
            regressions.append(
                f"{name}: {current_seconds:.4f}s vs baseline "
                f"{reference_seconds:.4f}s "
                f"({current_seconds / reference_seconds:.2f}x > "
                f"{threshold:.2f}x threshold)")
    return regressions


def is_regression(entries: Sequence[str]) -> bool:
    """Whether a :func:`compare_documents` result contains real regressions."""
    return any(not entry.startswith("note:") for entry in entries)


# --------------------------------------------------------------------------- #
# Reporting / persistence
# --------------------------------------------------------------------------- #
def format_report(document: Dict[str, object]) -> str:
    """Human-readable report of one perf run."""
    results = document.get("results", {})
    rows = [[name, f"{float(entry['seconds']):.4f}",
             " ".join(f"{run:.4f}" for run in entry.get("runs", ()))]
            for name, entry in results.items()]
    title = (f"perf[{document.get('mode', 'full')}]: {len(rows)} cases, "
             f"min of {document.get('repeats', '?')} repeats")
    report = render_table(title, ["case", "seconds", "runs"], rows)
    speedups = document.get("speedups", {})
    if speedups:
        lines = [f"  {label}: {ratio:.2f}x"
                 for label, ratio in speedups.items()]
        report += "\nspeedup ratios:\n" + "\n".join(lines)
    return report


def default_output_path() -> str:
    """``BENCH_<date>.json`` in the current directory; when that file
    already exists (a second run on the same day), ``BENCH_<date>-1.json``,
    ``-2``, ... so earlier reports are never silently overwritten."""
    stem = f"BENCH_{datetime.date.today().isoformat()}"
    path = f"{stem}.json"
    suffix = 0
    while os.path.exists(path):
        suffix += 1
        path = f"{stem}-{suffix}.json"
    return path


def write_document(document: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")


def read_document(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream)
