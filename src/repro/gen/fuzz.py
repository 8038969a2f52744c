"""Differential fuzzer: backend-pair and streaming/batch parity hunting.

``repro fuzz`` closes the loop between generation and the subsystem's two
equivalence contracts:

* **backend parity** -- every partial-order backend applicable to an
  analysis must produce the same findings on the same trace (incremental
  CSSTs vs segment trees vs both vector-clock representations, graphs vs
  CSSTs for the deletion-based analyses);
* **streaming/batch parity** -- the :class:`~repro.stream.engine.
  StreamEngine`'s final flush must equal a batch ``Analysis.run()``;
* **format parity** -- the default backend must produce the same
  findings on the in-memory trace and on its ``.stc`` binary round trip
  (``decode_trace(encode_trace(trace))``).

Each fuzz case deterministically derives a workload (kind round-robin
over the unified generator registry, shape sampled per case, schedulers
cycled for scenario kinds), runs every applicable comparison, and records
a :class:`Divergence` whenever two sides disagree.  Divergences are
*delta-debugged*: :func:`minimize_trace` shrinks the trace with a ddmin
pass over event subsets (rebuilding per-thread indexes after each cut)
plus a whole-thread elimination pre-pass, and the minimal counterexample
is written to disk as a plain ``.std`` file next to a JSON report -- the
artifact CI uploads on failure.

Findings are compared order-insensitively by their string forms: backends
may legitimately enumerate the same finding set in different orders.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analyses.common.base import Analysis
from repro.errors import FuzzError, ReproError
from repro.gen.schedulers import DEFAULT_SCHEDULER_CYCLE
from repro.runner.corpus import TraceSpec
from repro.trace.formats import dump_trace
from repro.trace.generators import GENERATOR_REGISTRY
from repro.trace.trace import Trace

#: Shape bounds per mode: (threads low/high, events low/high).
QUICK_SHAPE = ((2, 3), (16, 36))
FULL_SHAPE = ((2, 5), (30, 90))
#: Linearizability explodes with history length; cap its sizes hard.
HISTORY_SHAPE = ((2, 3), (4, 8))


def normalize_findings(findings: Sequence[object]) -> List[str]:
    """Order-insensitive comparison form of an analysis finding list."""
    return sorted(str(finding) for finding in findings)


@dataclass(frozen=True)
class FuzzCase:
    """One deterministic fuzz input: an indexed trace recipe.

    The recipe is a runner :class:`~repro.runner.corpus.TraceSpec`, so the
    id format and the build path are shared with sweeps and corpora --
    fuzz counterexample ids always cross-reference their output exactly.
    """

    index: int
    spec: TraceSpec

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def threads(self) -> int:
        return self.spec.threads

    @property
    def events(self) -> int:
        return self.spec.events

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def params(self) -> Tuple[Tuple[str, object], ...]:
        return self.spec.params

    @property
    def case_id(self) -> str:
        return f"fuzz{self.index:04d}-{self.spec.trace_id}"

    def build(self) -> Trace:
        return self.spec.build()


@dataclass
class Divergence:
    """One parity violation: two sides disagree on a trace."""

    case: FuzzCase
    analysis: str
    left: str  #: reference side label (backend name or 'batch')
    right: str  #: diverging side label (backend name or 'stream')
    left_findings: List[str]
    right_findings: List[str]
    error: Optional[str] = None  #: set when one side raised instead
    minimized_events: Optional[int] = None
    counterexample: Optional[str] = None  #: path of the minimized trace

    def describe(self) -> str:
        if self.error:
            detail = f"error: {self.error}"
        else:
            only_left = [f for f in self.left_findings
                         if f not in self.right_findings]
            only_right = [f for f in self.right_findings
                          if f not in self.left_findings]
            detail = (f"{len(self.left_findings)} vs "
                      f"{len(self.right_findings)} findings "
                      f"(+{len(only_left)}/-{len(only_right)})")
        where = f" -> {self.counterexample}" if self.counterexample else ""
        return (f"{self.case.case_id} {self.analysis} "
                f"[{self.left} vs {self.right}]: {detail}{where}")


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    cases: int = 0
    comparisons: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    per_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        lines = [f"fuzz: {self.cases} cases, {self.comparisons} comparisons, "
                 f"{len(self.divergences)} divergence(s)"]
        kinds = ", ".join(f"{kind}:{count}"
                          for kind, count in sorted(self.per_kind.items()))
        if kinds:
            lines.append(f"  kinds: {kinds}")
        for divergence in self.divergences:
            lines.append(f"  DIVERGENCE {divergence.describe()}")
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Case planning
# --------------------------------------------------------------------------- #
def plan_cases(seeds: int, kinds: Optional[Sequence[str]] = None,
               quick: bool = False, base_seed: int = 0) -> List[FuzzCase]:
    """Derive the deterministic case list for a fuzz run.

    ``seeds`` counts cases; kinds rotate round-robin so every workload
    family gets near-equal budget.  Shapes are sampled per case from an
    integer-seeded rng (no string hashing), so the plan is identical
    across processes and machines.
    """
    if seeds < 1:
        raise FuzzError(f"fuzz needs seeds >= 1, got {seeds}")
    if kinds:
        unknown = sorted(set(kinds) - set(GENERATOR_REGISTRY))
        if unknown:
            known = ", ".join(sorted(GENERATOR_REGISTRY))
            raise FuzzError(f"unknown kinds in fuzz request: {unknown}; "
                            f"known: {known}")
        selected = list(kinds)
    else:
        selected = [kind for kind, entry in GENERATOR_REGISTRY.items()
                    if entry.analyses]
    cases: List[FuzzCase] = []
    for index in range(seeds):
        kind = selected[index % len(selected)]
        entry = GENERATOR_REGISTRY[kind]
        shape = HISTORY_SHAPE if kind == "history" else (
            QUICK_SHAPE if quick else FULL_SHAPE)
        rng = random.Random((base_seed * 2_000_003 + index * 127)
                            ^ zlib.crc32(kind.encode()))
        (t_low, t_high), (n_low, n_high) = shape
        params: Tuple[Tuple[str, object], ...] = ()
        if entry.source == "scenario":
            # Cycle schedulers by *per-kind occurrence* (index // kinds):
            # indexing by the global case index would pin each kind to one
            # scheduler forever whenever the kind count is a multiple of
            # the cycle length.
            scheduler = DEFAULT_SCHEDULER_CYCLE[
                (index // len(selected)) % len(DEFAULT_SCHEDULER_CYCLE)]
            params = (("scheduler", scheduler),)
        cases.append(FuzzCase(index=index, spec=TraceSpec(
            kind=kind,
            threads=rng.randint(t_low, t_high),
            events=rng.randint(n_low, n_high),
            seed=base_seed * 10_000 + index,
            params=params,
        )))
    return cases


# --------------------------------------------------------------------------- #
# Comparisons
# --------------------------------------------------------------------------- #
def _run_findings(analysis: str, backend: str, trace: Trace) -> List[str]:
    return normalize_findings(
        Analysis.by_name(analysis)(backend).run(trace).findings)


def _stc_round_trip(trace: Trace) -> Trace:
    """The trace after a ``.stc`` encode/decode cycle."""
    from repro.trace.binfmt import decode_trace, encode_trace

    return decode_trace(encode_trace(trace), name=trace.name)


def _stream_findings(analyses: Sequence[str], trace: Trace
                     ) -> Dict[str, List[str]]:
    """Final streaming findings per analysis, from ONE engine pass.

    The engine attaches N analyses over shared incremental indexes, so
    every analysis of a case shares a single trace replay instead of
    paying one full pass each.
    """
    from repro.stream.engine import StreamEngine
    from repro.stream.source import TraceSource

    engine = StreamEngine(list(analyses))
    result = engine.run(TraceSource(trace))
    return {analysis: normalize_findings(res.findings)
            for analysis, res in result.results.items()}


def comparison_plan(kind: str,
                    backends: Optional[Sequence[str]] = None,
                    stream: bool = True
                    ) -> List[Tuple[str, str, str]]:
    """(analysis, left, right) comparisons for one workload kind.

    ``left`` is always the analysis's default backend (the reference);
    ``right`` is every *other* applicable backend, plus ``"stream"`` for
    the streaming/batch comparison and ``"stc"`` for the binary-format
    round-trip comparison.
    """
    plans: List[Tuple[str, str, str]] = []
    entry = GENERATOR_REGISTRY.get(kind)
    if entry is None or not entry.analyses:
        return plans
    for analysis in entry.analyses:
        cls = Analysis.by_name(analysis)
        reference = cls.default_backend()
        applicable = [b for b in cls.applicable_backends()
                      if backends is None or b in backends or b == reference]
        for backend in applicable:
            if backend != reference:
                plans.append((analysis, reference, backend))
        if stream:
            plans.append((analysis, reference, "stream"))
        plans.append((analysis, reference, "stc"))
    return plans


def compare_case(case: FuzzCase, trace: Trace,
                 backends: Optional[Sequence[str]] = None,
                 stream: bool = True) -> Tuple[int, List[Divergence]]:
    """Run every comparison for one case; returns (count, divergences)."""
    divergences: List[Divergence] = []
    comparisons = 0
    reference_cache: Dict[Tuple[str, str], List[str]] = {}
    plans = comparison_plan(case.kind, backends, stream)
    # One engine pass serves every streaming comparison of the case.
    stream_analyses = [analysis for analysis, _l, right in plans
                       if right == "stream"]
    stream_results: Dict[str, List[str]] = {}
    stream_error: Optional[str] = None
    if stream_analyses:
        try:
            stream_results = _stream_findings(stream_analyses, trace)
        except ReproError as error:
            stream_error = f"{type(error).__name__}: {error}"
    # One binary round trip serves every "stc" comparison of the case.
    stc_trace: Optional[Trace] = None
    stc_error: Optional[str] = None
    if any(right == "stc" for _a, _l, right in plans):
        try:
            stc_trace = _stc_round_trip(trace)
        except ReproError as error:
            stc_error = f"{type(error).__name__}: {error}"
    for analysis, left, right in plans:
        comparisons += 1
        try:
            key = (analysis, left)
            if key not in reference_cache:
                reference_cache[key] = _run_findings(analysis, left, trace)
            left_findings = reference_cache[key]
            if right == "stream":
                if stream_error is not None:
                    divergences.append(Divergence(
                        case=case, analysis=analysis, left=left, right=right,
                        left_findings=[], right_findings=[],
                        error=stream_error))
                    continue
                right_findings = stream_results[analysis]
            elif right == "stc":
                if stc_error is not None:
                    divergences.append(Divergence(
                        case=case, analysis=analysis, left=left, right=right,
                        left_findings=[], right_findings=[],
                        error=stc_error))
                    continue
                right_findings = _run_findings(analysis, left, stc_trace)
            else:
                right_findings = _run_findings(analysis, right, trace)
        except ReproError as error:
            divergences.append(Divergence(
                case=case, analysis=analysis, left=left, right=right,
                left_findings=[], right_findings=[],
                error=f"{type(error).__name__}: {error}"))
            continue
        if left_findings != right_findings:
            divergences.append(Divergence(
                case=case, analysis=analysis, left=left, right=right,
                left_findings=left_findings, right_findings=right_findings))
    return comparisons, divergences


# --------------------------------------------------------------------------- #
# Delta debugging
# --------------------------------------------------------------------------- #
def rebuild_trace(events: Sequence[object], name: str) -> Trace:
    """Rebuild a valid trace from an event subset.

    Per-thread indexes are reassigned consecutively (the subset keeps each
    thread's relative order), so any cut of the event list is again a
    well-formed trace.
    """
    trace = Trace(name=name)
    for event in events:
        trace.append(event.thread, event.kind, variable=event.variable,
                     value=event.value, target=event.target,
                     memory_order=event.memory_order,
                     operation=event.operation, argument=event.argument,
                     result=event.result, atomic=event.atomic)
    return trace


def minimize_trace(trace: Trace, predicate: Callable[[Trace], bool],
                   max_checks: int = 400) -> Trace:
    """Shrink ``trace`` to a small subset on which ``predicate`` holds.

    ``predicate`` must hold on the input trace.  A whole-thread
    elimination pre-pass removes entire chains, then a ddmin loop cuts
    complement chunks at halving granularity.  ``max_checks`` bounds the
    number of predicate evaluations (each one typically re-runs two
    analyses), so minimization cost stays predictable.
    """
    events = list(trace)
    name = f"{trace.name}-min"
    checks = [0]

    def holds(subset: Sequence[object]) -> bool:
        if not subset or checks[0] >= max_checks:
            return False
        checks[0] += 1
        try:
            return bool(predicate(rebuild_trace(subset, name)))
        except ReproError:
            # The cut produced a trace the analyses reject (e.g. an END
            # without its BEGIN); treat as not reproducing.
            return False

    if not holds(events):
        raise FuzzError("minimize_trace: predicate does not hold on the "
                        "input trace")

    # Whole-thread elimination first: the cheapest big cuts.
    changed = True
    while changed and checks[0] < max_checks:
        changed = False
        for thread in sorted({event.thread for event in events}):
            candidate = [e for e in events if e.thread != thread]
            if candidate and holds(candidate):
                events = candidate
                changed = True
                break

    # ddmin over complements with halving granularity.
    granularity = 2
    while len(events) >= 2 and checks[0] < max_checks:
        chunk = max(1, len(events) // granularity)
        reduced = False
        position = 0
        while position < len(events):
            candidate = events[:position] + events[position + chunk:]
            if candidate and holds(candidate):
                events = candidate
                reduced = True
                # Stay at the same position: the next chunk shifted in.
            else:
                position += chunk
            if checks[0] >= max_checks:
                break
        if reduced:
            granularity = max(granularity - 1, 2)
        elif granularity >= len(events):
            break
        else:
            granularity = min(len(events), granularity * 2)
    return rebuild_trace(events, name)


def _divergence_predicate(divergence: Divergence
                          ) -> Callable[[Trace], bool]:
    """Does the same (analysis, left, right) pair still disagree?"""
    analysis, left, right = (divergence.analysis, divergence.left,
                             divergence.right)

    def predicate(trace: Trace) -> bool:
        left_findings = _run_findings(analysis, left, trace)
        if right == "stream":
            right_findings = _stream_findings([analysis], trace)[analysis]
        elif right == "stc":
            right_findings = _run_findings(analysis, left,
                                           _stc_round_trip(trace))
        else:
            right_findings = _run_findings(analysis, right, trace)
        return left_findings != right_findings

    return predicate


def minimize_divergence(divergence: Divergence, out_dir: Union[str, Path],
                        max_checks: int = 400) -> Divergence:
    """Delta-debug one divergence and write the counterexample to disk.

    The minimized trace lands in ``out_dir`` as ``<case>-<analysis>-
    <pair>.std`` with a sibling ``.json`` report (case recipe, pair, both
    finding lists).  Error-divergences (one side raised) are written
    un-minimized: the failing input itself is the artifact.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = (f"{divergence.case.case_id}-{divergence.analysis}"
            f"-{divergence.left}-vs-{divergence.right}")
    trace = divergence.case.build()
    if divergence.error is None:
        try:
            trace = minimize_trace(trace, _divergence_predicate(divergence),
                                   max_checks=max_checks)
        except FuzzError:
            # Flaky divergence (did not reproduce on rebuild): keep the
            # original trace as the artifact.
            pass
    trace_path = out / f"{stem}.std"
    dump_trace(trace, trace_path)
    report = {
        "case": {
            "kind": divergence.case.kind,
            "threads": divergence.case.threads,
            "events": divergence.case.events,
            "seed": divergence.case.seed,
            "params": dict(divergence.case.params),
        },
        "analysis": divergence.analysis,
        "left": divergence.left,
        "right": divergence.right,
        "error": divergence.error,
        "left_findings": divergence.left_findings,
        "right_findings": divergence.right_findings,
        "minimized_events": len(trace),
        "trace": trace_path.name,
    }
    with open(out / f"{stem}.json", "w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
    divergence.minimized_events = len(trace)
    divergence.counterexample = str(trace_path)
    return divergence


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #
def run_fuzz(seeds: int = 50, quick: bool = False,
             kinds: Optional[Sequence[str]] = None,
             backends: Optional[Sequence[str]] = None,
             stream: bool = True, base_seed: int = 0,
             out_dir: Union[str, Path] = "fuzz-out",
             minimize: bool = True, max_checks: int = 400,
             on_case: Optional[Callable[[FuzzCase], None]] = None
             ) -> FuzzReport:
    """Run the differential fuzzer (see module docstring).

    ``on_case`` is a progress hook called before each case (the CLI's
    verbose mode).  Counterexamples are only written when divergences
    occur; a clean run leaves ``out_dir`` untouched.
    """
    if backends is not None:
        from repro.core import BACKENDS

        unknown = sorted(set(backends) - set(BACKENDS))
        if unknown:
            known = ", ".join(sorted(BACKENDS))
            raise FuzzError(f"unknown backends in fuzz request: {unknown}; "
                            f"known: {known}")
    report = FuzzReport()
    for case in plan_cases(seeds, kinds=kinds, quick=quick,
                           base_seed=base_seed):
        if on_case is not None:
            on_case(case)
        trace = case.build()
        comparisons, divergences = compare_case(case, trace,
                                                backends=backends,
                                                stream=stream)
        report.cases += 1
        report.comparisons += comparisons
        report.per_kind[case.kind] = report.per_kind.get(case.kind, 0) + 1
        for divergence in divergences:
            if minimize:
                divergence = minimize_divergence(divergence, out_dir,
                                                 max_checks=max_checks)
            report.divergences.append(divergence)
    return report
