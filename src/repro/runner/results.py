"""Structured sweep results: per-job records, aggregation, and export.

A sweep produces one :class:`SweepRecord` per (trace, analysis, backend)
job.  Records are plain, deterministic data -- everything except
``elapsed_seconds`` is identical between a serial and a parallel run of the
same sweep, which is what the regression tests pin down.

Aggregation follows the paper's methodology: per (trace, analysis) group the
baseline backend's time is divided by each backend's time, and the per-group
ratios are combined with a geometric mean (the Figure 10 quantity).
Export reuses the benchmark layer: CSV via
:func:`repro.bench.export.rows_to_csv`, text tables via
:func:`repro.bench.harness.render_table`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.bench.export import Destination, rows_to_csv
from repro.bench.harness import geometric_mean, render_table

#: Job status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"

#: Column order for CSV export (matches ``SweepRecord`` field names).
CSV_COLUMNS: Tuple[str, ...] = (
    "suite", "trace_id", "kind", "threads", "events", "seed",
    "analysis", "backend", "status", "elapsed_seconds",
    "elapsed_median_seconds", "repeats", "finding_count",
    "insert_count", "delete_count", "query_count", "error",
    "backend_selected",
)


@dataclass(frozen=True)
class SweepRecord:
    """Outcome of one sweep job.

    For failed or timed-out jobs the counters are zero and ``error`` carries
    the diagnostic (a traceback for errors, a message for timeouts).

    With ``--repeat N`` the job's analysis runs N times over the same trace:
    ``elapsed_seconds`` is the *minimum* (the conventional low-noise
    estimate), ``elapsed_median_seconds`` the median, and ``repeats``
    records N.  Single-shot sweeps carry ``repeats=1`` with the median equal
    to the only measurement.
    """

    suite: str
    trace_id: str
    kind: str
    threads: int
    events: int
    seed: int
    analysis: str
    backend: str
    status: str = STATUS_OK
    elapsed_seconds: float = 0.0
    elapsed_median_seconds: float = 0.0
    repeats: int = 1
    finding_count: int = 0
    insert_count: int = 0
    delete_count: int = 0
    query_count: int = 0
    error: Optional[str] = None
    #: The concrete backend that actually ran.  For ``auto`` jobs this is
    #: the ``auto`` rule's pick; for static jobs it equals ``backend``.
    backend_selected: str = ""
    #: Worker-local telemetry snapshot (metric deltas + finished span
    #: trees) for jobs that ran in a pool worker with tracing on; ``None``
    #: otherwise.  Collector-side transport only: the collector merges it
    #: and drops it, and it is excluded from ``to_dict``/CSV/JSON exports
    #: so record documents keep their pinned shape (``compare=False``
    #: keeps record equality about outcomes, not transport payloads).
    telemetry: Optional[Dict[str, object]] = field(default=None,
                                                   compare=False)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def display_backend(self) -> str:
        """The backend cell for tables: ``auto:<pick>`` for resolved
        ``auto`` jobs, the plain backend name otherwise."""
        if self.backend_selected and self.backend_selected != self.backend:
            return f"{self.backend}:{self.backend_selected}"
        return self.backend

    @property
    def operation_count(self) -> int:
        """Total partial-order operations issued by the job."""
        return self.insert_count + self.delete_count + self.query_count

    def to_dict(self) -> Dict[str, object]:
        return {spec.name: getattr(self, spec.name)
                for spec in fields(self) if spec.name != "telemetry"}

    def to_row(self) -> List[object]:
        data = self.to_dict()
        return [data[column] for column in CSV_COLUMNS]


@dataclass
class SweepResult:
    """All records of one sweep plus aggregation and export helpers."""

    suite: str
    records: List[SweepRecord] = field(default_factory=list)
    #: Oracle-validation report (``repro sweep --oracle``): the ``auto``
    #: rule's total regret vs the per-job best static backend.  ``None``
    #: unless the sweep ran in oracle mode (see :meth:`oracle_report`).
    oracle: Optional[Dict[str, object]] = None

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def ok_records(self) -> List[SweepRecord]:
        return [record for record in self.records if record.ok]

    def failures(self) -> List[SweepRecord]:
        return [record for record in self.records if not record.ok]

    def backends(self) -> List[str]:
        """Backends present in the sweep, in first-seen order."""
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.backend, None)
        return list(seen)

    def _groups(self) -> Dict[Tuple[str, str], Dict[str, SweepRecord]]:
        """Successful records grouped by (trace_id, analysis), per backend."""
        groups: Dict[Tuple[str, str], Dict[str, SweepRecord]] = {}
        for record in self.ok_records():
            groups.setdefault((record.trace_id, record.analysis), {})[
                record.backend] = record
        return groups

    def speedups(self, baseline: Optional[str] = None) -> Dict[str, float]:
        """Geometric-mean speedup of each backend over a baseline backend.

        A speedup above 1.0 means the backend is faster than the baseline.
        With ``baseline=None`` each (trace, analysis) group picks its own
        reference: ``"vc-flat"`` when present (the incremental analyses),
        otherwise ``"graph"`` (the fully dynamic ones) -- the two
        conventional baselines of the paper's tables.
        """
        ratios: Dict[str, List[float]] = {}
        for per_backend in self._groups().values():
            reference = baseline
            if reference is None:
                reference = "vc-flat" if "vc-flat" in per_backend else "graph"
            reference_record = per_backend.get(reference)
            if reference_record is None or reference_record.elapsed_seconds <= 0:
                continue
            for backend, record in per_backend.items():
                if backend == reference or record.elapsed_seconds <= 0:
                    continue
                ratios.setdefault(backend, []).append(
                    reference_record.elapsed_seconds / record.elapsed_seconds)
        return {backend: geometric_mean(values)
                for backend, values in sorted(ratios.items())}

    def totals(self) -> Dict[str, float]:
        """Total successful-job seconds per backend."""
        totals: Dict[str, float] = {}
        for record in self.ok_records():
            totals[record.backend] = (
                totals.get(record.backend, 0.0) + record.elapsed_seconds)
        return totals

    def oracle_report(self) -> Optional[Dict[str, object]]:
        """Regret of the ``auto`` picks vs the per-job best static backend.

        Considers every (trace, analysis) group holding an ``auto``
        record plus at least one static record; the static minimum is the
        per-job oracle.  Returns ``None`` when no group qualifies.
        ``regret_ratio`` is the fraction by which the rule's total
        runtime exceeds the oracle's (the acceptance gate of oracle
        sweeps); ``optimal_picks`` counts jobs where the rule chose the
        oracle's backend outright.
        """
        per_job: List[Dict[str, object]] = []
        auto_total = 0.0
        best_total = 0.0
        optimal = 0
        for (trace_id, analysis), per_backend in sorted(self._groups().items()):
            auto_record = per_backend.get("auto")
            statics = {backend: record
                       for backend, record in per_backend.items()
                       if backend != "auto"}
            if auto_record is None or not statics:
                continue
            best_backend = min(statics,
                               key=lambda b: statics[b].elapsed_seconds)
            best_seconds = statics[best_backend].elapsed_seconds
            auto_seconds = auto_record.elapsed_seconds
            auto_total += auto_seconds
            best_total += best_seconds
            if auto_record.backend_selected == best_backend:
                optimal += 1
            per_job.append({
                "trace_id": trace_id,
                "analysis": analysis,
                "selected": auto_record.backend_selected,
                "best_backend": best_backend,
                "auto_seconds": auto_seconds,
                "best_seconds": best_seconds,
                "regret_seconds": auto_seconds - best_seconds,
            })
        if not per_job:
            return None
        return {
            "jobs": len(per_job),
            "optimal_picks": optimal,
            "auto_seconds": auto_total,
            "best_seconds": best_total,
            "regret_seconds": auto_total - best_total,
            "regret_ratio": (auto_total - best_total) / best_total
            if best_total > 0 else 0.0,
            "per_job": per_job,
        }

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_document(self, baseline: Optional[str] = None) -> Dict[str, object]:
        """The JSON-able document: sweep metadata, per-job records,
        aggregates.  This is the dict :meth:`to_json` serializes and what
        :class:`repro.api.results.SweepRunResult` re-exports, so the two
        layers can never drift apart.  The ``oracle`` key appears only for
        oracle-mode sweeps, keeping pre-tuning documents byte-identical."""
        document = {
            "suite": self.suite,
            "jobs": len(self.records),
            "failures": len(self.failures()),
            "records": [record.to_dict() for record in self.records],
            "speedups": self.speedups(baseline),
        }
        if self.oracle is not None:
            document["oracle"] = self.oracle
        return document

    def to_json(self, baseline: Optional[str] = None, indent: int = 2) -> str:
        """JSON document: sweep metadata, per-job records, aggregates."""
        return json.dumps(self.to_document(baseline), indent=indent)

    def to_csv(self, destination: Destination) -> None:
        """One CSV row per job, in deterministic job order."""
        rows_to_csv(CSV_COLUMNS,
                    [record.to_row() for record in self.records],
                    destination)

    def to_table(self, baseline: Optional[str] = None) -> str:
        """Alias of :meth:`format_table` conforming to the
        ``to_json``/``to_table`` export protocol of
        :mod:`repro.api.results`."""
        return self.format_table(baseline)

    def format_table(self, baseline: Optional[str] = None) -> str:
        """Human-readable report: per-job table plus speedup summary."""
        headers = ["trace", "analysis", "backend", "status", "seconds",
                   "findings", "ops"]
        rows = [
            [record.trace_id, record.analysis, record.display_backend,
             record.status,
             f"{record.elapsed_seconds:.3f}", str(record.finding_count),
             str(record.operation_count)]
            for record in self.records
        ]
        report = render_table(f"sweep[{self.suite}]: {len(self.records)} jobs",
                              headers, rows)
        speedups = self.speedups(baseline)
        if speedups:
            label = baseline if baseline is not None else "per-analysis baseline"
            lines = [f"  {backend}: {value:.2f}x"
                     for backend, value in speedups.items()]
            report += ("\n" + f"geomean speedup vs {label}:\n"
                       + "\n".join(lines))
        if self.oracle is not None:
            oracle = self.oracle
            report += (
                "\noracle: {optimal}/{jobs} optimal picks, "
                "regret {regret:.3f}s ({ratio:+.1%} vs per-job best)".format(
                    optimal=oracle["optimal_picks"], jobs=oracle["jobs"],
                    regret=oracle["regret_seconds"],
                    ratio=oracle["regret_ratio"]))
        failures = self.failures()
        if failures:
            report += f"\n{len(failures)} job(s) failed:"
            for record in failures:
                message = (record.error or "").strip().splitlines()
                report += (f"\n  {record.trace_id} {record.analysis} "
                           f"[{record.backend}]: {record.status}"
                           + (f" -- {message[-1]}" if message else ""))
        return report
