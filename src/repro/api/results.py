"""Structured result objects returned by :class:`repro.api.Session`.

Every ``Session.run(config)`` call returns one of these.  They share one
export protocol with :class:`repro.runner.results.SweepResult` and the
bench documents:

* ``to_dict()``  -- JSON-able document (the canonical machine form);
* ``to_json()``  -- ``to_dict`` rendered as indented JSON.  For requests
  that already had a JSON format before the facade existed (sweeps), the
  bytes are unchanged -- the parity golden tests pin this;
* ``to_table()`` -- the human rendering, byte-identical to what the CLI
  printed before the facade existed;
* ``exit_code``  -- the process exit code a front end should return for
  this outcome (:data:`repro.errors.EXIT_OK` /
  :data:`~repro.errors.EXIT_FAILURE`);
* ``warnings``   -- non-fatal diagnostics (dropped flags, baseline ran no
  job, ...) for the front end's stderr.

The result objects also keep their rich payloads (the live
:class:`~repro.trace.Trace`, the per-job sweep records, the fuzz report)
so library callers are not limited to the serialized view.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import EXIT_FAILURE, EXIT_OK

if TYPE_CHECKING:  # deferred: keep `import repro` light (core+errors only)
    from repro.runner.results import SweepResult
    from repro.trace.trace import Trace


@dataclass
class Result:
    """Base class implementing the shared export protocol."""

    #: Non-fatal diagnostics a front end should surface on stderr.
    warnings: Tuple[str, ...] = ()
    #: Metrics snapshot of the run (set by ``Session.run`` when telemetry
    #: was enabled, ``None`` otherwise).  Deliberately an attribute, not
    #: part of ``to_dict()``: the serialized documents are pinned by
    #: parity goldens and must not change shape with telemetry on.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def exit_code(self) -> int:
        """Stable process exit code for this outcome."""
        return EXIT_OK

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able document of this result."""
        raise NotImplementedError

    def to_json(self, indent: int = 2) -> str:
        """``to_dict`` as indented JSON text."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def to_table(self) -> str:
        """Human-readable rendering (no trailing newline)."""
        raise NotImplementedError


def _scalar_details(details: Mapping[str, Any]) -> List[Tuple[str, Any]]:
    """The sorted scalar detail entries an analyze rendering shows."""
    return [(key, value) for key, value in sorted(details.items())
            if not isinstance(value, (list, dict))]


@dataclass
class GenerateResult(Result):
    """One generated trace (from :class:`~repro.api.config.GenerateConfig`)."""

    kind: str = ""
    seed: int = 0
    trace: Optional[Trace] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.trace.name,
            "seed": self.seed,
            "event_count": len(self.trace),
            "thread_count": self.trace.num_threads,
        }

    def to_table(self) -> str:
        return (f"{self.trace.name}: {len(self.trace)} events "
                f"({self.trace.num_threads} threads)")


@dataclass
class ConvertResult(Result):
    """One trace format translation (from
    :class:`~repro.api.config.ConvertConfig`)."""

    source: str = ""
    out: str = ""
    source_format: str = ""
    out_format: str = ""
    trace_name: str = ""
    event_count: int = 0
    thread_count: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "out": self.out,
            "source_format": self.source_format,
            "out_format": self.out_format,
            "name": self.trace_name,
            "event_count": self.event_count,
            "thread_count": self.thread_count,
        }

    def to_table(self) -> str:
        return (f"{self.source} ({self.source_format}) -> "
                f"{self.out} ({self.out_format}): "
                f"{self.event_count} events ({self.thread_count} threads)")


@dataclass
class AnalyzeResult(Result):
    """One analysis run (from :class:`~repro.api.config.AnalyzeConfig`).

    Wraps the library-level
    :class:`~repro.analyses.common.base.AnalysisResult` (kept intact in
    :attr:`raw`); ``max_findings`` only bounds :meth:`to_table`.
    """

    raw: Any = None
    max_findings: int = 20

    def to_dict(self) -> Dict[str, Any]:
        raw = self.raw
        return {
            "analysis": raw.analysis,
            "backend": raw.backend,
            "backend_selected": raw.details.get("backend_selected",
                                                raw.backend),
            "trace_name": raw.trace_name,
            "trace_events": raw.trace_events,
            "trace_threads": raw.trace_threads,
            "elapsed_seconds": raw.elapsed_seconds,
            "finding_count": raw.finding_count,
            "findings": [str(finding) for finding in raw.findings],
            "insert_count": raw.insert_count,
            "delete_count": raw.delete_count,
            "query_count": raw.query_count,
            "details": raw.details,
        }

    def to_table(self) -> str:
        raw = self.raw
        lines = [raw.summary()]
        for key, value in _scalar_details(raw.details):
            lines.append(f"  {key}: {value}")
        shown = raw.findings[:max(self.max_findings, 0)]
        for finding in shown:
            lines.append(f"  finding: {finding}")
        remaining = raw.finding_count - len(shown)
        if remaining > 0:
            lines.append(f"  ... and {remaining} more")
        return "\n".join(lines)


@dataclass
class CompareResult(Result):
    """One analysis across backends (from
    :class:`~repro.api.config.CompareConfig`); one entry of :attr:`runs`
    per backend, in applicable-backend order."""

    analysis: str = ""
    trace_name: str = ""
    runs: List[Any] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "analysis": self.analysis,
            "trace_name": self.trace_name,
            "runs": [{
                "backend": run.backend,
                "elapsed_seconds": run.elapsed_seconds,
                "finding_count": run.finding_count,
                "insert_count": run.insert_count,
                "delete_count": run.delete_count,
                "query_count": run.query_count,
            } for run in self.runs],
        }

    def to_table(self) -> str:
        lines = [f"{'backend':22s} {'seconds':>9s} {'findings':>9s} "
                 f"{'inserts':>9s} {'deletes':>9s} {'queries':>9s}"]
        for run in self.runs:
            lines.append(
                f"{run.backend:22s} {run.elapsed_seconds:9.3f} "
                f"{run.finding_count:9d} {run.insert_count:9d} "
                f"{run.delete_count:9d} {run.query_count:9d}")
        return "\n".join(lines)


@dataclass
class SweepRunResult(Result):
    """One sweep (from :class:`~repro.api.config.SweepConfig`).

    Wraps the runner-layer :class:`~repro.runner.results.SweepResult`
    (kept intact in :attr:`sweep`); ``to_json``/``to_table``/``to_csv``
    delegate to it so the serialized forms are byte-identical to the
    pre-facade CLI output.
    """

    sweep: Optional[SweepResult] = None
    baseline: Optional[str] = None

    @property
    def exit_code(self) -> int:
        return EXIT_FAILURE if self.sweep.failures() else EXIT_OK

    @property
    def records(self):
        return self.sweep.records

    def to_dict(self) -> Dict[str, Any]:
        return self.sweep.to_document(baseline=self.baseline)

    def to_table(self) -> str:
        return self.sweep.format_table(baseline=self.baseline)

    def to_csv(self, destination) -> None:
        self.sweep.to_csv(destination)


@dataclass
class WatchResult(Result):
    """One watch run (from :class:`~repro.api.config.WatchConfig`).

    Wraps the engine-layer :class:`~repro.stream.engine.StreamResult`
    (:attr:`stream`); ``to_dict`` is exactly the ``jsonl`` summary
    document the CLI emits.
    """

    stream: Any = None
    cursor: int = 0  #: engine cursor after the run
    checkpoint: Optional[str] = None  #: checkpoint path saved to, if any
    resumed_from: Optional[str] = None  #: checkpoint path resumed from
    resume_cursor: int = 0  #: cursor the run resumed at

    @property
    def exit_code(self) -> int:
        # Mirror `sweep`: a run whose final flush failed for some analysis
        # is not a clean success (its final result is missing), even though
        # the stream itself was consumed and checkpointed.
        return EXIT_FAILURE if self.stream.errors else EXIT_OK

    def to_dict(self) -> Dict[str, Any]:
        result = self.stream
        document = {
            "type": "summary",
            "name": result.name,
            "events": result.stats.events,
            "threads": result.stats.threads,
            "flushes": result.stats.flushes,
            "emitted": result.stats.emitted,
            "final": {name: [str(finding) for finding in res.findings]
                      for name, res in sorted(result.results.items())},
        }
        # Only `auto` runs carry picks; keep pre-tuning summaries intact.
        if getattr(result, "backends_selected", None):
            document["backends_selected"] = dict(result.backends_selected)
        return document

    def to_table(self) -> str:
        result = self.stream
        lines = [result.summary()]
        for name, res in sorted(result.results.items()):
            lines.append(f"  final[{name}]: {res.finding_count} findings "
                         f"({res.operation_count} PO ops, "
                         f"{res.elapsed_seconds:.3f}s last flush)")
        if self.checkpoint is not None:
            lines.append(f"checkpoint saved to {self.checkpoint} "
                         f"(cursor {self.cursor})")
        return "\n".join(lines)


@dataclass
class ServeResult(Result):
    """One service run (from :class:`~repro.api.config.ServeConfig`).

    Wraps the service-layer :class:`~repro.serve.service.ServeOutcome`
    (:attr:`outcome`).  ``to_dict`` nests, per tenant, the *identical*
    summary document a single-source ``repro watch`` over that tenant's
    feed would emit -- that shape equality is the serve/watch parity
    contract the integration tests pin.
    """

    outcome: Any = None

    @property
    def exit_code(self) -> int:
        # Like watch: a tenant whose final flush failed (or whose feed
        # was poisoned by a bad line) is not a clean success.
        for document in self.outcome.summaries.values():
            if document.get("errors"):
                return EXIT_FAILURE
        return EXIT_FAILURE if self.outcome.errors else EXIT_OK

    def to_dict(self) -> Dict[str, Any]:
        outcome = self.outcome
        document: Dict[str, Any] = {
            "type": "serve",
            "tenants": list(outcome.tenants),
            "events": outcome.events,
            "workers": outcome.workers,
            "respawns": outcome.respawns,
            "quota_rejected": outcome.rejected,
            "findings": [
                {"tenant": item.tenant, "analysis": item.analysis,
                 "position": item.position, "finding": item.finding}
                for item in sorted(
                    outcome.findings,
                    key=lambda f: (f.tenant, f.position, f.analysis,
                                   f.finding))
            ],
            "summaries": {tenant: outcome.summaries[tenant]
                          for tenant in outcome.tenants},
        }
        if outcome.errors:
            document["errors"] = [
                {"tenant": tenant, "error": text}
                for tenant, text in outcome.errors]
        return document

    def to_table(self) -> str:
        outcome = self.outcome
        lines = [f"served {len(outcome.tenants)} tenants, "
                 f"{outcome.events} events, {len(outcome.findings)} "
                 f"findings ({outcome.workers} workers, "
                 f"{outcome.respawns} respawns)"]
        for tenant in outcome.tenants:
            doc = outcome.summaries[tenant]
            lines.append(f"  {tenant}: {doc['events']} events, "
                         f"{doc['emitted']} findings")
        if outcome.rejected:
            lines.append(f"  quota-rejected events: {outcome.rejected}")
        for tenant, text in outcome.errors[:5]:
            lines.append(f"  error[{tenant}]: {text}")
        return "\n".join(lines)


@dataclass
class CorpusResult(Result):
    """One built corpus (from :class:`~repro.api.config.GenConfig`);
    ``to_dict`` is the manifest document written to disk."""

    manifest: Dict[str, Any] = field(default_factory=dict)
    out: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return self.manifest

    def to_json(self, indent: int = 2) -> str:
        # sort_keys matches how build_corpus writes manifest.json, so the
        # printed document is byte-identical to the file (docs/cli.md).
        return json.dumps(self.manifest, indent=indent, sort_keys=True)

    def to_table(self) -> str:
        members = self.manifest["traces"]
        total_events = sum(member["event_count"] for member in members)
        return (
            f"wrote {len(members)} traces ({total_events} events) to "
            f"{self.out}\n"
            f"manifest: {self.out}/manifest.json\n"
            f"registered sweep suite {self.manifest['suite']!r} "
            f"(sweep it with: repro sweep --corpus {self.out}/manifest.json)")


@dataclass
class FuzzResult(Result):
    """One fuzz run (from :class:`~repro.api.config.FuzzConfig`); wraps
    the :class:`~repro.gen.fuzz.FuzzReport` in :attr:`report`."""

    report: Any = None
    out: str = "fuzz-out"
    minimized: bool = True  #: whether divergences were delta-debugged

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.report.ok else EXIT_FAILURE

    def to_dict(self) -> Dict[str, Any]:
        report = self.report
        return {
            "ok": report.ok,
            "cases": report.cases,
            "comparisons": report.comparisons,
            "per_kind": dict(sorted(report.per_kind.items())),
            "divergences": [{
                "case_id": divergence.case.case_id,
                "analysis": divergence.analysis,
                "left": divergence.left,
                "right": divergence.right,
                "error": divergence.error,
                "left_findings": divergence.left_findings,
                "right_findings": divergence.right_findings,
                "minimized_events": divergence.minimized_events,
                "counterexample": divergence.counterexample,
            } for divergence in report.divergences],
        }

    def to_table(self) -> str:
        return self.report.summary()


@dataclass
class BenchResult(Result):
    """One perf-harness run (from :class:`~repro.api.config.BenchConfig`).

    :attr:`document` is the perf JSON document (the run document, or the
    two-mode baseline document for ``update_baseline`` runs);
    :attr:`notes` are the post-report stdout messages; :attr:`regressions`
    pairs each comparison entry with whether it is a real regression
    (advisory ``note:`` entries are not).
    """

    document: Dict[str, Any] = field(default_factory=dict)
    report: str = ""
    out_path: Optional[str] = None  #: report file written, if any
    rendered_document: Optional[str] = None  #: set for ``out="-"`` runs
    notes: Tuple[str, ...] = ()
    regressions: Tuple[Tuple[str, bool], ...] = ()

    @property
    def exit_code(self) -> int:
        return (EXIT_FAILURE
                if any(regressing for _, regressing in self.regressions)
                else EXIT_OK)

    def to_dict(self) -> Dict[str, Any]:
        return self.document

    def to_json(self, indent: int = 2) -> str:
        # sort_keys matches how perf documents are written to disk.
        return json.dumps(self.document, indent=indent, sort_keys=True)

    def to_table(self) -> str:
        return self.report


@dataclass
class StatsResult(Result):
    """One rendered metrics snapshot (from
    :class:`~repro.api.config.StatsConfig`).

    :attr:`snapshot` is the selected snapshot document;
    :attr:`snapshot_count` how many the source file held.  ``to_prom`` is
    the Prometheus text exposition of the same snapshot.
    """

    source: str = ""
    snapshot: Dict[str, Any] = field(default_factory=dict)
    snapshot_count: int = 0
    index: int = -1

    def to_dict(self) -> Dict[str, Any]:
        return self.snapshot

    def to_table(self) -> str:
        from repro.obs.sinks import render_stats_table

        return render_stats_table(self.snapshot)

    def to_prom(self) -> str:
        from repro.obs.sinks import render_prom

        return render_prom(self.snapshot)

    def to_chrome(self) -> str:
        from repro.obs.export import render_chrome_json

        return render_chrome_json(self.snapshot)


@dataclass
class TimelineResult(Result):
    """One rendered timeline (from
    :class:`~repro.api.config.TimelineConfig`).

    :attr:`snapshot` is the selected snapshot document; :attr:`rendered`
    the canonical Chrome trace-event JSON text -- the exact bytes written
    to :attr:`out_path` (when ``out`` was a file), identical to what a
    ``--timeline`` flag would have produced from the same snapshot.
    """

    source: str = ""
    snapshot: Dict[str, Any] = field(default_factory=dict)
    snapshot_count: int = 0
    index: int = -1
    rendered: str = ""
    out_path: Optional[str] = None  #: trace file written, if any

    def to_dict(self) -> Dict[str, Any]:
        from repro.obs.export import render_chrome_trace

        return render_chrome_trace(self.snapshot)

    def to_json(self, indent: int = 2) -> str:
        # The canonical (compact, key-sorted) form, NOT re-indented:
        # byte-identical output is the whole point of this command.
        return self.rendered

    def to_table(self) -> str:
        events = self.to_dict()["traceEvents"]
        lanes = {(event["pid"], event["tid"]) for event in events
                 if event["ph"] == "X"}
        if self.out_path is not None:
            return (f"wrote {self.out_path}: {len(events)} events across "
                    f"{len(lanes)} lanes (open in chrome://tracing or "
                    f"https://ui.perfetto.dev)")
        return self.rendered


@dataclass
class ReportResult(Result):
    """One generated longitudinal report (from
    :class:`~repro.api.config.ReportConfig`); :attr:`document` is the
    trend document also written to :attr:`json_path`."""

    mode: str = "trend"
    document: Dict[str, Any] = field(default_factory=dict)
    markdown_path: str = ""
    json_path: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return self.document

    def to_table(self) -> str:
        if self.mode == "crossover":
            from repro.runner.crossover import picks

            chosen = picks(self.document)
            lines = [f"crossover table: {len(self.document['records'])} "
                     f"records, {len(chosen)} analyses"]
            lines += [f"  {name}: {entry['pick']} (worst cell "
                      f"{entry['worst_ratio']:.2f}x the best)"
                      for name, entry in chosen.items()]
            return "\n".join(lines + [f"wrote {self.markdown_path}",
                                      f"wrote {self.json_path}"])
        modes = self.document.get("modes", {})
        cases = sum(len(section.get("cases", {}))
                    for section in modes.values())
        runs = max((len(section.get("runs", ()))
                    for section in modes.values()), default=0)
        return (f"trend report: {cases} case rows across "
                f"{len(modes)} modes ({runs} runs)\n"
                f"wrote {self.markdown_path}\n"
                f"wrote {self.json_path}")
