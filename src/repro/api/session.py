"""The :class:`Session` facade: every workflow behind one typed entry point.

A session owns a :class:`~repro.api.registry.Registry` and turns request
configs (:mod:`repro.api.config`) into structured results
(:mod:`repro.api.results`)::

    from repro.api import AnalyzeConfig, Session

    session = Session()
    result = session.run(AnalyzeConfig(analysis="race-prediction",
                                       trace="trace.std"))
    print(result.to_table())        # exactly what the CLI would print
    document = result.to_dict()     # ... or consume it as data

``Session.run`` dispatches on the config type; the per-workflow methods
(:meth:`Session.analyze`, :meth:`Session.sweep`, ...) are equally public
for callers who prefer explicit names or need the extra hooks (a live
``Trace`` instead of a path, streaming callbacks).

The CLI (:mod:`repro.cli`) is one consumer of this facade -- each
subcommand builds a config, calls ``run``, and renders the result -- so
embedding the same workflows in a script, a service, or a notebook never
needs to shell out.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro._version import __version__
from repro.api.config import (
    RESULT_FORMATS,
    WATCH_FORMATS,
    AnalyzeConfig,
    BenchConfig,
    CompareConfig,
    Config,
    ConvertConfig,
    FuzzConfig,
    GenConfig,
    GenerateConfig,
    ReportConfig,
    ServeConfig,
    StatsConfig,
    SweepConfig,
    TimelineConfig,
    WatchConfig,
)
from repro.api.registry import Registry, default_registry
from repro.api.results import (
    AnalyzeResult,
    BenchResult,
    CompareResult,
    ConvertResult,
    CorpusResult,
    FuzzResult,
    GenerateResult,
    ReportResult,
    Result,
    ServeResult,
    StatsResult,
    SweepRunResult,
    TimelineResult,
    WatchResult,
)
from repro.obs import metrics as obs_metrics
from repro.errors import (
    EXIT_ERROR,
    EXIT_FAILURE,
    EXIT_INTERRUPT,
    EXIT_OK,
    ConfigError,
    ReproError,
)

if TYPE_CHECKING:  # deferred: keep `import repro` light (core+errors only)
    from repro.trace.trace import Trace

#: ``on_notice`` callback: ``(kind, message)`` with ``kind`` one of
#: ``"info"`` (progress the CLI prints to stdout in text mode) or
#: ``"warning"`` (diagnostics for stderr; also collected on the result).
NoticeHook = Callable[[str, str], None]


class Session:
    """Programmatic entry point unifying every workflow of the system."""

    def __init__(self, registry: Optional[Registry] = None,
                 load_plugins: bool = False,
                 metrics: Optional["obs_metrics.MetricsRegistry"] = None
                 ) -> None:
        self.registry = registry if registry is not None else default_registry()
        #: Session-wide metrics registry.  When set, every ``run`` call is
        #: instrumented into it (cumulative across runs); when ``None``,
        #: telemetry stays off unless a config carries a ``metrics`` sink
        #: path, in which case a fresh per-run registry is used.
        self.metrics = metrics
        #: ``(entry point name, error message or None)`` per plugin loaded
        #: at construction -- empty unless ``load_plugins`` was set.  A
        #: broken plugin is not fatal; this is where its failure surfaces.
        self.plugin_report = (self.registry.load_plugins()
                              if load_plugins else [])

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def run(self, config: Config, **hooks: Any) -> Result:
        """Run any request config and return its structured result.

        ``hooks`` are forwarded to the workflow method: ``watch`` accepts
        ``on_finding``/``on_notice``, ``fuzz`` accepts ``on_case``,
        ``analyze``/``compare`` accept ``trace``.  A hook the dispatched
        workflow does not support is a :class:`~repro.errors.ConfigError`,
        not a stray ``TypeError``.

        When telemetry is enabled -- a session-wide registry
        (``Session(metrics=...)``), a ``metrics`` sink path, or a
        ``timeline`` output path on the config -- the whole run executes
        under one root span named after the command, ``result.telemetry``
        carries the registry snapshot, a sink path receives one JSON line
        per run (append semantics), and a timeline path receives the
        snapshot rendered as Chrome trace-event JSON.
        """
        for config_type, method, allowed in (
                (GenerateConfig, self.generate, ()),
                (AnalyzeConfig, self.analyze, ("trace",)),
                (CompareConfig, self.compare, ("trace",)),
                (SweepConfig, self.sweep, ()),
                (WatchConfig, self.watch, ("on_finding", "on_notice")),
                (ServeConfig, self.serve, ("on_finding", "on_notice")),
                (GenConfig, self.gen_corpus, ()),
                (ConvertConfig, self.convert, ()),
                (FuzzConfig, self.fuzz, ("on_case",)),
                (BenchConfig, self.bench, ()),
                (StatsConfig, self.stats, ()),
                (TimelineConfig, self.timeline, ()),
                (ReportConfig, self.report, ())):
            if isinstance(config, config_type):
                unsupported = sorted(set(hooks) - set(allowed))
                if unsupported:
                    accepted = (f"; accepted: {', '.join(allowed)}"
                                if allowed else " (it accepts none)")
                    raise ConfigError(
                        f"{config.command} does not accept "
                        f"{', '.join(unsupported)}{accepted}")
                return self._run_instrumented(config, method, hooks)
        raise ConfigError(f"Session.run cannot dispatch "
                          f"{type(config).__name__!r}; expected one of the "
                          f"repro.api config types")

    def _run_instrumented(self, config: Config, method: Callable[..., Result],
                          hooks: Dict[str, Any]) -> Result:
        """Execute one dispatched workflow, instrumented when enabled."""
        metrics_path = getattr(config, "metrics", None)
        timeline_path = getattr(config, "timeline", None)
        registry = self.metrics
        if registry is None:
            if metrics_path is None and timeline_path is None:
                return method(config, **hooks)
            registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(registry):
            with registry.span(config.command):
                result = method(config, **hooks)
        result.telemetry = registry.snapshot()
        if metrics_path is not None:
            from repro.obs.sinks import JsonlSink

            JsonlSink(metrics_path).emit(result.telemetry)
        if timeline_path is not None:
            from repro.obs.export import write_chrome_trace

            write_chrome_trace(result.telemetry, timeline_path)
        return result

    # ------------------------------------------------------------------ #
    # Workflows
    # ------------------------------------------------------------------ #
    def generate(self, config: GenerateConfig) -> GenerateResult:
        """Materialize one synthetic trace."""
        from repro.trace.generators import build_trace

        trace = build_trace(config.kind, num_threads=config.threads,
                            events=config.events, seed=config.seed,
                            name=config.name, **dict(config.params))
        return GenerateResult(kind=config.kind, seed=config.seed, trace=trace)

    def analyze(self, config: AnalyzeConfig,
                trace: Optional[Trace] = None) -> AnalyzeResult:
        """Run one analysis over one trace.

        ``trace`` skips loading ``config.trace`` from disk -- the hook for
        callers that already hold a live :class:`~repro.trace.Trace`.
        ``config.trace`` may be STD text or ``.stc`` binary; the format is
        sniffed.
        """
        from repro.trace import read_trace

        cls = self.registry.analysis(config.analysis)
        analysis = cls(config.backend or cls.default_backend(),
                       **dict(config.params))
        if trace is None:
            trace = read_trace(config.trace)
        raw = analysis.run(trace)
        return AnalyzeResult(raw=raw, max_findings=config.max_findings)

    def compare(self, config: CompareConfig,
                trace: Optional[Trace] = None) -> CompareResult:
        """Run one analysis on every applicable backend."""
        from repro.trace import read_trace

        name = self.registry.resolve_analysis(config.analysis)
        cls = self.registry.analyses()[name]
        applicable = list(cls.applicable_backends())
        if config.backends is None:
            selected = applicable
        else:
            # A compare covers exactly one analysis, so a requested backend
            # it cannot serve is a caller mistake, not (as in a sweep over
            # many analyses) an expected per-analysis narrowing: reject it
            # rather than silently compare a subset.
            rejected = sorted(set(config.backends) - set(applicable))
            if rejected:
                raise ReproError(
                    f"backends not applicable to {name}: {rejected} "
                    f"(applicable: {', '.join(applicable)})")
            selected = [backend for backend in applicable
                        if backend in config.backends]
        if not selected:
            raise ReproError(f"no backends selected for {name} "
                             f"(applicable: {', '.join(applicable)})")
        analyses = [cls(backend, **dict(config.params))
                    for backend in selected]
        if trace is None:
            trace = read_trace(config.trace)
        runs = [analysis.run(trace) for analysis in analyses]
        return CompareResult(analysis=name, trace_name=trace.name, runs=runs)

    def sweep(self, config: SweepConfig) -> SweepRunResult:
        """Plan and execute a sweep of a registered suite or a corpus."""
        from repro.core import BACKENDS
        from repro.runner.executor import run_suite

        if config.baseline is not None and config.baseline not in BACKENDS:
            known = ", ".join(sorted(BACKENDS))
            raise ReproError(f"unknown baseline backend {config.baseline!r}; "
                             f"known: {known}")
        warnings: List[str] = list(config.validation_warnings())
        suite_name = config.suite
        if config.corpus is not None:
            from repro.gen.corpus import register_corpus_suite

            suite_name = register_corpus_suite(config.corpus).name
        result = run_suite(
            suite_name,
            workers=config.jobs,
            analyses=config.analyses,
            backends=config.backends,
            timeout_seconds=config.timeout,
            repeats=config.repeat,
            seed=config.seed,
            oracle=config.oracle,
        )
        if config.baseline is not None and config.format != "csv" \
                and not any(record.backend == config.baseline
                            for record in result.ok_records()):
            warnings.append(f"baseline backend {config.baseline!r} ran no "
                            f"job in this sweep; no speedups computed")
        return SweepRunResult(warnings=tuple(warnings), sweep=result,
                              baseline=config.baseline)

    def watch(self, config: WatchConfig,
              on_finding: Optional[Callable[[Any], None]] = None,
              on_notice: Optional[NoticeHook] = None) -> WatchResult:
        """Stream a source through analyses, resuming from a checkpoint
        when one exists.

        ``on_finding`` receives each
        :class:`~repro.stream.engine.StreamFinding` as it is discovered;
        ``on_notice`` receives progress/diagnostic lines (see
        :data:`NoticeHook`).  Warnings are also collected on the result.

        With extra ``sources`` the watch becomes a multi-tenant run (one
        tenant per source) through the serving code path -- in-process,
        no worker fan-out -- and returns a
        :class:`~repro.api.results.ServeResult` whose ``on_finding`` items
        are :class:`~repro.serve.supervisor.TenantFinding` (same fields
        plus ``tenant``).
        """
        if config.sources:
            return self.serve(
                ServeConfig(
                    analyses=config.analyses,
                    sources=(config.source,) + config.sources,
                    workers=0,
                    backend=config.backend,
                    window=config.window,
                    flush_every=config.flush_every,
                ),
                on_finding=on_finding, on_notice=on_notice)
        from repro.stream import (
            GeneratorSource,
            StreamEngine,
            open_source,
            parse_window,
            restore_engine,
        )

        warnings: List[str] = []

        def notice(kind: str, message: str) -> None:
            if kind == "warning":
                warnings.append(message)
            if on_notice is not None:
                on_notice(kind, message)

        source = open_source(config.source, follow=config.follow,
                             idle_timeout=config.idle_timeout)
        resuming = config.checkpoint is not None \
            and os.path.exists(config.checkpoint)

        if config.analyses:
            analyses = [self.registry.resolve_analysis(item)
                        for item in config.analyses]
        elif resuming:
            analyses = []  # the checkpoint records them
        elif isinstance(source, GeneratorSource):
            analyses = [self.registry.resolve_analysis(item) for item
                        in self.registry.generator(source.kind).analyses]
        else:
            raise ReproError(
                "file sources need analyses (e.g. "
                "race_prediction,deadlock -- WatchConfig analyses=... / "
                "the CLI --analyses flag; see Session.capabilities() or "
                "'repro sweep --list-analyses')")
        if not analyses and not resuming:
            raise ReproError("no analyses selected")

        resume_cursor = 0
        resumed_from = None
        if resuming:
            engine = restore_engine(config.checkpoint, on_finding=on_finding)
            resume_cursor = engine.cursor
            resumed_from = config.checkpoint
            # The checkpoint's configuration wins on resume; say so whenever
            # an option passed this time disagrees with it.
            if analyses and sorted(engine.analyses) != sorted(analyses):
                notice("warning",
                       f"resuming checkpoint with analyses "
                       f"{engine.analyses} (requested {analyses})")
            if config.window is not None and \
                    parse_window(config.window).spec() != engine.window.spec():
                notice("warning",
                       f"resuming checkpoint with window "
                       f"{engine.window.spec()!r} (requested "
                       f"{config.window!r}); the window is fixed at "
                       f"checkpoint creation")
            if config.flush_every is not None and config.flush_every != \
                    getattr(engine.window, "flush_every", None):
                notice("warning",
                       f"resuming checkpoint with flush_every "
                       f"{getattr(engine.window, 'flush_every', None)} "
                       f"(requested {config.flush_every}); flush_every "
                       f"is fixed at checkpoint creation")
            if config.backend is not None \
                    and config.backend != engine.backend_option:
                notice("warning",
                       f"resuming checkpoint with backend "
                       f"{engine.backend_option or 'per-analysis default'} "
                       f"(requested {config.backend}); the backend is fixed "
                       f"at checkpoint creation")
            notice("info", f"resumed from {config.checkpoint} at event "
                           f"{resume_cursor} (rebuilding from the source's "
                           f"first {resume_cursor} events)")
        else:
            engine = StreamEngine(
                analyses,
                backend=config.backend,
                window=parse_window(config.window,
                                    flush_every=config.flush_every),
                name=source.name,
                on_finding=on_finding,
            )
        for item in engine.warnings:
            notice("warning", str(item))

        result = engine.run(source, max_events=config.max_events,
                            checkpoint_path=config.checkpoint,
                            checkpoint_every=config.checkpoint_every)

        for name, backend_name in sorted(result.backends_selected.items()):
            notice("info", f"{name}: auto selected backend {backend_name}")
        for name, message in sorted(result.errors.items()):
            notice("warning", f"{name}: last flush failed: {message}")
        return WatchResult(warnings=tuple(warnings), stream=result,
                           cursor=engine.cursor, checkpoint=config.checkpoint,
                           resumed_from=resumed_from,
                           resume_cursor=resume_cursor)

    def serve(self, config: ServeConfig,
              on_finding: Optional[Callable[[Any], None]] = None,
              on_notice: Optional[NoticeHook] = None) -> ServeResult:
        """Run the multi-tenant sharded streaming service once.

        Replay mode (``config.sources``) runs the sources to completion
        and returns; socket mode (``config.host``/``port``) serves the
        ingest line protocol until interrupted (or ``config.stop_after``
        seconds).  ``on_finding`` receives each merged-feed
        :class:`~repro.serve.supervisor.TenantFinding` as it arrives;
        ``on_notice`` receives progress/diagnostic lines (see
        :data:`NoticeHook`).  Warnings are also collected on the result.
        """
        from repro.serve.service import run_serve

        warnings: List[str] = []

        def notice(kind: str, message: str) -> None:
            if kind == "warning":
                warnings.append(message)
            if on_notice is not None:
                on_notice(kind, message)

        def started(service: Any) -> None:
            if config.pid_file and hasattr(service, "worker_pids"):
                with open(config.pid_file, "w", encoding="utf-8") as stream:
                    for pid in service.worker_pids:
                        stream.write(f"{pid}\n")

        analyses = [self.registry.resolve_analysis(item)
                    for item in config.analyses]
        outcome = run_serve(
            analyses,
            sources=config.sources,
            host=config.host,
            port=config.port,
            workers=config.workers,
            backend=config.backend,
            window=config.window,
            flush_every=config.flush_every,
            checkpoint_dir=config.checkpoint_dir,
            checkpoint_every=config.checkpoint_every,
            queue_size=config.queue_size,
            quota_events=config.quota_events,
            drain_timeout=config.drain_timeout,
            crash_worker=config.crash_worker,
            stop_after_seconds=config.stop_after,
            on_finding=on_finding,
            on_notice=notice,
            on_started=started,
        )
        return ServeResult(warnings=tuple(warnings), outcome=outcome)

    def gen_corpus(self, config: GenConfig) -> CorpusResult:
        """Build a trace corpus plus manifest (and register its suite)."""
        from repro.gen.corpus import build_corpus

        manifest = build_corpus(config.out, config.to_corpus_config(),
                                register=config.register)
        return CorpusResult(manifest=manifest, out=config.out)

    def convert(self, config: ConvertConfig) -> ConvertResult:
        """Translate one trace between the STD text and ``.stc`` binary
        formats (both directions; ``.gz`` transparent on both sides)."""
        from repro.trace import (
            dump_trace,
            read_trace,
            trace_format,
            write_trace_stc,
        )
        from repro.trace.io import path_format

        source_format = trace_format(config.source)
        trace = read_trace(config.source)
        out_format = config.to or path_format(config.out)
        if out_format == "stc":
            write_trace_stc(trace, config.out)
        else:
            dump_trace(trace, config.out)
        return ConvertResult(source=config.source, out=config.out,
                             source_format=source_format,
                             out_format=out_format,
                             trace_name=trace.name,
                             event_count=len(trace),
                             thread_count=trace.num_threads)

    def fuzz(self, config: FuzzConfig,
             on_case: Optional[Callable[[Any], None]] = None) -> FuzzResult:
        """Run the differential fuzzer (``on_case`` is the per-case
        progress hook)."""
        from repro.gen.fuzz import run_fuzz

        report = run_fuzz(
            seeds=config.seeds,
            quick=config.quick,
            kinds=config.kinds,
            backends=config.backends,
            stream=config.stream,
            base_seed=config.seed,
            out_dir=config.out,
            minimize=config.minimize,
            max_checks=config.max_checks,
            on_case=on_case,
        )
        return FuzzResult(report=report, out=config.out,
                          minimized=config.minimize)

    def bench(self, config: BenchConfig) -> BenchResult:
        """Run the perf harness: time the suite, write the report document,
        compare against the committed baseline."""
        from repro.bench import perf

        repeats = (config.repeats if config.repeats is not None
                   else perf.DEFAULT_REPEATS)
        threshold = (config.threshold if config.threshold is not None
                     else perf.DEFAULT_THRESHOLD)

        if config.update_baseline:
            baseline_path = config.baseline or perf.BASELINE_FILENAME
            document = perf.build_baseline(repeats=repeats)
            perf.write_document(document, baseline_path)
            full = document["modes"]["full"]
            return BenchResult(
                document=document,
                report=perf.format_report(full),
                out_path=baseline_path,
                notes=(f"wrote baseline ({len(full['results'])} cases, "
                       f"quick+full) to {baseline_path}",))

        # Validate an explicitly requested baseline up front -- the suite
        # takes a while and a typo'd path should not cost a full run.
        if config.compare and config.baseline is not None \
                and not os.path.exists(config.baseline):
            raise ReproError(f"baseline file not found: {config.baseline}")

        document = perf.run_perf(quick=config.quick, repeats=repeats)
        notes: List[str] = []
        rendered = None
        out_path = None
        if config.out == "-":
            rendered = json.dumps(document, indent=2, sort_keys=True)
        else:
            out_path = config.out or perf.default_output_path()
            perf.write_document(document, out_path)
            notes.append(f"wrote {len(document['results'])} cases "
                         f"to {out_path}")

        regressions = ()
        if config.compare:
            baseline_path = config.baseline or perf.BASELINE_FILENAME
            if not os.path.exists(baseline_path):
                notes.append(f"no {perf.BASELINE_FILENAME} found; "
                             f"regression check skipped (create one with "
                             f"'repro bench perf --update-baseline')")
            else:
                entries = perf.compare_documents(
                    document, perf.read_document(baseline_path),
                    threshold=threshold)
                if not entries:
                    notes.append(f"no regressions vs {baseline_path} "
                                 f"(threshold {threshold:.2f}x)")
                else:
                    regressions = tuple((entry, perf.is_regression([entry]))
                                        for entry in entries)
        return BenchResult(document=document, report=perf.format_report(document),
                           out_path=out_path, rendered_document=rendered,
                           notes=tuple(notes), regressions=regressions)

    def stats(self, config: StatsConfig) -> StatsResult:
        """Load a recorded metrics file and select one snapshot (the
        result renders it as table / JSON / Prometheus text)."""
        from repro.obs.sinks import read_snapshots

        snapshots = read_snapshots(config.source)
        try:
            snapshot = snapshots[config.index]
        except IndexError:
            raise ReproError(
                f"{config.source}: snapshot index {config.index} out of "
                f"range ({len(snapshots)} snapshots)") from None
        return StatsResult(source=config.source, snapshot=snapshot,
                           snapshot_count=len(snapshots),
                           index=config.index)

    def timeline(self, config: TimelineConfig) -> TimelineResult:
        """Render one recorded snapshot as a Chrome trace-event timeline.

        Loads ``config.source`` exactly like :meth:`stats`, renders the
        selected snapshot deterministically
        (:func:`repro.obs.export.render_chrome_json`), and writes the file
        when ``config.out`` is a path -- producing byte-for-byte the same
        output a ``--timeline`` flag would have written live for the same
        snapshot.
        """
        from repro.obs.export import render_chrome_json
        from repro.obs.sinks import read_snapshots

        snapshots = read_snapshots(config.source)
        try:
            snapshot = snapshots[config.index]
        except IndexError:
            raise ReproError(
                f"{config.source}: snapshot index {config.index} out of "
                f"range ({len(snapshots)} snapshots)") from None
        rendered = render_chrome_json(snapshot)
        out_path = None
        if config.out != "-":
            out_path = config.out
            with open(out_path, "w", encoding="utf-8") as stream:
                stream.write(rendered + "\n")
        return TimelineResult(source=config.source, snapshot=snapshot,
                              snapshot_count=len(snapshots),
                              index=config.index, rendered=rendered,
                              out_path=out_path)

    def report(self, config: ReportConfig) -> ReportResult:
        """Generate a report into ``config.out``: ``trend`` renders every
        ``BENCH_*.json`` in the source directory; ``crossover`` renders
        the backend crossover table (see :mod:`repro.runner.crossover`)."""
        if config.mode == "crossover":
            from repro.runner.crossover import write_crossover

            document, markdown_path, json_path = write_crossover(
                config.source_dir, config.out, basename=config.stem)
        else:
            from repro.obs.trend import write_trend

            document, markdown_path, json_path = write_trend(
                config.source_dir, config.out, basename=config.stem)
        return ReportResult(mode=config.mode, document=document,
                            markdown_path=markdown_path,
                            json_path=json_path)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def capabilities(self) -> Dict[str, Any]:
        """Everything external tooling needs to drive this install, as one
        JSON-able document: version, analyses (with backend sets and the
        workload kinds feeding them), backends (with family membership),
        workload kinds, sweep suites, output formats, the telemetry
        surface (metric catalogue and sink kinds), and the stable exit
        codes of :mod:`repro.errors`."""
        from repro.obs import METRIC_CATALOG, SINK_KINDS
        from repro.core.factory import (
            AUTO_BACKEND,
            dynamic_backends,
            incremental_backends,
        )
        from repro.serve.routing import DEFAULT_VNODES, TENANT_PATTERN
        from repro.serve.supervisor import RESPAWN_LIMIT
        from repro.tune import FEATURE_NAMES

        generators = self.registry.generators()
        fed_by: Dict[str, List[str]] = {}
        for kind, entry in generators.items():
            for analysis_name in entry.analyses:
                fed_by.setdefault(analysis_name, []).append(kind)
        incremental = set(incremental_backends())
        dynamic = set(dynamic_backends())
        return {
            "version": __version__,
            "analyses": {
                name: {
                    "default_backend": cls.default_backend(),
                    "backends": list(cls.applicable_backends())
                    + [AUTO_BACKEND],
                    "streaming_native": bool(cls.streaming_native),
                    "requires_deletion": bool(cls.requires_deletion),
                    "fed_by": sorted(fed_by.get(name, ())),
                }
                for name, cls in sorted(self.registry.analyses().items())
            },
            "backends": {
                name: {
                    "class": cls.__name__,
                    "supports_deletion": bool(cls.supports_deletion),
                    "incremental": name in incremental,
                    "dynamic": name in dynamic,
                }
                for name, cls in sorted(self.registry.backends().items())
            },
            "kinds": {
                kind: {
                    "source": entry.source,
                    "size_parameter": entry.size_parameter,
                    "analyses": list(entry.analyses),
                    "description": entry.description,
                }
                for kind, entry in sorted(generators.items())
            },
            "suites": {
                name: {
                    "specs": len(suite.specs),
                    "description": suite.description,
                }
                for name, suite in sorted(self.registry.suites().items())
            },
            "formats": {
                "trace": ["std", "std.gz", "stc", "stc.gz"],
                "analyze": list(RESULT_FORMATS),
                "compare": list(RESULT_FORMATS),
                "sweep": list(SweepConfig.FORMATS),
                "watch": list(WATCH_FORMATS),
                "serve": list(WATCH_FORMATS),
                "gen": list(RESULT_FORMATS),
                "convert": list(RESULT_FORMATS),
                "fuzz": list(RESULT_FORMATS),
                "stats": list(StatsConfig.FORMATS),
                "timeline": ["chrome"],
            },
            "tuning": {
                "auto_backend": AUTO_BACKEND,
                "features": list(FEATURE_NAMES),
            },
            "serving": {
                "protocol": {
                    "event": "<tenant>|<std-event-line>",
                    "end": "#end|<tenant>",
                    "bye": "#bye",
                    "error": "#error|<tenant>|<message>",
                },
                "tenant_pattern": TENANT_PATTERN.pattern,
                "routing": {
                    "ring": "consistent-hash (sha1)",
                    "vnodes": DEFAULT_VNODES,
                },
                "modes": ["replay", "socket"],
                "recovery": "checkpoint restore + journal replay",
                "respawn_limit": RESPAWN_LIMIT,
            },
            "observability": {
                "metrics": {name: dict(info)
                            for name, info in sorted(METRIC_CATALOG.items())},
                "sinks": list(SINK_KINDS),
                "span_log_limit": obs_metrics.MAX_RECORDED_SPANS,
                "snapshot_version": obs_metrics.SNAPSHOT_VERSION,
            },
            "exit_codes": {
                "ok": EXIT_OK,
                "failure": EXIT_FAILURE,
                "error": EXIT_ERROR,
                "interrupt": EXIT_INTERRUPT,
            },
        }
