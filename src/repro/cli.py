"""Command-line interface: generate traces, run analyses, compare backends,
sweep whole suites in parallel, watch live event streams, build corpora,
fuzz, and bench.

The CLI is a *thin shim* over :mod:`repro.api`: every subcommand parses
argv into one of the typed request configs, hands it to
:meth:`repro.api.Session.run`, and renders the structured result -- so the
typical workflow does not require writing Python:

.. code-block:: bash

    python -m repro generate racy --threads 4 --events 500 --out trace.txt
    python -m repro analyze race-prediction trace.txt --backend incremental-csst
    python -m repro compare tso-consistency trace.txt
    python -m repro sweep --suite smoke --jobs 2 --format json
    python -m repro watch --source trace.txt --analyses race_prediction,deadlock
    python -m repro serve --source a.std --source b.std --analyses race_prediction --workers 2
    python -m repro gen corpus --out corpus/ --kinds locked-mix,heap-churn
    python -m repro fuzz --seeds 50 --quick
    python -m repro sweep --suite smoke --metrics metrics.jsonl
    python -m repro stats metrics.jsonl --format prom
    python -m repro report trend
    python -m repro report crossover
    python -m repro capabilities

Anything printed here can be obtained programmatically from the same
config through a :class:`repro.api.Session` -- the parity tests pin that
the JSON outputs are byte-identical.  Errors map to the stable exit codes
of :mod:`repro.errors` (0 ok, 1 reported failures, 2 bad request/IO,
130 interrupted).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, Optional, Sequence

from repro._version import __version__
from repro.api.config import RESULT_FORMATS, WATCH_FORMATS
from repro.api import (
    AnalyzeConfig,
    BenchConfig,
    CompareConfig,
    ConvertConfig,
    FuzzConfig,
    GenConfig,
    GenerateConfig,
    ReportConfig,
    ServeConfig,
    Session,
    StatsConfig,
    SweepConfig,
    TimelineConfig,
    WatchConfig,
)
from repro.errors import EXIT_OK, ReproError, exit_code_for
from repro.runner.corpus import SUITES
from repro.trace import dump_trace, save_trace
from repro.trace.generators import GENERATOR_REGISTRY


def _session() -> Session:
    """The session CLI handlers run against (a fresh facade over the
    process-wide default registry)."""
    return Session()


def _analyses() -> Dict[str, type]:
    """Live view of the analysis registry (front ends must not snapshot it,
    or analyses registered later via ``Analysis.register`` would be
    invisible)."""
    from repro.analyses.common.base import Analysis

    return Analysis.registered()


def _generators() -> Dict[str, Callable]:
    """Live view of the generator registry."""
    return {kind: entry.generator for kind, entry in GENERATOR_REGISTRY.items()}


def __getattr__(name: str):
    """Expose ``ANALYSES`` / ``GENERATORS`` as registry views (PEP 562):
    every *module attribute access* (``repro.cli.ANALYSES``) reflects the
    live registries.  A ``from repro.cli import ANALYSES`` still binds the
    dict built at that moment, as any from-import does."""
    if name == "ANALYSES":
        return _analyses()
    if name == "GENERATORS":
        return _generators()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def resolve_analysis_name(name: str) -> str:
    """Resolve a user-supplied analysis name to its registry key
    (delegates to :meth:`repro.api.Registry.resolve_analysis`)."""
    return _session().registry.resolve_analysis(name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CSSTs reproduction: trace generation and dynamic analyses.",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic trace")
    generate.add_argument("kind", choices=sorted(_generators()))
    generate.add_argument("--threads", type=int, default=4)
    generate.add_argument("--events", type=int, default=200,
                          help="events (or operations) per thread")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", type=str, default="-",
                          help="output file ('-' for stdout); a .stc/.stc.gz "
                               "suffix writes the binary columnar format")

    analyze = subparsers.add_parser("analyze", help="run one analysis on a trace file")
    analyze.add_argument("analysis", choices=sorted(_analyses()))
    analyze.add_argument("trace", help="trace file produced by 'generate'")
    analyze.add_argument("--backend", default=None,
                         help="partial-order backend (default: the "
                              "analysis's pick in the crossover table, "
                              "docs/tables/crossover.md); 'auto' is that "
                              "same pick")
    analyze.add_argument("--max-findings", type=int, default=20,
                         help="number of findings to print (0 prints none)")
    analyze.add_argument("--format", choices=RESULT_FORMATS, default="text",
                         help="output format (default: text)")
    analyze.add_argument("--metrics", default=None, metavar="PATH",
                         help="enable telemetry and append a JSON-lines "
                              "metrics snapshot to PATH (see 'repro stats')")

    compare = subparsers.add_parser(
        "compare", help="run one analysis on every applicable backend")
    compare.add_argument("analysis", choices=sorted(_analyses()))
    compare.add_argument("trace", help="trace file produced by 'generate'")
    compare.add_argument("--format", choices=RESULT_FORMATS, default="text",
                         help="output format (default: text)")

    sweep = subparsers.add_parser(
        "sweep",
        help="run a suite of traces x analyses x backends, optionally in parallel")
    sweep.add_argument("--suite", default="smoke", choices=sorted(SUITES),
                       help="registered trace suite (default: smoke)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = run inline, no pool)")
    sweep.add_argument("--backends", default=None,
                       help="comma-separated backend names (default: every "
                            "backend applicable to each analysis); include "
                            "'auto' to add an auto-picked job per pair")
    sweep.add_argument("--oracle", action="store_true",
                       help="with 'auto' in --backends: also run every "
                            "static backend per job and report auto's "
                            "regret vs the per-job optimum")
    sweep.add_argument("--analyses", default=None,
                       help="comma-separated analysis names (default: every "
                            "analysis the trace kind feeds)")
    sweep.add_argument("--format", choices=SweepConfig.FORMATS,
                       default="table", help="output format (default: table)")
    sweep.add_argument("--baseline", default=None,
                       help="baseline backend for speedups (default: vc-flat, or "
                            "graph for deletion-based analyses)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="seconds to wait for each job's result when "
                            "collecting, in submission order (parallel runs "
                            "only); overrunning jobs are recorded as "
                            "timeouts; the budget covers ALL repeats of a "
                            "job, so scale it when combining with --repeat")
    sweep.add_argument("--repeat", type=int, default=1,
                       help="run each job's analysis N times over the same "
                            "trace and report min (elapsed_seconds) and "
                            "median (elapsed_median_seconds) so numbers "
                            "stop being single-shot noise (default: 1); "
                            "a --timeout budget covers all N runs of a job")
    sweep.add_argument("--seed", type=int, default=None,
                       help="override the seed pinned in every suite spec; "
                            "the effective seed is recorded per job in the "
                            "table/CSV/JSON output either way")
    sweep.add_argument("--corpus", default=None,
                       help="corpus manifest.json (from 'repro gen corpus') "
                            "to sweep instead of a registered --suite")
    sweep.add_argument("--out", default="-",
                       help="output file ('-' for stdout)")
    sweep.add_argument("--metrics", default=None, metavar="PATH",
                       help="enable telemetry and append a JSON-lines "
                            "metrics snapshot to PATH (see 'repro stats')")
    sweep.add_argument("--timeline", default=None, metavar="PATH",
                       help="enable telemetry and write the run's merged "
                            "span timeline to PATH as Chrome trace-event "
                            "JSON (open in chrome://tracing or Perfetto)")
    sweep.add_argument("--list-suites", action="store_true",
                       help="list the registered trace suites and exit")
    sweep.add_argument("--list-analyses", action="store_true",
                       help="list the registered analyses (default/"
                            "applicable backends, feeding workloads) and exit")

    bench = subparsers.add_parser(
        "bench",
        help="performance harness (perf: fixed kernel+analysis suite with "
             "regression check against BENCH_baseline.json)")
    bench.add_argument("mode", choices=("perf",),
                       help="'perf': warmup + min-of-N timings, written to "
                            "BENCH_<date>.json and compared to the baseline")
    bench.add_argument("--quick", action="store_true",
                       help="small workload sizes (CI smoke; compared "
                            "against the baseline's quick section)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="timed runs per case, min reported (default: 3)")
    bench.add_argument("--out", default=None,
                       help="output JSON path (default: BENCH_<date>.json; "
                            "'-' prints the document to stdout only)")
    bench.add_argument("--baseline", default=None,
                       help="baseline JSON to compare against (default: "
                            "BENCH_baseline.json when it exists)")
    bench.add_argument("--threshold", type=float, default=None,
                       help="regression threshold: fail when a case is "
                            "slower than baseline by more than this factor "
                            "(default: 2.0)")
    bench.add_argument("--no-compare", action="store_true",
                       help="skip the baseline regression check")
    bench.add_argument("--update-baseline", action="store_true",
                       help="run both quick and full modes and (re)write "
                            "the baseline file instead of a dated report")

    gen = subparsers.add_parser(
        "gen",
        help="scenario-program generation: unified kind table and corpus "
             "builder")
    gen.add_argument("mode", nargs="?", choices=("corpus",),
                     help="'corpus': write a .std.gz trace corpus plus "
                          "manifest.json, registered as a sweep suite")
    gen.add_argument("--list", action="store_true", dest="list_kinds",
                     help="list every registered workload kind (classic "
                          "generators and scenario families, one table) "
                          "and exit")
    gen.add_argument("--out", default=None,
                     help="corpus output directory (required for 'corpus')")
    gen.add_argument("--config", default=None,
                     help="corpus config JSON (keys: name, kinds, count, "
                          "seed, threads, events, params, schedulers); "
                          "explicit flags override it")
    gen.add_argument("--name", default=None,
                     help="corpus name (default: corpus); the sweep suite "
                          "is registered as corpus:<name>")
    gen.add_argument("--kinds", default=None,
                     help="comma-separated workload kinds (default: every "
                          "registered kind)")
    gen.add_argument("--count", type=int, default=None,
                     help="traces per kind (default: 3)")
    gen.add_argument("--seed", type=int, default=None,
                     help="corpus base seed (default: 0)")
    gen.add_argument("--threads", default=None,
                     help="thread-count distribution spec (default: "
                          "uniform:2,4; e.g. 4, uniform:2,8, choice:2,4,8)")
    gen.add_argument("--events", default=None,
                     help="per-thread event distribution spec (default: "
                          "uniform:30,70)")
    gen.add_argument("--schedulers", default=None,
                     help="comma-separated scheduler cycle for scenario "
                          "kinds (default: rr,weighted,adversarial)")
    gen.add_argument("--trace-format", choices=("std", "stc"), default=None,
                     help="member trace file format: 'std' (.std.gz text, "
                          "the default) or 'stc' (binary columnar)")
    gen.add_argument("--format", choices=RESULT_FORMATS, default="text",
                     help="output format for 'corpus' (json prints the "
                          "manifest document; default: text)")

    convert = subparsers.add_parser(
        "convert",
        help="translate a trace between the STD text format and the .stc "
             "binary columnar format (.gz transparent on both sides)")
    convert.add_argument("source", help="input trace (format sniffed from "
                                        "magic bytes, then extension)")
    convert.add_argument("out", help="output path; its suffix picks the "
                                     "format unless --to is given")
    convert.add_argument("--to", choices=ConvertConfig.TRACE_FORMATS,
                         default=None,
                         help="force the output format regardless of the "
                              "destination suffix")
    convert.add_argument("--format", choices=RESULT_FORMATS, default="text",
                         help="output format of the summary (default: text)")

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing: every backend pair and streaming-vs-"
             "batch on generated traces, delta-debugging divergences")
    fuzz.add_argument("--seeds", type=int, default=50,
                      help="number of fuzz cases (default: 50); kinds "
                           "rotate round-robin across cases")
    fuzz.add_argument("--quick", action="store_true",
                      help="small trace shapes (CI smoke budget)")
    fuzz.add_argument("--kinds", default=None,
                      help="comma-separated workload kinds (default: every "
                           "kind that feeds at least one analysis)")
    fuzz.add_argument("--backends", default=None,
                      help="comma-separated backends to compare against "
                           "each analysis's default (default: all "
                           "applicable)")
    fuzz.add_argument("--no-stream", action="store_true",
                      help="skip the streaming-vs-batch comparisons")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="base seed of the deterministic case plan "
                           "(default: 0)")
    fuzz.add_argument("--out", default="fuzz-out",
                      help="directory for minimized counterexamples "
                           "(default: fuzz-out; only written on "
                           "divergence)")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="record divergences without delta-debugging "
                           "them")
    fuzz.add_argument("--max-checks", type=int, default=400,
                      help="predicate-evaluation budget per minimization "
                           "(default: 400)")
    fuzz.add_argument("--verbose", action="store_true",
                      help="print each case id as it runs")
    fuzz.add_argument("--format", choices=RESULT_FORMATS, default="text",
                      help="output format (default: text)")

    watch = subparsers.add_parser(
        "watch",
        help="stream a trace through analyses, emitting findings as they "
             "are discovered")
    watch.add_argument("--source", required=True, action="append",
                       help="trace file (.std / .std.gz / .stc), corpus manifest "
                            "(manifest.json[#TRACE_ID]), or generator spec "
                            "kind[:key=value,...] "
                            "(e.g. racy:threads=3,events=60,seed=1); "
                            "repeatable -- several sources run as one "
                            "multi-tenant watch (one tenant per source, "
                            "findings prefixed with the tenant id)")
    watch.add_argument("--analyses", default=None,
                       help="comma-separated analysis names (underscore "
                            "spellings and unique prefixes accepted); "
                            "default for generator sources: the analyses "
                            "the workload kind feeds")
    watch.add_argument("--backend", default=None,
                       help="partial-order backend forced on every attached "
                            "analysis (default: per-analysis default); "
                            "'auto' resolves to that default when each "
                            "analysis is attached")
    watch.add_argument("--window", default=None,
                       help="event window: 'none' (default, exact), SIZE "
                            "(tumbling), or SIZE/SLIDE (sliding); bounded "
                            "windows bound memory but only see buffered "
                            "events")
    watch.add_argument("--flush-every", type=int, default=None,
                       help="with the unbounded window, flush every N "
                            "events so findings surface incrementally")
    watch.add_argument("--checkpoint", default=None,
                       help="engine state file; resumed from when it "
                            "exists, saved on exit either way")
    watch.add_argument("--checkpoint-every", type=int, default=None,
                       help="also save the checkpoint every N consumed "
                            "events (needs --checkpoint)")
    watch.add_argument("--follow", action="store_true",
                       help="keep polling a file source for appended "
                            "events (tail -f)")
    watch.add_argument("--idle-timeout", type=float, default=None,
                       help="stop following after this many seconds "
                            "without new data")
    watch.add_argument("--max-events", type=int, default=None,
                       help="stop after consuming this many events (state "
                            "is checkpointed if --checkpoint is set)")
    watch.add_argument("--format", choices=WATCH_FORMATS, default="text",
                       help="output format (default: text)")
    watch.add_argument("--metrics", default=None, metavar="PATH",
                       help="enable telemetry and append a JSON-lines "
                            "metrics snapshot to PATH (see 'repro stats')")
    watch.add_argument("--timeline", default=None, metavar="PATH",
                       help="enable telemetry and write the session's span "
                            "timeline (per-flush/per-checkpoint spans) to "
                            "PATH as Chrome trace-event JSON")

    serve = subparsers.add_parser(
        "serve",
        help="run the multi-tenant sharded streaming service: many event "
             "feeds, N worker processes, crash recovery")
    serve.add_argument("--analyses", required=True,
                       help="comma-separated analysis names attached to "
                            "every tenant's engine")
    serve.add_argument("--source", action="append", default=None,
                       help="replay mode: trace file / corpus manifest "
                            "member / generator spec, one tenant per "
                            "source; repeatable (mutually exclusive with "
                            "--listen)")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="socket mode: serve the ingest line protocol "
                            "on this address (port 0 picks a free port; "
                            "mutually exclusive with --source)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes sharding the tenants "
                            "(default: 2; 0 = in-process, no crash "
                            "recovery)")
    serve.add_argument("--backend", default="auto",
                       help="partial-order backend for every engine "
                            "(default: auto -- each analysis's default, "
                            "resolved when a tenant's engine is built)")
    serve.add_argument("--window", default=None,
                       help="event window per tenant engine (see 'repro "
                            "watch --window')")
    serve.add_argument("--flush-every", type=int, default=None,
                       help="flush every N events per tenant (see 'repro "
                            "watch --flush-every')")
    serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for per-tenant checkpoints "
                            "(<tenant>.json); enables crashed-worker "
                            "state recovery")
    serve.add_argument("--checkpoint-every", type=int, default=None,
                       help="checkpoint each tenant every N consumed "
                            "events (needs --checkpoint-dir)")
    serve.add_argument("--queue-size", type=int, default=256,
                       help="events that may wait per worker, sent in "
                            "frames of up to 64; a full queue pushes back "
                            "on ingest (default: 256)")
    serve.add_argument("--quota-events", type=int, default=None,
                       help="per-tenant event quota; events beyond it are "
                            "rejected with a protocol error")
    serve.add_argument("--drain-timeout", type=float, default=60.0,
                       help="seconds to wait for tenant summaries at "
                            "shutdown (default: 60)")
    serve.add_argument("--stop-after", type=float, default=None,
                       help="socket mode: stop listening after this many "
                            "seconds (testing hook)")
    serve.add_argument("--crash-worker", default=None,
                       metavar="INDEX@EVENTS",
                       help="fault injection: worker INDEX exits hard "
                            "after consuming EVENTS events (testing hook; "
                            "recovery is expected to hide it)")
    serve.add_argument("--pid-file", default=None, metavar="PATH",
                       help="write one worker pid per line once workers "
                            "are up (for external kill tests)")
    serve.add_argument("--format", choices=WATCH_FORMATS, default="text",
                       help="output format (default: text)")
    serve.add_argument("--metrics", default=None, metavar="PATH",
                       help="enable telemetry and append a JSON-lines "
                            "metrics snapshot to PATH (see 'repro stats')")
    serve.add_argument("--timeline", default=None, metavar="PATH",
                       help="enable telemetry and write the merged span "
                            "timeline (one lane per worker) to PATH as "
                            "Chrome trace-event JSON")

    stats = subparsers.add_parser(
        "stats",
        help="render a telemetry snapshot written via --metrics (table, "
             "raw JSON, or Prometheus text exposition)")
    stats.add_argument("source",
                       help="JSON-lines metrics file written by a "
                            "--metrics run")
    stats.add_argument("--format", choices=StatsConfig.FORMATS,
                       default="table",
                       help="output format (default: table; 'prom' is the "
                            "Prometheus text exposition format)")
    stats.add_argument("--index", type=int, default=-1,
                       help="which snapshot line to render; negative "
                            "indices count from the end (default: -1, "
                            "the latest)")

    timeline = subparsers.add_parser(
        "timeline",
        help="render a telemetry snapshot written via --metrics as a "
             "Chrome trace-event / Perfetto timeline (deterministic: "
             "reproduces a --timeline file byte-for-byte)")
    timeline.add_argument("source",
                          help="JSON-lines metrics file written by a "
                               "--metrics run")
    timeline.add_argument("--out", default="-",
                          help="trace-event JSON output path ('-' prints "
                               "to stdout)")
    timeline.add_argument("--index", type=int, default=-1,
                          help="which snapshot line to render; negative "
                               "indices count from the end (default: -1, "
                               "the latest)")

    report = subparsers.add_parser(
        "report",
        help="reports over committed artifacts (trend: per-case perf "
             "history from BENCH_*.json; crossover: the backend table "
             "behind each analysis's default)")
    report.add_argument("mode", choices=ReportConfig.MODES,
                        help="'trend': markdown + JSON per-case timing "
                             "history over BENCH_baseline.json and dated "
                             "BENCH_<date>.json reports; 'crossover': "
                             "markdown + JSON of the backend crossover "
                             "table (crossover.json)")
    report.add_argument("--dir", default=None,
                        help="source directory: BENCH_*.json for trend "
                             "(default: .), crossover.json for crossover "
                             "(default: docs/tables)")
    report.add_argument("--out", default="docs/tables",
                        help="output directory for the rendered report "
                             "(default: docs/tables)")
    report.add_argument("--basename", default=None,
                        help="output file stem: <out>/<basename>.md and "
                             ".json (default: perf_trend or crossover)")

    subparsers.add_parser(
        "capabilities",
        help="print the install's kinds, analyses, backends, suites, "
             "formats and exit codes as JSON (for external tooling)")

    return parser


# --------------------------------------------------------------------------- #
# Rendering helpers
# --------------------------------------------------------------------------- #
def _render(result, fmt: str) -> None:
    """Print a result in its JSON or table form."""
    print(result.to_json() if fmt == "json" else result.to_table())


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _list_suites() -> None:
    suites = _session().registry.suites()
    print(f"{'suite':12s} {'specs':>5s}  description")
    for name in sorted(suites):
        suite = suites[name]
        print(f"{name:12s} {len(suite.specs):5d}  {suite.description}")


def _list_analyses() -> None:
    registry = _session().registry
    fed_by: Dict[str, list] = {}
    for kind, entry in registry.generators().items():
        for analysis_name in entry.analyses:
            fed_by.setdefault(analysis_name, []).append(kind)
    print(f"{'analysis':20s} {'default':18s} {'mode':10s} "
          f"{'backends':28s} fed by")
    for name, cls in sorted(registry.analyses().items()):
        mode = "streaming" if cls.streaming_native else "batch"
        backends = ",".join(cls.applicable_backends())
        kinds = ",".join(sorted(fed_by.get(name, ()))) or "-"
        print(f"{name:20s} {cls.default_backend():18s} {mode:10s} "
              f"{backends:28s} {kinds}")


def _list_generators() -> None:
    """The unified workload-kind table: classic generators and scenario
    families render from the one generator registry."""
    generators = _session().registry.generators()
    print(f"{'kind':18s} {'source':9s} {'analyses':42s} description")
    for kind, entry in sorted(generators.items()):
        analyses = ",".join(entry.analyses) or "-"
        print(f"{kind:18s} {entry.source:9s} {analyses:42s} "
              f"{entry.description}")


# --------------------------------------------------------------------------- #
# Subcommand shims: argv -> config -> Session.run -> render
# --------------------------------------------------------------------------- #
def _generate(args: argparse.Namespace) -> int:
    config = GenerateConfig(kind=args.kind, threads=args.threads,
                            events=args.events, seed=args.seed)
    result = _session().run(config)
    if args.out == "-":
        dump_trace(result.trace, sys.stdout)
    else:
        save_trace(result.trace, args.out)
        print(f"wrote {len(result.trace)} events "
              f"({result.trace.num_threads} threads) to {args.out}")
    return result.exit_code


def _analyze(args: argparse.Namespace) -> int:
    config = AnalyzeConfig(analysis=args.analysis, trace=args.trace,
                           backend=args.backend,
                           max_findings=args.max_findings,
                           metrics=args.metrics)
    result = _session().run(config)
    _render(result, args.format)
    return result.exit_code


def _compare(args: argparse.Namespace) -> int:
    config = CompareConfig(analysis=args.analysis, trace=args.trace)
    result = _session().run(config)
    _render(result, args.format)
    return result.exit_code


def _sweep(args: argparse.Namespace) -> int:
    if args.list_suites or args.list_analyses:
        if args.list_suites:
            _list_suites()
        if args.list_analyses:
            if args.list_suites:
                print()
            _list_analyses()
        return EXIT_OK
    config = SweepConfig(suite=args.suite, corpus=args.corpus, jobs=args.jobs,
                         analyses=args.analyses, backends=args.backends,
                         oracle=args.oracle,
                         baseline=args.baseline, timeout=args.timeout,
                         repeat=args.repeat, seed=args.seed,
                         format=args.format, metrics=args.metrics,
                         timeline=args.timeline)
    # Dropped-option warnings are knowable up front; surface them before a
    # potentially long sweep so the user can still abort and rerun.
    preflight = config.validation_warnings()
    for message in preflight:
        _warn(message)
    result = _session().run(config)
    for message in result.warnings:
        if message not in preflight:
            _warn(message)
    destination = None if args.out == "-" else args.out
    if config.format == "csv":
        result.to_csv(sys.stdout if destination is None else destination)
    else:
        rendered = (result.to_json() if config.format == "json"
                    else result.to_table()) + "\n"
        if destination is None:
            sys.stdout.write(rendered)
        else:
            with open(destination, "w", encoding="utf-8") as stream:
                stream.write(rendered)
    if destination is not None:
        print(f"wrote {len(result.records)} records to {destination}")
    return result.exit_code


def _bench(args: argparse.Namespace) -> int:
    config = BenchConfig(mode=args.mode, quick=args.quick,
                         repeats=args.repeats, out=args.out,
                         baseline=args.baseline, threshold=args.threshold,
                         compare=not args.no_compare,
                         update_baseline=args.update_baseline)
    result = _session().run(config)
    print(result.report)
    if result.rendered_document is not None:
        print(result.rendered_document)
    for note in result.notes:
        print(note)
    for entry, regressing in result.regressions:
        print(entry, file=sys.stderr if regressing else sys.stdout)
    return result.exit_code


def _gen(args: argparse.Namespace) -> int:
    if args.list_kinds:
        _list_generators()
        return EXIT_OK
    if args.mode != "corpus":
        raise ReproError(
            "nothing to do: pass 'corpus' to build a corpus or --list to "
            "show the registered workload kinds")
    if args.out is None:
        raise ReproError("gen corpus needs --out DIRECTORY")
    document: Dict[str, object] = {}
    if args.config is not None:
        from repro.gen.corpus import CorpusConfig

        with open(args.config, "r", encoding="utf-8") as stream:
            try:
                document = json.load(stream)
            except ValueError as error:
                raise ReproError(f"corpus config {args.config} is not "
                                 f"valid JSON: {error}") from None
        if not isinstance(document, dict):
            raise ReproError(f"corpus config {args.config} is not a JSON "
                             f"object")
        # Validate through the corpus layer's own schema: one validator
        # for the file format, and run-scoped keys (out, register) belong
        # to the invocation, so a file smuggling them in is rejected here
        # rather than silently fighting the CLI flags.
        CorpusConfig.from_mapping(document)
    overrides = {key: value for key, value in (
        ("name", args.name), ("kinds", args.kinds), ("count", args.count),
        ("seed", args.seed), ("threads", args.threads),
        ("events", args.events), ("schedulers", args.schedulers),
        ("format", args.trace_format))
        if value is not None}
    config = GenConfig.from_dict({**document, **overrides, "out": args.out})
    result = _session().run(config)
    _render(result, args.format)
    return result.exit_code


def _convert(args: argparse.Namespace) -> int:
    config = ConvertConfig(source=args.source, out=args.out, to=args.to)
    result = _session().run(config)
    _render(result, args.format)
    return result.exit_code


def _fuzz(args: argparse.Namespace) -> int:
    config = FuzzConfig(seeds=args.seeds, quick=args.quick, kinds=args.kinds,
                        backends=args.backends, stream=not args.no_stream,
                        seed=args.seed, out=args.out,
                        minimize=not args.no_minimize,
                        max_checks=args.max_checks)
    on_case = None
    if args.verbose:
        def on_case(case) -> None:
            print(f"case {case.case_id}", flush=True)
    result = _session().run(config, on_case=on_case)
    _render(result, args.format)
    if not result.report.ok:
        if args.no_minimize:
            print("divergent inputs were not written (--no-minimize); "
                  "re-run without it to produce counterexamples",
                  file=sys.stderr)
        else:
            print(f"counterexamples written to {args.out}", file=sys.stderr)
    return result.exit_code


def _finding_hooks(jsonl: bool):
    """The ``on_finding``/``on_notice`` pair watch and serve share.

    ``on_finding`` items may be single-feed
    :class:`~repro.stream.engine.StreamFinding` (no tenant) or merged-feed
    :class:`~repro.serve.supervisor.TenantFinding` (tenant-prefixed).
    """

    def emit(item) -> None:
        tenant = getattr(item, "tenant", None)
        if jsonl:
            document = {"type": "finding", "analysis": item.analysis,
                        "position": item.position,
                        "finding": str(item.finding)}
            if tenant is not None:
                document["tenant"] = tenant
            print(json.dumps(document), flush=True)
        else:
            line = f"[{item.position:>6d}] {item.analysis}: {item.finding}"
            if tenant is not None:
                line = f"{tenant} {line}"
            print(line, flush=True)

    def notice(kind: str, message: str) -> None:
        if kind == "warning":
            _warn(message)
        elif not jsonl:
            print(message, flush=True)

    return emit, notice


def _watch(args: argparse.Namespace) -> int:
    sources = list(args.source)
    config = WatchConfig(source=sources[0], sources=tuple(sources[1:]),
                         analyses=args.analyses,
                         backend=args.backend, window=args.window,
                         flush_every=args.flush_every,
                         checkpoint=args.checkpoint,
                         checkpoint_every=args.checkpoint_every,
                         follow=args.follow, idle_timeout=args.idle_timeout,
                         max_events=args.max_events, metrics=args.metrics,
                         timeline=args.timeline)
    jsonl = args.format == "jsonl"
    emit, notice = _finding_hooks(jsonl)
    result = _session().run(config, on_finding=emit, on_notice=notice)
    if jsonl:
        print(json.dumps(result.to_dict()), flush=True)
    else:
        print(result.to_table())
    return result.exit_code


def _serve(args: argparse.Namespace) -> int:
    host, port = None, None
    if args.listen is not None:
        address, separator, port_text = args.listen.rpartition(":")
        if not separator:
            raise ReproError(f"malformed --listen {args.listen!r}: "
                             f"expected HOST:PORT")
        try:
            port = int(port_text)
        except ValueError:
            raise ReproError(f"malformed --listen port {port_text!r}") \
                from None
        host = address or "127.0.0.1"
    config = ServeConfig(analyses=args.analyses,
                         sources=tuple(args.source or ()),
                         host=host, port=port, workers=args.workers,
                         backend=args.backend, window=args.window,
                         flush_every=args.flush_every,
                         checkpoint_dir=args.checkpoint_dir,
                         checkpoint_every=args.checkpoint_every,
                         queue_size=args.queue_size,
                         quota_events=args.quota_events,
                         drain_timeout=args.drain_timeout,
                         stop_after=args.stop_after,
                         crash_worker=args.crash_worker,
                         pid_file=args.pid_file,
                         metrics=args.metrics, timeline=args.timeline)
    jsonl = args.format == "jsonl"
    emit, notice = _finding_hooks(jsonl)
    result = _session().run(config, on_finding=emit, on_notice=notice)
    if jsonl:
        print(json.dumps(result.to_dict()), flush=True)
    else:
        print(result.to_table())
    return result.exit_code


def _stats(args: argparse.Namespace) -> int:
    config = StatsConfig(source=args.source, format=args.format,
                         index=args.index)
    result = _session().run(config)
    if config.format == "prom":
        print(result.to_prom())
    elif config.format == "chrome":
        print(result.to_chrome())
    else:
        _render(result, config.format)
    return result.exit_code


def _timeline(args: argparse.Namespace) -> int:
    config = TimelineConfig(source=args.source, out=args.out,
                            index=args.index)
    result = _session().run(config)
    print(result.to_table())
    return result.exit_code


def _report(args: argparse.Namespace) -> int:
    config = ReportConfig(mode=args.mode, dir=args.dir, out=args.out,
                          basename=args.basename)
    result = _session().run(config)
    print(result.to_table())
    return result.exit_code


def _capabilities(args: argparse.Namespace) -> int:
    print(json.dumps(_session().capabilities(), indent=2, sort_keys=True))
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, run the subcommand, and map errors to the stable exit
    codes of :mod:`repro.errors` -- the single place CLI exceptions are
    turned into process status."""
    args = build_parser().parse_args(argv)
    handlers = {"generate": _generate, "analyze": _analyze,
                "compare": _compare, "sweep": _sweep, "bench": _bench,
                "gen": _gen, "convert": _convert, "fuzz": _fuzz,
                "watch": _watch, "serve": _serve,
                "stats": _stats, "timeline": _timeline,
                "report": _report, "capabilities": _capabilities}
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return exit_code_for(KeyboardInterrupt())
    except BrokenPipeError:
        # The downstream consumer (e.g. `repro capabilities | head`) closed
        # the pipe -- nothing to report; 128+SIGPIPE is the shell convention.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
