"""Parallel sweep executor: fan (trace x analysis x backend) jobs out over
worker processes.

The executor is deliberately simple and deterministic:

* **Planning** is pure: :func:`plan_jobs` expands a suite into an ordered
  job list (suite order, then analysis, then backend in the canonical
  factory order), so the same request always yields the same jobs in the
  same positions.
* **Execution** ships only the :class:`SweepJob` (a few strings and ints)
  to each worker; the worker regenerates the trace from its spec and
  rebuilds the analysis by name, so nothing exotic crosses the process
  boundary and the runner works under both ``fork`` and ``spawn`` start
  methods.
* **Collection** walks the futures in submission order, so results come
  back in plan order no matter which worker finished first.  Per-job
  failures are captured as ``status="error"`` records (with the worker's
  traceback); a per-job timeout yields a ``status="timeout"`` record
  instead of sinking the whole sweep.
* **Repeats** run in rounds: round ``r`` of every job runs before round
  ``r + 1`` of any, so a slow spell of a shared host spreads over many
  jobs' repeats instead of hitting every repeat of the few it overlaps.
  With ``memory=True`` one more round runs each job under ``tracemalloc``
  for its peak; timing rounds never run under it.

``jobs=1`` bypasses the process pool entirely and runs inline -- that is
both the debugging escape hatch and the reference a parallel run must match
record-for-record (modulo wall-clock times).
"""

from __future__ import annotations

import os
import statistics
import time
import traceback
import tracemalloc
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.analyses.common.base import Analysis
from repro.core import AUTO_BACKEND
from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.obs.context import merge_snapshot, new_span_id, new_trace_id
from repro.runner.corpus import (
    Options,
    Suite,
    TraceCorpus,
    TraceSpec,
    get_suite,
    override_seed,
    scale_suite,
)
from repro.trace.generators import GENERATOR_REGISTRY
from repro.runner.results import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    SweepRecord,
    SweepResult,
)

@dataclass(frozen=True)
class SweepJob:
    """One unit of sweep work: run ``analysis`` on ``spec`` with ``backend``.

    Frozen and made of primitives plus a :class:`TraceSpec`, so it pickles
    cheaply to worker processes.
    """

    suite: str
    spec: TraceSpec
    analysis: str
    backend: str
    #: Analysis constructor options, from the suite's declaration.
    options: Options = ()
    #: Distributed-tracing context, set by the collector when telemetry is
    #: on: the run-wide trace id plus this job's span id.  A job carrying
    #: a trace id tells a pool worker (which has no registry installed) to
    #: capture telemetry on a job-local registry and ship the snapshot
    #: back inside its record; ``None``/``None`` means tracing is off and
    #: the job runs exactly as before.
    trace_id: Optional[str] = None
    span_id: Optional[str] = None

    def describe(self) -> str:
        return f"{self.spec.trace_id} {self.analysis} [{self.backend}]"


def analyses_for_kind(kind: str) -> Tuple[str, ...]:
    """Analyses a workload kind feeds, as declared at generator registration
    (empty tuple for unknown kinds)."""
    entry = GENERATOR_REGISTRY.get(kind)
    return entry.analyses if entry is not None else ()


def plan_jobs(suite: Suite,
              analyses: Optional[Sequence[str]] = None,
              backends: Optional[Sequence[str]] = None,
              oracle: bool = False) -> List[SweepJob]:
    """Expand a suite into a deterministic, ordered job list.

    ``analyses`` restricts the fan-out to the named analyses (default: every
    analysis the trace kind feeds, or the suite's declared analyses, which
    also carry their constructor options); ``backends`` restricts backends (default:
    every backend applicable to the analysis).  Requested backends that an
    analysis cannot use (e.g. ``vc-flat`` for linearizability, which needs
    deletion support) are skipped for that analysis, mirroring how
    ``repro compare`` scopes its backend list per analysis -- but a request
    that leaves an explicitly named analysis with *zero* jobs anywhere in
    the suite (no kind feeds it, or no requested backend can serve it) is
    rejected with :class:`ReproError` rather than silently under-measuring.

    The pseudo-backend ``"auto"`` adds one job per (trace, analysis)
    after that group's static jobs; the worker resolves it with the
    ``auto`` rule (:mod:`repro.tune`).  ``oracle`` additionally forces
    *every* applicable static backend into the plan -- the per-job
    optimum needs measuring; it requires ``"auto"`` among the requested
    backends.
    """
    registry = Analysis.registered()
    if analyses is not None:
        unknown = sorted(set(analyses) - set(registry))
        if unknown:
            raise ReproError(f"unknown analyses in sweep request: {unknown}")
    want_auto = backends is not None and AUTO_BACKEND in backends
    if backends is not None:
        from repro.core import BACKENDS

        unknown = sorted(set(backends) - set(BACKENDS) - {AUTO_BACKEND})
        if unknown:
            raise ReproError(f"unknown backends in sweep request: {unknown}")
    if oracle and not want_auto:
        raise ReproError(
            "oracle mode validates the 'auto' pseudo-backend; include "
            "'auto' in the requested backends")
    declared = dict(suite.analyses)
    jobs: List[SweepJob] = []
    for spec in suite:
        kind_analyses = analyses_for_kind(spec.kind)
        if not kind_analyses:
            raise ReproError(
                f"no analyses declared for trace kind {spec.kind!r}; pass "
                f"analyses=(...) when calling register_generator")
        for analysis_name in kind_analyses:
            if analyses is not None and analysis_name not in analyses:
                continue
            if declared and analysis_name not in declared:
                continue
            options = declared.get(analysis_name, ())
            applicable = registry[analysis_name].applicable_backends()
            selected = [backend for backend in applicable
                        if backends is None or backend in backends
                        or oracle]
            for backend in selected:
                jobs.append(SweepJob(suite=suite.name, spec=spec,
                                     analysis=analysis_name, backend=backend,
                                     options=options))
            if want_auto:
                jobs.append(SweepJob(suite=suite.name, spec=spec,
                                     analysis=analysis_name,
                                     backend=AUTO_BACKEND, options=options))
    if suite.specs and not jobs:
        raise ReproError(
            "sweep plan is empty: the requested analyses/backends do not "
            "combine into any runnable job for this suite (e.g. none of the "
            "requested backends is applicable to the requested analyses)")
    if analyses is not None:
        unused = sorted(set(analyses) - {job.analysis for job in jobs})
        if unused:
            raise ReproError(
                f"requested analyses produce no job in suite "
                f"{suite.name!r}: {unused} (no trace kind feeds them, or "
                f"the requested backends cannot serve them)")
    return jobs


#: Per-process trace cache for pool workers: jobs sharing a spec (several
#: backends per trace) reuse the materialized trace instead of regenerating
#: it.  Lives and dies with the worker process, so nothing leaks across
#: sweeps in the parent.
_WORKER_CORPUS = TraceCorpus()


def _job_span_labels(job: SweepJob) -> dict:
    """Labels of a job's ``sweep_job`` span (same set inline and pooled,
    so merged span trees keep one shape regardless of worker count)."""
    return dict(trace=job.trace_id, span=job.span_id,
                workload=job.spec.trace_id, analysis=job.analysis,
                backend=job.backend)


def execute_job(job: SweepJob, corpus: Optional[TraceCorpus] = None,
                capture_telemetry: bool = False,
                memory: bool = False) -> SweepRecord:
    """Run one job's analysis once, capturing any analysis error.

    The record carries that one run (``repeats=1``); :func:`run_jobs`
    merges a job's runs into its record.  With ``memory=True`` the run
    executes under ``tracemalloc`` and the record carries its
    ``peak_bytes`` (its time is then no timing).

    A job carrying a ``trace_id`` runs under a ``sweep_job`` span.  In the
    collector's own process that span simply nests under the open sweep
    span; with ``capture_telemetry=True`` (how the collector submits
    traced jobs to pool workers) the job instead runs on a fresh job-local
    registry whose snapshot -- the job's exact telemetry delta, since the
    registry was born empty -- comes back on the record's ``telemetry``
    field for the collector to merge.  The flag must be explicit: under
    the ``fork`` start method a worker *inherits* a copy of the
    collector's active registry, so "no registry installed" cannot mark
    the worker side.

    This is the worker-side entry point; it must stay a module-level
    function so it pickles by reference under ``spawn``.
    """
    if capture_telemetry and job.trace_id is not None:
        worker_registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(worker_registry):
            record = _execute_spanned(job, corpus, memory, worker_registry)
        return replace(record, telemetry=worker_registry.snapshot())
    return _execute_spanned(job, corpus, memory, obs_metrics.ACTIVE)


def _execute_spanned(job: SweepJob, corpus, memory,
                     registry) -> SweepRecord:
    """Run a job under its ``sweep_job`` span (when traced), folding any
    failure into an error record *after* the span has seen the exception
    -- that is what stamps ``status="error"``/``error_type`` on it."""
    try:
        if registry is not None and job.trace_id is not None:
            with registry.span("sweep_job", **_job_span_labels(job)):
                return _run_job(job, corpus, memory)
        return _run_job(job, corpus, memory)
    except Exception:
        return _failure_record(job, STATUS_ERROR, traceback.format_exc())


def _job_base(job: SweepJob) -> dict:
    spec = job.spec
    return dict(suite=job.suite, trace_id=spec.trace_id, kind=spec.kind,
                threads=spec.threads, events=spec.events, seed=spec.seed,
                analysis=job.analysis, backend=job.backend)


def _run_job(job: SweepJob, corpus: Optional[TraceCorpus],
             memory: bool) -> SweepRecord:
    """One run of one job, the one place a sweep times an analysis;
    raises on failure (see callers)."""
    trace = (corpus if corpus is not None else _WORKER_CORPUS).get(job.spec)
    analysis = Analysis.by_name(job.analysis)(job.backend, **dict(job.options))
    peak = None
    if memory:
        tracemalloc.start()
        try:
            outcome = analysis.run(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    else:
        outcome = analysis.run(trace)
    return SweepRecord(status=STATUS_OK,
                       elapsed_seconds=outcome.elapsed_seconds,
                       elapsed_median_seconds=outcome.elapsed_seconds,
                       finding_count=outcome.finding_count,
                       insert_count=outcome.insert_count,
                       delete_count=outcome.delete_count,
                       query_count=outcome.query_count,
                       backend_selected=outcome.details.get(
                           "backend_selected", job.backend),
                       peak_bytes=peak,
                       **_job_base(job))


def _merge_runs(runs: Sequence[SweepRecord]) -> SweepRecord:
    """A job's record from its runs: its first failure, else the first
    run's outcome (outcomes are deterministic per job) with the min and
    median of the timed runs and the memory run's peak."""
    for run in runs:
        if not run.ok:
            return run
    times = [run.elapsed_seconds for run in runs if run.peak_bytes is None]
    peaks = [run.peak_bytes for run in runs if run.peak_bytes is not None]
    return replace(runs[0], elapsed_seconds=min(times),
                   elapsed_median_seconds=statistics.median(times),
                   repeats=len(times), peak_bytes=peaks[0] if peaks else None)


def run_jobs(jobs: Sequence[SweepJob], *, workers: int = 1,
             timeout_seconds: Optional[float] = None,
             suite_name: Optional[str] = None,
             repeats: int = 1, memory: bool = False) -> SweepResult:
    """Execute ``jobs`` and return one record per job, in job order.

    ``repeats`` runs each job's analysis that many times and reports the
    min (``elapsed_seconds``) and median; ``memory`` adds one
    ``tracemalloc`` run per job for its ``peak_bytes``.  The runs go in
    rounds (module docstring), and a job that fails is not run again.
    ``workers=1`` runs inline (sharing one trace corpus cache across jobs);
    ``workers>1`` fans out over a :class:`ProcessPoolExecutor`.
    ``timeout_seconds`` bounds how long the collector waits for each run's
    result; a run that exceeds it makes its job ``status="timeout"``.
    Serial runs apply no timeout (there is no safe way to interrupt an
    in-process computation).
    """
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    if repeats < 1:
        raise ReproError(f"repeats must be >= 1, got {repeats}")
    name = suite_name if suite_name is not None else (
        jobs[0].suite if jobs else "empty")
    result = SweepResult(suite=name)
    if not jobs:
        return result

    # Distributed tracing: with a registry active the collector mints one
    # run-wide trace id, plus a span id per run of a job, and ships them
    # on the jobs.  Inline runs then nest real ``sweep_job`` child spans
    # under the open ``sweep`` span; pool workers capture run-local
    # snapshots that come back on their records and are merged under the
    # same sweep span -- so both modes produce equivalent merged snapshots.
    # Queue wait is the collector's submit-to-result latency per future.
    registry = obs_metrics.ACTIVE
    if registry is not None:
        trace_id = new_trace_id()
        jobs = [replace(job, trace_id=trace_id) for job in jobs]
        sweep_scope = registry.span("sweep", suite=name, trace=trace_id)
    else:
        sweep_scope = nullcontext()

    rounds = [False] * repeats + ([True] if memory else [])
    runs: List[List[SweepRecord]] = [[] for _ in jobs]
    with sweep_scope as sweep_span:
        if workers == 1:
            corpus = TraceCorpus()
            for memory_round in rounds:
                for index in _live(runs):
                    runs[index].append(execute_job(
                        _next_run(jobs[index], registry), corpus,
                        memory=memory_round))
        else:
            _run_pooled(jobs, rounds, runs, workers, timeout_seconds,
                        registry, sweep_span)
    result.records = [_merge_runs(job_runs) for job_runs in runs]
    if registry is not None:
        for record in result.records:
            _observe_record(registry, record)
    return result


def _live(runs: Sequence[Sequence[SweepRecord]]) -> List[int]:
    """Indexes of the jobs none of whose runs failed."""
    return [index for index, job_runs in enumerate(runs)
            if all(run.ok for run in job_runs)]


def _next_run(job: SweepJob, registry) -> SweepJob:
    """``job`` with a fresh span id for its next run (when traced)."""
    return job if registry is None else replace(job, span_id=new_span_id())


def _run_pooled(jobs: Sequence[SweepJob], rounds: Sequence[bool],
                runs: List[List[SweepRecord]], workers: int,
                timeout_seconds: Optional[float], registry,
                sweep_span) -> None:
    """Run every round on a process pool, appending each run's record to
    ``runs``; a round is collected before the next is submitted."""
    pool = ProcessPoolExecutor(max_workers=min(workers, len(jobs)))
    timed_out = False
    try:
        for memory_round in rounds:
            submitted = [(index, _next_run(jobs[index], registry))
                         for index in _live(runs)]
            futures = [pool.submit(execute_job, job, None,
                                   registry is not None, memory_round)
                       for _index, job in submitted]
            for (index, job), future in zip(submitted, futures):
                record, lost = _collect(future, job, timeout_seconds,
                                        registry, sweep_span)
                timed_out = timed_out or lost
                runs[index].append(record)
    finally:
        if timed_out:
            # A timed-out job is still running in its worker; a plain
            # shutdown would block on it (possibly forever for a hung job).
            # Every future has been collected or cancelled by now, so no
            # pending result is lost by killing the stragglers.
            processes = getattr(pool, "_processes", None)
            if processes:
                for process in processes.values():
                    process.terminate()
                pool.shutdown(wait=True)
            else:  # pragma: no cover - private attr gone on this CPython
                # Cannot kill the stragglers; at least do not block on them.
                pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True)


def _collect(future, job: SweepJob, timeout_seconds: Optional[float],
             registry, sweep_span) -> Tuple[SweepRecord, bool]:
    """The record of one pooled run, and whether it timed out."""
    wait_start = time.perf_counter() if registry is not None else 0.0
    timed_out = False
    try:
        record = future.result(timeout=timeout_seconds)
    except FutureTimeout:
        # cancel() succeeds only for jobs that never left the queue --
        # label those honestly: they never ran.
        if future.cancel():
            timed_out = True
            record = _failure_record(
                job, STATUS_TIMEOUT,
                f"job was still queued when its {timeout_seconds}s "
                f"collection window expired")
            _note_timeout(registry, sweep_span, job)
        elif future.done():
            # Finished between the timeout firing and the cancel attempt:
            # keep the real result instead of mislabeling a completed job
            # as a timeout.
            try:
                record = future.result(timeout=0)
            except Exception:  # e.g. BrokenProcessPool
                record = _failure_record(job, STATUS_ERROR,
                                         traceback.format_exc())
        else:
            timed_out = True
            record = _failure_record(
                job, STATUS_TIMEOUT,
                f"job did not complete within {timeout_seconds}s")
            _note_timeout(registry, sweep_span, job)
    except Exception:  # worker died (e.g. BrokenProcessPool)
        record = _failure_record(job, STATUS_ERROR, traceback.format_exc())
    if registry is not None:
        registry.histogram("sweep_queue_wait_seconds").observe(
            time.perf_counter() - wait_start)
        if record.telemetry is not None:
            # Fold the worker's delta into the live registry and drop the
            # payload -- records stay transport-free.
            merge_snapshot(registry, record.telemetry, sweep_span)
            record = replace(record, telemetry=None)
    return record, timed_out


def run_suite(suite_name: str, *, workers: int = 1,
              analyses: Optional[Sequence[str]] = None,
              backends: Optional[Sequence[str]] = None,
              timeout_seconds: Optional[float] = None,
              repeats: int = 1,
              seed: Optional[int] = None,
              scale: float = 1.0,
              memory: bool = False,
              oracle: bool = False) -> SweepResult:
    """Plan and execute a full sweep of a registered suite.

    ``seed`` overrides the seed pinned in every suite spec (see
    :func:`repro.runner.corpus.override_seed`); the effective seed lands in
    each :class:`~repro.runner.results.SweepRecord` (and its CSV/JSON
    exports) either way, so a sweep is always reproducible from its output.
    ``scale`` scales every spec's per-thread size
    (:func:`repro.runner.corpus.scale_suite`); ``memory`` measures each
    job's peak (see :func:`run_jobs`).

    ``oracle=True`` runs all applicable static backends alongside
    ``auto`` and attaches the regret report
    (:meth:`~repro.runner.results.SweepResult.oracle_report`).
    """
    suite = scale_suite(get_suite(suite_name), scale)
    if seed is not None:
        suite = override_seed(suite, seed)
    jobs = plan_jobs(suite, analyses=analyses, backends=backends,
                     oracle=oracle)
    result = run_jobs(jobs, workers=workers, timeout_seconds=timeout_seconds,
                      suite_name=suite.name, repeats=repeats, memory=memory)
    if oracle:
        result.oracle = result.oracle_report()
        registry = obs_metrics.ACTIVE
        if registry is not None and result.oracle is not None:
            registry.gauge("tune_regret_seconds").set(
                result.oracle["regret_seconds"])
    return result


def _note_timeout(registry, sweep_span, job: SweepJob) -> None:
    """Leave a telemetry trail for a job the collector abandoned.

    The worker never reported back, so the collector stands in for it:
    a ``sweep_job_timeout_total`` tick plus a synthetic zero-duration
    error-status span grafted under the sweep span (anchored to the
    collector's clock at the moment of abandonment), so timeouts are
    visible in timelines instead of silently missing lanes.
    """
    if registry is None:
        return
    registry.counter("sweep_job_timeout_total").inc()
    document = {
        "name": "sweep_job",
        "labels": _job_span_labels(job),
        "start_ns": 0,
        "duration_ns": 0,
        "status": "error",
        "error_type": "timeout",
        "pid": os.getpid(),
        "wall_start_ns": time.time_ns(),
    }
    if sweep_span is not None:
        sweep_span.children.append(document)
    else:  # pragma: no cover - sweeps always trace under an open span
        registry.record_span_document(document)


def _observe_record(registry: "obs_metrics.MetricsRegistry",
                    record: SweepRecord) -> None:
    registry.counter("sweep_jobs_total", status=record.status).inc()
    if record.status == STATUS_OK:
        registry.histogram("sweep_job_seconds", analysis=record.analysis,
                           backend=record.backend) \
            .observe(record.elapsed_seconds)


def _failure_record(job: SweepJob, status: str, message: str) -> SweepRecord:
    return SweepRecord(status=status, error=message, **_job_base(job))
