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

``jobs=1`` bypasses the process pool entirely and runs inline -- that is
both the debugging escape hatch and the reference a parallel run must match
record-for-record (modulo wall-clock times).
"""

from __future__ import annotations

import os
import statistics
import time
import traceback
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
    Suite,
    TraceCorpus,
    TraceSpec,
    get_suite,
    override_seed,
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
    analysis the trace kind feeds); ``backends`` restricts backends (default:
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
            applicable = registry[analysis_name].applicable_backends()
            selected = [backend for backend in applicable
                        if backends is None or backend in backends
                        or oracle]
            for backend in selected:
                jobs.append(SweepJob(suite=suite.name, spec=spec,
                                     analysis=analysis_name, backend=backend))
            if want_auto:
                jobs.append(SweepJob(suite=suite.name, spec=spec,
                                     analysis=analysis_name,
                                     backend=AUTO_BACKEND))
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
                repeats: int = 1,
                capture_telemetry: bool = False) -> SweepRecord:
    """Run one job to completion, capturing any analysis error.

    ``repeats`` re-runs the analysis that many times over the same trace
    (fresh analysis instance per repeat) and reports min/median times, so
    sweep numbers stop being single-shot noise.  Findings and operation
    counts come from the first repeat (they are deterministic per job).

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
            record = _execute_spanned(job, corpus, repeats, worker_registry)
        return replace(record, telemetry=worker_registry.snapshot())
    return _execute_spanned(job, corpus, repeats, obs_metrics.ACTIVE)


def _execute_spanned(job: SweepJob, corpus, repeats,
                     registry) -> SweepRecord:
    """Run a job under its ``sweep_job`` span (when traced), folding any
    failure into an error record *after* the span has seen the exception
    -- that is what stamps ``status="error"``/``error_type`` on it."""
    try:
        if registry is not None and job.trace_id is not None:
            with registry.span("sweep_job", **_job_span_labels(job)):
                return _run_job(job, corpus, repeats)
        return _run_job(job, corpus, repeats)
    except Exception:
        return SweepRecord(status=STATUS_ERROR, error=traceback.format_exc(),
                           **_job_base(job))


def _job_base(job: SweepJob) -> dict:
    spec = job.spec
    return dict(suite=job.suite, trace_id=spec.trace_id, kind=spec.kind,
                threads=spec.threads, events=spec.events, seed=spec.seed,
                analysis=job.analysis, backend=job.backend)


def _run_job(job: SweepJob, corpus: Optional[TraceCorpus],
             repeats: int) -> SweepRecord:
    """The actual work of one job; raises on failure (see callers)."""
    trace = (corpus if corpus is not None else _WORKER_CORPUS).get(job.spec)
    analysis_cls = Analysis.by_name(job.analysis)
    result = None
    times = []
    for _ in range(max(1, repeats)):
        outcome = analysis_cls(job.backend).run(trace)
        times.append(outcome.elapsed_seconds)
        if result is None:
            result = outcome
    return SweepRecord(status=STATUS_OK,
                       elapsed_seconds=min(times),
                       elapsed_median_seconds=statistics.median(times),
                       repeats=len(times),
                       finding_count=result.finding_count,
                       insert_count=result.insert_count,
                       delete_count=result.delete_count,
                       query_count=result.query_count,
                       backend_selected=result.details.get(
                           "backend_selected", job.backend),
                       **_job_base(job))


def run_jobs(jobs: Sequence[SweepJob], *, workers: int = 1,
             timeout_seconds: Optional[float] = None,
             suite_name: Optional[str] = None,
             repeats: int = 1) -> SweepResult:
    """Execute ``jobs`` and return records in job order.

    ``workers=1`` runs inline (sharing one trace corpus cache across jobs);
    ``workers>1`` fans out over a :class:`ProcessPoolExecutor`.
    ``timeout_seconds`` bounds how long the collector waits for each job's
    result; a job that exceeds it is recorded as ``status="timeout"``.
    Serial runs apply no timeout (there is no safe way to interrupt an
    in-process computation).  ``repeats`` re-runs each job's analysis that
    many times and reports min/median (see :func:`execute_job`); note that
    ``timeout_seconds`` bounds the *whole* job -- all of its repeats --
    so callers combining both should scale the budget accordingly.
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
    # run-wide trace id plus a span id per job and ships them on the jobs.
    # Inline jobs then nest real ``sweep_job`` child spans under the open
    # ``sweep`` span; pool workers capture job-local snapshots that come
    # back on their records and are merged under the same sweep span
    # below -- so both modes produce equivalent merged snapshots.  Queue
    # wait is the collector's submit-to-result latency for each future.
    registry = obs_metrics.ACTIVE
    if registry is not None:
        trace_id = new_trace_id()
        jobs = [replace(job, trace_id=trace_id, span_id=new_span_id())
                for job in jobs]
        sweep_scope = registry.span("sweep", suite=name, trace=trace_id)
    else:
        sweep_scope = nullcontext()

    if workers == 1:
        corpus = TraceCorpus()
        with sweep_scope:
            for job in jobs:
                result.records.append(execute_job(job, corpus, repeats))
        if registry is not None:
            for record in result.records:
                _observe_record(registry, record)
        return result

    pool = ProcessPoolExecutor(max_workers=min(workers, len(jobs)))
    timed_out = False
    try:
        with sweep_scope as sweep_span:
            futures = [pool.submit(execute_job, job, None, repeats,
                                   registry is not None)
                       for job in jobs]
            for job, future in zip(jobs, futures):
                wait_start = (time.perf_counter() if registry is not None
                              else 0.0)
                try:
                    record = future.result(timeout=timeout_seconds)
                except FutureTimeout:
                    # cancel() succeeds only for jobs that never left the
                    # queue -- label those honestly: they never ran.
                    if future.cancel():
                        timed_out = True
                        record = _failure_record(
                            job, STATUS_TIMEOUT,
                            f"job was still queued when its "
                            f"{timeout_seconds}s collection window expired")
                        _note_timeout(registry, sweep_span, job)
                    elif future.done():
                        # Finished between the timeout firing and the
                        # cancel attempt: keep the real result instead of
                        # mislabeling a completed job as a timeout.
                        try:
                            record = future.result(timeout=0)
                        except Exception:  # e.g. BrokenProcessPool
                            record = _failure_record(job, STATUS_ERROR,
                                                     traceback.format_exc())
                    else:
                        timed_out = True
                        record = _failure_record(
                            job, STATUS_TIMEOUT,
                            f"job did not complete within "
                            f"{timeout_seconds}s")
                        _note_timeout(registry, sweep_span, job)
                except Exception:  # worker died (e.g. BrokenProcessPool)
                    record = _failure_record(job, STATUS_ERROR,
                                             traceback.format_exc())
                if registry is not None:
                    registry.histogram("sweep_queue_wait_seconds").observe(
                        time.perf_counter() - wait_start)
                    if record.telemetry is not None:
                        # Fold the worker's delta into the live registry and
                        # drop the payload -- records stay transport-free.
                        merge_snapshot(registry, record.telemetry, sweep_span)
                        record = replace(record, telemetry=None)
                    _observe_record(registry, record)
                result.records.append(record)
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
    return result


def run_suite(suite_name: str, *, workers: int = 1,
              analyses: Optional[Sequence[str]] = None,
              backends: Optional[Sequence[str]] = None,
              timeout_seconds: Optional[float] = None,
              repeats: int = 1,
              seed: Optional[int] = None,
              oracle: bool = False) -> SweepResult:
    """Plan and execute a full sweep of a registered suite.

    ``seed`` overrides the seed pinned in every suite spec (see
    :func:`repro.runner.corpus.override_seed`); the effective seed lands in
    each :class:`~repro.runner.results.SweepRecord` (and its CSV/JSON
    exports) either way, so a sweep is always reproducible from its output.

    ``oracle=True`` runs all applicable static backends alongside
    ``auto`` and attaches the regret report
    (:meth:`~repro.runner.results.SweepResult.oracle_report`).
    """
    suite = get_suite(suite_name)
    if seed is not None:
        suite = override_seed(suite, seed)
    jobs = plan_jobs(suite, analyses=analyses, backends=backends,
                     oracle=oracle)
    result = run_jobs(jobs, workers=workers, timeout_seconds=timeout_seconds,
                      suite_name=suite.name, repeats=repeats)
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
    spec = job.spec
    return SweepRecord(suite=job.suite, trace_id=spec.trace_id, kind=spec.kind,
                       threads=spec.threads, events=spec.events,
                       seed=spec.seed, analysis=job.analysis,
                       backend=job.backend, status=status, error=message)
