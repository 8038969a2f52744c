"""The paper's tables and the crossover grid, as sweep suites at a small scale.

Every table suite (``table1`` ... ``table7``: one analysis of the paper's
Section 5 over its benchmarks, on every applicable backend) and the
``crossover`` suite (the grid behind each analysis's default backend) runs
through :func:`repro.runner.executor.run_suite`, the one path that times
analysis runs.  Every job must finish, and each suite's job count and
total partial-order inserts and queries are pinned: they are deterministic
per trace, so a change means the workloads, the analyses or their options
changed.  Each job is also checked on its own: it must run partial-order
operations and agree with every other backend on the same trace and
analysis, findings and operation counts alike.  Each suite runs once per
session; timing the tables at full size is ``python -m repro.bench``.
"""

import functools

import pytest

from repro.runner.corpus import get_suite, scale_suite
from repro.runner.executor import plan_jobs, run_suite

SCALE = 0.05

#: suite -> (jobs, total insert_count, total query_count) at ``SCALE``.
PINNED = {
    "table1": (21, 843, 3687),
    "table2": (18, 216, 1536),
    "table3": (15, 438, 2928),
    "table4": (18, 1389, 4731),
    "table5": (15, 516, 3495),
    "table6": (18, 309, 4077),
    "table7": (18, 34764, 262890),
    "crossover": (113, 20256, 166113),
}


@functools.lru_cache(maxsize=None)
def _sweep(suite):
    return run_suite(suite, scale=SCALE)


def _key(record):
    return record.trace_id, record.analysis, record.backend


def _outcome(record):
    return (record.finding_count, record.insert_count, record.delete_count,
            record.query_count)


#: One (suite, trace, analysis, backend) case per planned job.
JOBS = [(suite, job.spec.trace_id, job.analysis, job.backend)
        for suite in PINNED
        for job in plan_jobs(scale_suite(get_suite(suite), SCALE))]


@pytest.mark.parametrize("suite", list(PINNED))
def test_suite_runs_clean_with_pinned_operation_counts(suite):
    result = _sweep(suite)
    assert [record for record in result.records if not record.ok] == []
    assert (len(result.records),
            sum(record.insert_count for record in result.records),
            sum(record.query_count for record in result.records)) \
        == PINNED[suite]


@pytest.mark.parametrize("suite,trace_id,analysis,backend", JOBS,
                         ids=["-".join(case) for case in JOBS])
def test_job_agrees_with_every_backend(suite, trace_id, analysis, backend):
    records = {_key(record): record for record in _sweep(suite).records}
    record = records[(trace_id, analysis, backend)]
    assert record.ok, record.error
    assert record.insert_count + record.query_count > 0
    others = {other_backend: _outcome(other)
              for (other_trace, other_analysis, other_backend), other
              in records.items()
              if (other_trace, other_analysis) == (trace_id, analysis)
              and other_backend != backend}
    assert others
    assert others == {other_backend: _outcome(record)
                      for other_backend in others}
