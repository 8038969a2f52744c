"""Disabled-mode cost: telemetry off must not allocate on hot paths.

The claim under test (see docs/observability.md): a StreamEngine run
with telemetry disabled performs **zero** allocations attributable to
:mod:`repro.obs` -- the entire disabled cost is one ``is None`` check
per event.

It is proven with ``tracemalloc`` filtered to the ``repro/obs``
source files, so the assertions are about *where* allocations happen,
not about noisy absolute byte counts.
"""

import os
import tracemalloc

import repro.obs.metrics as obs_metrics

#: Filter matching every allocation made inside the obs package.
OBS_FILTER = tracemalloc.Filter(
    True, os.path.join(os.path.dirname(obs_metrics.__file__), "*"))


def _obs_allocations(callable_):
    """Bytes allocated inside repro/obs by ``callable_()``."""
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        callable_()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    stats = after.filter_traces([OBS_FILTER]).compare_to(
        before.filter_traces([OBS_FILTER]), "filename")
    return sum(stat.size_diff for stat in stats)


class TestDisabledEngine:
    def test_100k_event_run_never_touches_obs(self):
        from repro.stream.engine import StreamEngine
        from repro.trace.event import Event, EventKind

        assert obs_metrics.ACTIVE is None  # telemetry off

        variables = [f"v{i}" for i in range(64)]
        events = [Event(thread=i % 4, index=i // 4, kind=EventKind.READ,
                        variable=variables[i % 64])
                  for i in range(100_000)]
        engine = StreamEngine(["c11-races"])
        assert engine.metrics is None  # bound once, at construction

        def run():
            for event in events:
                engine.feed(event)
            engine.flush()

        assert _obs_allocations(run) == 0
        assert engine.stats.events == 100_000

    def test_disabled_engine_binds_no_instruments(self):
        from repro.stream.engine import StreamEngine

        engine = StreamEngine(["race-prediction"])
        assert engine.metrics is None
        for attachment in engine._attachments:
            assert attachment.m_feed is None
            assert attachment.m_flush is None
            assert attachment.m_findings is None


class TestDisabledSweep:
    def test_pooled_sweep_with_telemetry_off_is_free(self):
        """A pooled sweep with no active registry must neither allocate
        from repro.obs on the collector side nor attach per-job telemetry
        payloads to the records it ships back."""
        from repro.runner.corpus import Suite, TraceSpec, grid
        from repro.runner.executor import plan_jobs, run_jobs

        assert obs_metrics.ACTIVE is None  # telemetry off

        suite = Suite(name="tiny", description="overhead probe",
                      specs=grid(["racy"], [2], [16]))
        jobs = plan_jobs(suite, backends=["vc-flat", "st"])
        holder = {}

        def run():
            holder["result"] = run_jobs(jobs, workers=2, suite_name="tiny")

        assert _obs_allocations(run) == 0
        result = holder["result"]
        assert len(result.records) == len(jobs) and not result.failures()
        # No trace context was minted, and no snapshot rode along: the
        # record on the wire is exactly the enabled-mode record minus
        # telemetry (``to_dict`` never carries the field either way).
        for record in result.records:
            assert record.telemetry is None
            assert "telemetry" not in record.to_dict()
        for job in jobs:
            assert job.trace_id is None and job.span_id is None
