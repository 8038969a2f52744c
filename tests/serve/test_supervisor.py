"""Supervisor: sharded execution, quotas, and crash recovery parity.

The recovery tests are the heart of the serving contract: killing a
worker mid-stream (by injected ``os._exit`` or a real SIGKILL) must not
change the merged findings feed or any tenant's summary relative to the
uninterrupted run.
"""

import json
import os
import queue
import sys
import threading

import pytest

from repro.errors import ProtocolError, ServeError
from repro.serve.frontdoor import open_replay, replay_sources
from repro.serve.service import run_serve
from repro.serve.shard import ShardOptions
from repro.serve.supervisor import FRAME_EVENTS, Supervisor, TenantFinding
from repro.serve.worker import worker_main

ANALYSES = ("race-prediction", "deadlock-prediction")
SOURCES = ["racy:threads=3,events=60,seed=1",
           "racy:threads=2,events=40,seed=7",
           "deadlock:threads=4,events=50,seed=3"]


def findings_by_tenant(run):
    """Tenant-stable ordering: the parity comparison key (``run`` is a
    ``ServeOutcome`` or a stopped ``Supervisor``)."""
    return {tenant: sorted((f.analysis, f.position, f.finding)
                           for f in run.findings_for(tenant))
            for tenant in sorted(run.summaries)}


def final_documents(outcome):
    return {tenant: json.dumps(outcome.summaries[tenant]["final"],
                               sort_keys=True)
            for tenant in outcome.tenants}


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted single-process reference run."""
    return run_serve(ANALYSES, sources=SOURCES, workers=0, backend=None)


class TestShardedParity:
    def test_two_workers_match_inline(self, baseline):
        sharded = run_serve(ANALYSES, sources=SOURCES, workers=2,
                            backend=None)
        assert sharded.respawns == 0
        assert findings_by_tenant(sharded) == findings_by_tenant(baseline)
        assert final_documents(sharded) == final_documents(baseline)
        assert sharded.events == baseline.events

    def test_merged_feed_attributes_every_tenant(self, baseline):
        assert sorted({f.tenant for f in baseline.findings}) \
            <= baseline.tenants
        assert len(baseline.tenants) == 3


class TestCrashRecovery:
    def test_injected_crash_preserves_findings_parity(self, baseline,
                                                      tmp_path):
        """ISSUE acceptance: kill a worker mid-stream; merged findings
        match the uninterrupted run after checkpoint recovery."""
        crashed = run_serve(ANALYSES, sources=SOURCES, workers=2,
                            backend=None,
                            checkpoint_dir=str(tmp_path),
                            checkpoint_every=16,
                            crash_worker="0@40")
        assert crashed.respawns >= 1, "fault injection never fired"
        assert findings_by_tenant(crashed) == findings_by_tenant(baseline)
        assert final_documents(crashed) == final_documents(baseline)

    def test_sigkill_mid_replay_preserves_findings_parity(self, baseline,
                                                          tmp_path):
        """Same contract under a real SIGKILL aimed with os.kill."""
        supervisor = Supervisor(
            ShardOptions(analyses=ANALYSES, backend=None,
                         checkpoint_dir=str(tmp_path),
                         checkpoint_every=16),
            workers=2)
        supervisor.start()
        killed = []

        def kill_once(tenant, seq):
            if not killed and seq >= 30:
                victim = supervisor._ring.route(tenant)
                os.kill(supervisor.worker_pids[victim], 9)
                killed.append(victim)

        try:
            replay_sources(supervisor, SOURCES, on_sent=kill_once)
            supervisor.drain(timeout=60.0)
        finally:
            supervisor.stop()
        assert killed, "kill hook never fired"
        assert supervisor.respawns >= 1
        assert findings_by_tenant(supervisor) == \
            findings_by_tenant(baseline)

    def test_crash_without_checkpoints_still_recovers(self, baseline):
        """No checkpoint_dir: the journal holds each tenant's WHOLE feed,
        so replay rebuilds engines from scratch -- slower, same answer."""
        crashed = run_serve(ANALYSES, sources=SOURCES, workers=2,
                            backend=None, crash_worker="1@30")
        assert crashed.respawns >= 1
        assert findings_by_tenant(crashed) == findings_by_tenant(baseline)

    def test_respawn_counter_lands_in_telemetry(self, tmp_path):
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(registry):
            with registry.span("serve"):
                outcome = run_serve(
                    ANALYSES, sources=SOURCES, workers=2, backend=None,
                    checkpoint_dir=str(tmp_path), checkpoint_every=16,
                    crash_worker="0@40")
        assert outcome.respawns >= 1
        snapshot = registry.snapshot()
        names = {item["name"] for item in snapshot["counters"]}
        assert "serve_worker_respawn_total" in names
        assert "serve_events_total" in names


class TestFrames:
    """Events reach workers in frames of FRAME_EVENTS; recovery must not
    care where in a frame a worker dies."""

    @pytest.mark.parametrize("spec", ["0@40", "0@64", "0@65"])
    def test_crash_anywhere_in_a_frame_keeps_parity(self, baseline,
                                                    tmp_path, spec):
        """0@40 dies mid-frame, 0@64 on the frame boundary, 0@65 on the
        first event of the next frame."""
        assert FRAME_EVENTS == 64
        crashed = run_serve(ANALYSES, sources=SOURCES, workers=2,
                            backend=None,
                            checkpoint_dir=str(tmp_path),
                            checkpoint_every=16,
                            crash_worker=spec)
        assert crashed.respawns == 1
        assert crashed.errors == []
        assert findings_by_tenant(crashed) == findings_by_tenant(baseline)
        assert crashed.summaries == baseline.summaries

    def test_queue_size_one_sends_every_event_at_once(self, baseline,
                                                      tmp_path):
        supervisor = Supervisor(
            ShardOptions(analyses=ANALYSES, backend=None,
                         checkpoint_dir=str(tmp_path),
                         checkpoint_every=16),
            workers=2, queue_size=1)
        assert supervisor.frame_events == 1
        supervisor.start()
        # Each command queue holds one one-event frame, and nothing waits
        # in the supervisor: at most queue_size events per worker.
        assert [worker.commands._maxsize
                for worker in supervisor._workers] == [1, 1]
        buffered = []

        def in_flight(_tenant, _seq):
            buffered.append(sum(len(worker.frame)
                                for worker in supervisor._workers))

        try:
            replay_sources(supervisor, SOURCES, on_sent=in_flight)
            supervisor.drain(timeout=60.0)
        finally:
            supervisor.stop()
        assert buffered and set(buffered) == {0}
        assert supervisor.errors == []
        assert findings_by_tenant(supervisor) == \
            findings_by_tenant(baseline)
        assert supervisor.summaries == baseline.summaries

    def test_frame_size_and_queue_depth_follow_queue_size(self):
        options = ShardOptions(analyses=ANALYSES)
        assert Supervisor(options, workers=1).frame_events == FRAME_EVENTS
        assert Supervisor(options, workers=1,
                          queue_size=10).frame_events == 10

    def test_worker_answers_each_frame_with_one_message(self):
        """Run the worker loop in-process: one frame in, one results
        message out, holding every finding in order."""
        commands, results = queue.Queue(), queue.Queue()
        lines = ["0|write|variable=str:x|value=int:1",
                 "1|read|variable=str:x",
                 "2|read|variable=str:x"]
        commands.put(("frame", [("t", seq, line, 0.0) for seq, line
                                in enumerate(lines, start=1)]))
        commands.put(("end", "t"))
        commands.put(("stop",))
        worker_main(0, commands, results,
                    ShardOptions(analyses=("c11-races",), backend=None))
        messages = []
        while not results.empty():
            messages.append(results.get())
        assert [message[0] for message in messages] \
            == ["results", "results", "stopped"]
        frame_records, end_records = messages[0][2], messages[1][2]
        assert [record[0] for record in frame_records] \
            == ["finding", "finding"]
        assert [record[2] for record in frame_records] == ["c11-races"] * 2
        assert [record[0] for record in end_records] == ["summary"]
        assert end_records[0][2]["emitted"] == 2

    def test_findings_leave_before_the_checkpoint_that_covers_them(
            self, tmp_path):
        """At every results put, the checkpoint on disk does not yet cover
        the findings in that message: a worker killed right after a save
        must not lose findings that a rebuild from it would never
        re-emit."""
        path = tmp_path / "t.json"
        shipped = []

        class Results(queue.Queue):
            def put(self, message, *args, **kwargs):
                if message[0] == "results":
                    positions = [record[3] for record in message[2]
                                 if record[0] == "finding"]
                    cursor = json.loads(path.read_text())["cursor"] \
                        if path.exists() else 0
                    assert all(position > cursor for position in positions), \
                        (cursor, positions)
                    shipped.extend(positions)
                super().put(message, *args, **kwargs)

        commands, results = queue.Queue(), Results()
        lines = ["0|write|variable=str:x|value=int:1",
                 "1|read|variable=str:x",
                 "2|read|variable=str:x"]
        commands.put(("frame", [("t", seq, line, 0.0) for seq, line
                                in enumerate(lines, start=1)]))
        commands.put(("end", "t"))
        commands.put(("stop",))
        worker_main(0, commands, results,
                    ShardOptions(analyses=("c11-races",), backend=None,
                                 checkpoint_dir=str(tmp_path),
                                 checkpoint_every=2))
        assert shipped == [2, 3]
        assert json.loads(path.read_text())["cursor"] == 3

    def test_partial_frame_waits_for_flush(self):
        supervisor = Supervisor(ShardOptions(analyses=ANALYSES,
                                             backend=None), workers=1)
        supervisor.start()
        try:
            for _ in range(3):
                supervisor.ingest_event("t", "0|read|variable=str:x")
            worker = supervisor._workers[0]
            assert len(worker.frame) == 3
            supervisor.flush()
            assert worker.frame == []
            supervisor.end_tenant("t")
            supervisor.drain(timeout=30.0)
        finally:
            supervisor.stop()
        assert supervisor.summaries["t"]["events"] == 3


class TestConcurrentIngest:
    def test_threads_sharing_frame_buffers_lose_and_reorder_nothing(self):
        """Six ingest threads (one tenant each, started together) share
        three workers' frame buffers and one-frame queues under a tiny
        switch interval: a lost or reordered event would show as a
        sequence-gap tenant error or a summary that differs from the
        inline run."""
        sources = [f"racy:threads=3,events=100,seed={seed}"
                   for seed in range(1, 7)]
        baseline = run_serve(ANALYSES, sources=sources, workers=0,
                             backend=None)
        supervisor = Supervisor(ShardOptions(analyses=ANALYSES,
                                             backend=None),
                                workers=3, queue_size=2)
        failures = []
        start = threading.Barrier(len(sources))

        def feed(tenant, lines):
            lines = list(lines)
            start.wait(timeout=30.0)
            try:
                for line in lines:
                    supervisor.ingest_event(tenant, line)
                supervisor.end_tenant(tenant)
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        supervisor.start()
        try:
            threads = [threading.Thread(target=feed, args=feed_args)
                       for feed_args in open_replay(sources)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            supervisor.drain(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            supervisor.stop()
        assert failures == []
        assert supervisor.errors == []
        assert supervisor.summaries == baseline.summaries
        assert findings_by_tenant(supervisor) == \
            findings_by_tenant(baseline)


#: The backend whose allocation a sparse thread id exhausts (``vc-flat``,
#: the c11-races and race-prediction default, allocates per event and
#: runs these inputs).
CSST = "incremental-csst"


class TestTenantIsolation:
    def test_worker_survives_a_tenant_that_exhausts_memory(self, tmp_path):
        """A thread id of 3,000,000 makes the incremental CSST ask for a
        (2**22)**2 matrix: MemoryError.  It must poison that tenant
        only, not crash-loop the worker and abort the service."""
        bad = tmp_path / "bad.std"
        bad.write_text("0|write|variable=str:x|value=int:1\n"
                       "3000000|read|variable=str:x\n")
        good = tmp_path / "good.std"
        good.write_text("0|write|variable=str:x|value=int:1\n"
                        "1|read|variable=str:x\n")
        outcome = run_serve(("c11-races",), sources=[str(bad), str(good)],
                            workers=1, backend=CSST)
        assert outcome.respawns == 0
        assert outcome.tenants == ["bad", "good"]
        # The bad event fails on feed; the tenant's end reports the poison
        # again.
        assert [tenant for tenant, _ in outcome.errors] == ["bad", "bad"]
        assert "MemoryError" in outcome.errors[0][1]
        assert "MemoryError" in outcome.summaries["bad"]["errors"]["ingest"]
        alone = run_serve(("c11-races",), sources=[str(good)], workers=0,
                          backend=CSST)
        assert outcome.summaries["good"] == alone.summaries["good"]
        assert outcome.findings_for("good") == alone.findings_for("good")

    def test_inline_service_isolates_tenants_like_a_worker(self, tmp_path):
        """``workers=0`` (also multi-source ``repro watch``) must poison
        the failing tenant only, with the same errors, summaries and
        findings as a worker process."""
        bad = tmp_path / "bad.std"
        bad.write_text("0|write|variable=str:x|value=int:1\n"
                       "3000000|read|variable=str:x\n")
        good = tmp_path / "good.std"
        good.write_text("0|write|variable=str:x|value=int:1\n"
                        "1|read|variable=str:x\n")
        outcomes = [run_serve(("c11-races",), sources=[str(bad), str(good)],
                              workers=workers, backend=CSST)
                    for workers in (0, 1)]
        inline, worker = outcomes
        assert inline.errors == worker.errors
        assert [tenant for tenant, _ in inline.errors] == ["bad", "bad"]
        assert inline.summaries == worker.summaries
        assert inline.findings == worker.findings
        assert inline.tenants == ["bad", "good"]

    def test_poisoned_tenant_drops_later_events_alike_inline(self, tmp_path):
        """With a flush per event the bad line fails on feed, so the
        tenant's later events are dropped and each drop reported, then
        its end reports the poison again: the same three errors and
        warnings inline and in a worker."""
        bad = tmp_path / "bad.std"
        bad.write_text("0|write|variable=str:x|value=int:1\n"
                       "3000000|read|variable=str:x\n"
                       "0|read|variable=str:x\n")
        outcomes = []
        for workers in (0, 1):
            notices = []
            outcome = run_serve(
                ("race-prediction",), sources=[str(bad)], workers=workers,
                backend=CSST, flush_every=1,
                on_notice=lambda level, _text: notices.append(level))
            outcomes.append((outcome.errors, outcome.summaries,
                             notices.count("warning")))
        assert outcomes[0] == outcomes[1]
        errors, summaries, warnings = outcomes[0]
        assert [tenant for tenant, _ in errors] == ["bad"] * 3
        assert "MemoryError" in summaries["bad"]["errors"]["ingest"]
        assert warnings == 3


class TestQuotas:
    def test_quota_rejects_excess_events(self):
        with pytest.raises(ProtocolError, match="quota"):
            run_serve(ANALYSES, sources=SOURCES, workers=0, backend=None,
                      quota_events=50)

    def test_quota_rejection_is_counted_and_typed(self):
        supervisor = Supervisor(ShardOptions(analyses=ANALYSES,
                                             backend=None),
                                workers=1, quota_events=3)
        supervisor.start()
        try:
            for seq in range(3):
                supervisor.ingest_event("t", "0|read|variable=str:x")
            with pytest.raises(ProtocolError, match="quota"):
                supervisor.ingest_event("t", "0|read|variable=str:x")
            assert supervisor.rejected == 1
        finally:
            supervisor.stop()


class TestLifecycleValidation:
    def test_ingest_after_end_rejected(self):
        supervisor = Supervisor(ShardOptions(analyses=ANALYSES,
                                             backend=None), workers=1)
        supervisor.start()
        try:
            supervisor.ingest_event("t", "0|read|variable=str:x")
            supervisor.end_tenant("t")
            with pytest.raises(ProtocolError, match="already ended"):
                supervisor.ingest_event("t", "0|read|variable=str:x")
        finally:
            supervisor.stop()

    @pytest.mark.parametrize("spec", ["", "0", "@", "0@", "@5", "x@5",
                                      "0@0", "-1@5", "9@5"])
    def test_malformed_crash_spec_rejected(self, spec):
        with pytest.raises(ServeError):
            Supervisor(ShardOptions(analyses=ANALYSES), workers=2,
                       crash_worker=spec)

    def test_invalid_shape_rejected(self):
        options = ShardOptions(analyses=ANALYSES)
        with pytest.raises(ServeError):
            Supervisor(options, workers=0)
        with pytest.raises(ServeError):
            Supervisor(options, workers=1, queue_size=0)
        with pytest.raises(ServeError):
            Supervisor(options, workers=1, quota_events=0)


class TestTenantFinding:
    def test_watch_line_matches_cli_format(self):
        finding = TenantFinding(tenant="t", analysis="race-prediction",
                                position=42, finding="race on x")
        assert finding.watch_line() == "[    42] race-prediction: race on x"
        assert str(finding) == "t [    42] race-prediction: race on x"
