"""TenantShard: many engines in one process, rebuild-from-feed recovery."""

import pytest

from repro.errors import ProtocolError, ServeError
from repro.serve.shard import ShardOptions, TenantShard
from repro.trace.formats import format_event
from repro.trace.generators import build_trace


def trace_lines(kind="racy", threads=3, events=40, seed=1):
    trace = build_trace(kind, num_threads=threads, events=events, seed=seed)
    return [format_event(event) for event in trace.events]


def feed_all(shard, tenant, lines, start=1):
    for offset, line in enumerate(lines):
        shard.feed_line(tenant, start + offset, line)


@pytest.fixture
def options():
    return ShardOptions(analyses=("race-prediction",), backend=None)


class TestTenancy:
    def test_tenants_are_isolated(self, options):
        emitted = []
        shard = TenantShard(options,
                            on_finding=lambda t, f: emitted.append((t, f)))
        a, b = trace_lines(seed=1), trace_lines(seed=2)
        # Interleave two tenants event by event.
        for index in range(max(len(a), len(b))):
            if index < len(a):
                shard.feed_line("a", index + 1, a[index])
            if index < len(b):
                shard.feed_line("b", index + 1, b[index])
        summary_a = shard.end_tenant("a")
        summary_b = shard.end_tenant("b")
        # Per-tenant summaries match dedicated single-tenant runs.
        solo = TenantShard(options)
        feed_all(solo, "a", a)
        assert solo.end_tenant("a")["final"] == summary_a["final"]
        solo2 = TenantShard(options)
        feed_all(solo2, "b", b)
        assert solo2.end_tenant("b")["final"] == summary_b["final"]
        assert summary_a["events"] == len(a)
        assert summary_b["events"] == len(b)

    def test_summary_matches_watch_summary_document(self, options, tmp_path):
        """The parity contract: a shard's summary is the watch jsonl
        summary for the same feed, field for field."""
        import json

        from repro.api import Session, WatchConfig

        lines = trace_lines(seed=5)
        trace_path = tmp_path / "t.std"
        trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        shard = TenantShard(options)
        feed_all(shard, "t", lines)
        served = shard.end_tenant("t")

        watched = Session().run(
            WatchConfig(source=str(trace_path),
                        analyses=("race-prediction",))).to_dict()
        served["name"] = watched["name"]  # tenant id vs file stem
        assert json.dumps(served, sort_keys=True) \
            == json.dumps(watched, sort_keys=True)

    def test_end_without_events_yields_trivial_summary(self, options):
        shard = TenantShard(options)
        summary = shard.end_tenant("idle")
        assert summary["events"] == 0
        assert summary["emitted"] == 0

    def test_close_ends_every_tenant(self, options):
        shard = TenantShard(options)
        feed_all(shard, "a", trace_lines(seed=1)[:10])
        feed_all(shard, "b", trace_lines(seed=2)[:10])
        summaries = shard.close()
        assert sorted(summaries) == ["a", "b"]
        assert shard.tenants == []

    def test_invalid_tenant_rejected(self, options):
        with pytest.raises(ProtocolError):
            TenantShard(options).feed_line("bad tenant", 1, "0|read|variable=str:x")

    def test_needs_analyses(self):
        with pytest.raises(ServeError, match="at least one analysis"):
            TenantShard(ShardOptions(analyses=()))


class TestSequenceNumbers:
    def test_gap_is_rejected(self, options):
        shard = TenantShard(options)
        lines = trace_lines()
        shard.feed_line("t", 1, lines[0])
        with pytest.raises(ServeError, match="sequence gap"):
            shard.feed_line("t", 3, lines[1])

    def test_repeated_sequence_is_rejected(self, options):
        """A journal replay only ever reaches a fresh shard, which starts
        at sequence 1; a repeat on a live tenant is a broken replay."""
        shard = TenantShard(options)
        lines = trace_lines()
        feed_all(shard, "t", lines[:5])
        with pytest.raises(ServeError, match="sequence gap or repeat"):
            shard.feed_line("t", 5, lines[4])

    def test_non_event_payload_rejected(self, options):
        shard = TenantShard(options)
        with pytest.raises(ProtocolError, match="not an event line"):
            shard.feed_line("t", 1, "# a comment is not an event")


class TestCheckpointRecovery:
    def test_restore_resumes_mid_stream(self, options, tmp_path):
        lines = trace_lines(events=60, seed=3)
        cut = len(lines) // 2
        opts = ShardOptions(analyses=("race-prediction",), backend=None,
                            checkpoint_dir=str(tmp_path),
                            checkpoint_every=10)
        hooked = []
        first = TenantShard(opts, on_checkpoint=hooked.append)
        feed_all(first, "t", lines[:cut])
        assert hooked == ["t"] * (cut // 10), "checkpoint hook never fired"
        # A fresh shard (a respawned worker) restores from the checkpoint
        # and receives the FULL feed replayed from seq 1: the events the
        # checkpoint covers rebuild the engine and emit nothing.
        emitted = []
        second = TenantShard(opts,
                             on_finding=lambda t, f: emitted.append(f))
        cursor = second.ensure_tenant("t").engine.cursor
        assert cursor == cut // 10 * 10
        feed_all(second, "t", lines[:cursor])
        assert emitted == []
        assert not second.ensure_tenant("t").engine.restoring
        feed_all(second, "t", lines[cursor:], start=cursor + 1)
        recovered = second.end_tenant("t")

        solo = TenantShard(ShardOptions(analyses=("race-prediction",),
                                        backend=None))
        feed_all(solo, "t", lines)
        uninterrupted = solo.end_tenant("t")
        assert recovered["final"] == uninterrupted["final"]
        assert recovered["events"] == uninterrupted["events"]

    def test_restore_rejects_unbuildable_backend(self, tmp_path):
        import json

        from repro.errors import CheckpointError

        opts = ShardOptions(analyses=("race-prediction",), backend=None,
                            checkpoint_dir=str(tmp_path))
        shard = TenantShard(opts)
        feed_all(shard, "t", trace_lines()[:10])
        shard.end_tenant("t")
        path = tmp_path / "t.json"
        state = json.loads(path.read_text())
        state["analyses"][0]["backend"] = "vc"
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError, match="'vc'"):
            TenantShard(opts).ensure_tenant("t")

    def test_end_writes_final_checkpoint(self, tmp_path):
        opts = ShardOptions(analyses=("race-prediction",), backend=None,
                            checkpoint_dir=str(tmp_path))
        shard = TenantShard(opts)
        feed_all(shard, "t", trace_lines()[:10])
        shard.end_tenant("t")
        assert (tmp_path / "t.json").exists()

    def test_restore_against_another_feed_is_refused(
            self, tmp_path):
        """A checkpoint rebuilt from a feed whose per-thread counts differ
        raises CheckpointError when the cursor is reached."""
        from repro.errors import CheckpointError

        opts = ShardOptions(analyses=("race-prediction",), backend=None,
                            checkpoint_dir=str(tmp_path),
                            checkpoint_every=10)
        feed_all(TenantShard(opts), "t", trace_lines(threads=3)[:25])
        other = trace_lines(threads=2, seed=4)
        shard = TenantShard(opts)
        with pytest.raises(CheckpointError, match="per-thread counts"):
            feed_all(shard, "t", other[:20])
