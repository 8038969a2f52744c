"""TenantShard: many engines in one process, sequence-skip recovery."""

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

    def test_replayed_sequences_are_skipped_without_duplicates(self,
                                                              options):
        emitted = []
        shard = TenantShard(options,
                            on_finding=lambda t, f: emitted.append(f))
        lines = trace_lines()
        feed_all(shard, "t", lines)
        count = len(emitted)
        # A journal replay re-delivers everything; consumed sequence
        # numbers are dropped unparsed.
        for offset, line in enumerate(lines):
            assert shard.feed_line("t", offset + 1, line) is False
        assert len(emitted) == count
        assert shard.end_tenant("t")["events"] == len(lines)

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
        acked = []
        first = TenantShard(opts, on_checkpoint=lambda t, c:
                            acked.append((t, c)))
        feed_all(first, "t", lines[:cut])
        assert acked, "periodic checkpoints never acked"
        # A fresh shard (a respawned worker) restores from the checkpoint
        # and receives the FULL feed replayed from seq 1.
        emitted = []
        second = TenantShard(opts,
                             on_finding=lambda t, f: emitted.append(f))
        consumed = [second.feed_line("t", offset + 1, line)
                    for offset, line in enumerate(lines)]
        assert not all(consumed), "no replayed line was skip-deduplicated"
        assert consumed[-1] is True
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
