"""Front door: tenant naming, replay interleave, and the real socket."""

import threading
import time

import pytest

from repro.serve.frontdoor import (
    ERROR_PREFIX,
    open_replay,
    replay_lines,
    send_lines,
    tenant_for_source,
)
from repro.serve.protocol import BYE_LINE, parse_line
from repro.serve.service import run_serve

SOURCES = ["racy:threads=3,events=60,seed=1",
           "racy:threads=2,events=40,seed=7"]
ANALYSES = ("race-prediction",)


class TestTenantForSource:
    def test_clean_names_pass_through(self):
        assert tenant_for_source("trace-1") == "trace-1"

    def test_illegal_characters_mapped(self):
        assert tenant_for_source("my trace (v2)") == "my-trace--v2"

    def test_collisions_get_suffixes(self):
        first = tenant_for_source("t")
        second = tenant_for_source("t", taken=[first])
        third = tenant_for_source("t", taken=[first, second])
        assert (first, second, third) == ("t", "t-2", "t-3")

    def test_degenerate_names_fall_back(self):
        assert tenant_for_source("///") == "tenant"


class TestReplayShape:
    def test_open_replay_names_one_tenant_per_source(self):
        feeds = open_replay(SOURCES)
        assert [tenant for tenant, _ in feeds] \
            == ["racy-t3-n60-s1", "racy-t2-n40-s7"]

    def test_replay_lines_interleave_and_terminate(self):
        lines = list(replay_lines(SOURCES))
        assert lines[-1] == BYE_LINE
        kinds = [parse_line(line)[0] for line in lines]
        assert kinds.count("end") == 2
        # Round-robin: the first two events belong to different tenants.
        tenants = [parse_line(line)[1] for line in lines[:2]]
        assert len(set(tenants)) == 2
        # The shorter source drains (and ends) first, mid-stream.
        first_end = kinds.index("end")
        assert parse_line(lines[first_end])[1] == "racy-t2-n40-s7"
        assert "event" in kinds[first_end:]


class TestSocket:
    def run_server(self, **kwargs):
        """Run socket-mode serve in a thread; return (thread, state)."""
        state = {}

        def notice(kind, message):
            if "listening on" in message:
                state["port"] = int(message.rsplit(":", 1)[1])

        def body():
            state["outcome"] = run_serve(
                kwargs.pop("analyses", ANALYSES), host="127.0.0.1", port=0,
                backend=None,
                stop_after_seconds=kwargs.pop("stop_after", 2.0),
                on_notice=notice, **kwargs)

        thread = threading.Thread(target=body, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        while "port" not in state:
            assert time.monotonic() < deadline, "server never bound"
            time.sleep(0.02)
        return thread, state

    def test_socket_replay_matches_inline(self):
        thread, state = self.run_server(workers=1)
        responses = send_lines("127.0.0.1", state["port"],
                               replay_lines(SOURCES))
        thread.join(timeout=30.0)
        assert responses == []
        outcome = state["outcome"]
        baseline = run_serve(ANALYSES, sources=SOURCES, workers=0,
                             backend=None)
        assert outcome.tenants == baseline.tenants
        key = lambda o: {t: sorted((f.analysis, f.position, f.finding)
                                   for f in o.findings_for(t))
                         for t in o.tenants}
        assert key(outcome) == key(baseline)

    def test_protocol_errors_reported_not_fatal(self):
        thread, state = self.run_server(workers=1, stop_after=2.0)
        lines = ["not-an-ingest-line",
                 "t1|0|read|variable=str:x",
                 "#frobnicate",
                 "t1|0|read|variable=str:x",  # still accepted after two rejects
                 "#end|t1",
                 BYE_LINE]
        responses = send_lines("127.0.0.1", state["port"], lines)
        thread.join(timeout=30.0)
        assert len(responses) == 2
        assert all(r.startswith(ERROR_PREFIX) for r in responses)
        outcome = state["outcome"]
        assert outcome.summaries["t1"]["events"] == 2

    def test_errors_come_back_in_line_order(self):
        """Lines rejected while parsing and lines the supervisor rejects
        are answered in the order they were sent."""
        thread, state = self.run_server(workers=1, stop_after=2.0,
                                        quota_events=1)
        lines = ["t1|0|read|variable=str:x",
                 "t1|0|read|variable=str:x",   # over quota
                 "not-an-ingest-line",
                 "t1|0|read|variable=str:x",   # over quota
                 "#frobnicate",
                 "#end|t1",
                 "t1|0|read|variable=str:x",   # after #end
                 BYE_LINE]
        responses = send_lines("127.0.0.1", state["port"], lines)
        thread.join(timeout=30.0)
        assert [response.split("|", 2)[2].split(" ", 1)[0]
                for response in responses] \
            == ["tenant", "malformed", "tenant", "unknown", "tenant"]
        assert "quota" in responses[0] and "quota" in responses[2]
        assert "already ended" in responses[4]

    def test_finding_arrives_without_end_or_bye(self):
        """No latency traded for throughput: with the connection still
        open and no #end, the partial frame is flushed once the front
        door's input runs dry, so the finding reaches on_finding."""
        import socket

        found = threading.Event()
        thread, state = self.run_server(
            workers=1, stop_after=4.0, analyses=("c11-races",),
            on_finding=lambda item: found.set())
        with socket.create_connection(("127.0.0.1", state["port"]),
                                      timeout=10.0) as sock:
            sock.sendall(b"t1|0|write|variable=str:x|value=int:1\n"
                         b"t1|1|read|variable=str:x\n")
            assert found.wait(timeout=3.0), "finding held back"
        thread.join(timeout=30.0)
        assert state["outcome"].findings_for("t1")

    def test_unterminated_line_is_bounded(self):
        import socket

        thread, state = self.run_server(workers=0, stop_after=2.0)
        with socket.create_connection(("127.0.0.1", state["port"]),
                                      timeout=10.0) as sock:
            sock.sendall(b"t1|" + b"x" * 100_000)
            replies = sock.makefile("r", encoding="utf-8").read()
        thread.join(timeout=30.0)
        assert replies.startswith(ERROR_PREFIX + "?|line exceeds")
        assert replies.count("\n") == 1

    def test_quota_rejections_reach_the_client(self):
        thread, state = self.run_server(workers=1, stop_after=2.0,
                                        quota_events=2)
        lines = ["t1|0|read|variable=str:x"] * 4 + ["#end|t1", BYE_LINE]
        responses = send_lines("127.0.0.1", state["port"], lines)
        thread.join(timeout=30.0)
        assert len(responses) == 2
        assert all("quota" in r for r in responses)
        assert state["outcome"].rejected == 2


class TestModeValidation:
    def test_needs_exactly_one_mode(self):
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="exactly one"):
            run_serve(ANALYSES, workers=0)
        with pytest.raises(ServeError, match="exactly one"):
            run_serve(ANALYSES, sources=SOURCES, host="127.0.0.1",
                      port=0, workers=0)

    def test_crash_injection_needs_workers(self):
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="crash_worker"):
            run_serve(ANALYSES, sources=SOURCES, workers=0,
                      crash_worker="0@5")
