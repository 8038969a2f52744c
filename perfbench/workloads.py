"""The four workloads: reference computation, measured loop, checks.

Each workload is a class with two steps:

* ``prepare()`` -- untimed: compute the reference answers once per
  invocation (a second backend, a batch run, or an inline service run);
* ``measure(seconds, between)`` -- drive the public entry point in whole
  passes over the inputs until ``seconds`` of wall time are spent,
  checking every output against the reference and calling ``between``
  (if given) between passes, outside every timed operation.  Returns a
  :class:`Measured`.

A workload knows nothing about tracing; the caller installs the layer
wrappers (:mod:`perfbench.layers`) around ``measure`` when asked to.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import inputs as spec
from perfbench.common import (BenchError, ROOT, SERVE_SPEED_EXPONENT,
                              ScaledTimes, child_env, cpu_seconds, median)


@dataclass
class Measured:
    """What one measured loop saw."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    events: int = 0
    #: The events per second and the milliseconds per operation the run
    #: reports (``events_per_s`` and ``latency_p50_ms``).
    rate: float = 0.0
    latency_ms: float = 0.0
    #: Every operation's time, for the report's tail percentile.
    latencies_ms: List[float] = field(default_factory=list)
    passes: int = 0
    wall_s: float = 0.0          #: wall time of the measured region
    #: Cost of one unit of work, compared traced vs untraced for the
    #: trace-overhead ratio (seconds per pass; CPU seconds per event on
    #: the open-loop workload).
    unit_cost: float = 0.0
    serve_wall_s: float = 0.0
    backpressure_waits: float = 0.0
    merged_findings: int = 0
    emitted_findings: int = 0
    generator_lag_ms: List[float] = field(default_factory=list)
    #: Workload-specific end-to-end figures for the human report.
    report: Dict[str, float] = field(default_factory=dict)
    #: Raw per-layer stats of a traced server child (serve-paced).
    child_layers: Optional[Dict[str, Any]] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


def _findings(raw) -> List[str]:
    return sorted(str(finding) for finding in raw.findings)


def _answer(analysis: str, raw) -> Tuple[Any, ...]:
    """What an analyze call must reproduce: its findings, and for
    linearizability also the verdict and search steps (a ``linearizable``
    and an ``unknown`` verdict both come with no findings)."""
    if analysis == "linearizability":
        return (_findings(raw), raw.details["verdict"],
                raw.details["steps"])
    return (_findings(raw),)


def _tenant_findings(outcome, tenant: str) -> List[Tuple[str, int, str]]:
    return sorted((item.analysis, item.position, item.finding)
                  for item in outcome.findings_for(tenant))


def _typical(out: Measured, events: Dict[Any, int],
             times: Dict[Any, List[float]]) -> Dict[Any, float]:
    """Set the run's figures from each operation's median repeat: the
    events per second of a pass made of those, and their median.  A
    burst of load from outside slows some repeats of an operation, not
    its median.  Returns the median time per operation."""
    typical = {key: median(samples) for key, samples in times.items()}
    if not typical:               # every operation failed
        return typical
    out.rate = sum(events[key] for key in typical) / sum(typical.values())
    out.latency_ms = median(list(typical.values())) * 1000.0
    return typical


def _scaled(out: Measured, clock: ScaledTimes) -> Dict[Any, List[float]]:
    """The loop's operation times scaled to the reference host speed;
    every one of them also goes into ``out.latencies_ms``."""
    times = clock.times()
    out.latencies_ms = [seconds * 1000.0 for samples in times.values()
                        for seconds in samples]
    out.report["host_speed"] = clock.speed()
    return times


def _without_name(summary: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in summary.items() if key != "name"}


# --------------------------------------------------------------------------- #
# analyze
# --------------------------------------------------------------------------- #
class AnalyzeWorkload:
    """Closed loop over ``Session.analyze``, one call at a time."""

    name = "analyze"

    def __init__(self, generated: spec.Inputs, session_factory,
                 directory: str) -> None:
        from repro.api import AnalyzeConfig

        self.inputs = generated
        self.session_factory = session_factory
        self.plan = []
        for analysis in spec.ANALYZE_CORPUS:
            params = spec.ANALYZE_PARAMS.get(analysis, ())
            for path in generated.files[analysis]:
                self.plan.append((analysis, path, AnalyzeConfig(
                    analysis=analysis, trace=path, params=params)))
        self.reference: Dict[Tuple[str, str], Tuple[Any, ...]] = {}
        #: Histories whose reference search hit the step bound.
        self.unknown = 0

    def prepare(self) -> None:
        from repro.api import AnalyzeConfig

        session = self.session_factory()
        for analysis, path, config in self.plan:
            raw = session.analyze(AnalyzeConfig(
                analysis=analysis, trace=path, params=config.params,
                backend=spec.REFERENCE_BACKEND[analysis])).raw
            self.reference[(analysis, path)] = _answer(analysis, raw)
            if raw.details.get("verdict") == "unknown":
                self.unknown += 1

    def measure(self, seconds: float,
                between: Optional[Callable[[], None]] = None) -> Measured:
        from repro.errors import ReproError

        session = self.session_factory()
        out = Measured()
        clock = ScaledTimes()
        start = time.perf_counter()
        while True:
            for analysis, path, config in self.plan:
                out.attempted += 1
                clock.calibrate()
                began = time.process_time()
                try:
                    raw = session.run(config).raw
                except ReproError as error:
                    out.fail(f"{analysis} {path}: {error}")
                    continue
                clock.record((analysis, path), time.process_time() - began)
                if _answer(analysis, raw) != self.reference[(analysis, path)]:
                    out.fail(f"{analysis} {path}: result differs from "
                             f"{spec.REFERENCE_BACKEND[analysis]}")
                out.events += self.inputs.events[path]
            out.passes += 1
            if between is not None:
                between()
            if time.perf_counter() - start >= seconds:
                break
        out.wall_s = time.perf_counter() - start
        out.unit_cost = out.wall_s / out.passes
        times = _scaled(out, clock)
        typical = _typical(out, {key: self.inputs.events[key[1]]
                                 for key in times}, times)
        for analysis in spec.ANALYZE_CORPUS:
            calls = [call_s for key, call_s in typical.items()
                     if key[0] == analysis]
            if calls:
                out.report[f"analyze_s.{analysis}"] = sum(calls) / len(calls)
        out.report["analyze_events_per_s"] = out.rate
        out.report["linearizability_unknown_files"] = self.unknown
        return out


# --------------------------------------------------------------------------- #
# watch
# --------------------------------------------------------------------------- #
class WatchWorkload:
    """Closed loop over ``Session.watch``, one stream at a time."""

    name = "watch"

    def __init__(self, generated: spec.Inputs, session_factory,
                 directory: str) -> None:
        self.inputs = generated
        self.session_factory = session_factory
        self.checkpoint = os.path.join(directory, "watch-checkpoint.json")
        self.reference: Dict[Tuple[str, str], List[str]] = {}

    def _config(self, path: str):
        from repro.api import WatchConfig

        return WatchConfig(source=path, analyses=spec.WATCH_ANALYSES,
                           flush_every=spec.WATCH_FLUSH_EVERY,
                           checkpoint=self.checkpoint,
                           checkpoint_every=spec.WATCH_CHECKPOINT_EVERY)

    def prepare(self) -> None:
        from repro.api import AnalyzeConfig

        session = self.session_factory()
        for path in self.inputs.files["watch"]:
            for analysis in spec.WATCH_ANALYSES:
                raw = session.analyze(AnalyzeConfig(analysis=analysis,
                                                    trace=path)).raw
                self.reference[(analysis, path)] = _findings(raw)

    def measure(self, seconds: float,
                between: Optional[Callable[[], None]] = None) -> Measured:
        from repro.errors import ReproError

        session = self.session_factory()
        out = Measured()
        configs = [(path, self._config(path))
                   for path in self.inputs.files["watch"]]
        clock = ScaledTimes()
        events: Dict[str, int] = {}
        start = time.perf_counter()
        while True:
            for path, config in configs:
                if os.path.exists(self.checkpoint):
                    os.remove(self.checkpoint)  # a leftover would resume
                out.attempted += 1
                clock.calibrate()
                began = time.process_time()
                try:
                    result = session.run(config)
                except ReproError as error:
                    out.fail(f"watch {path}: {error}")
                    continue
                clock.record(path, time.process_time() - began)
                stream = result.stream
                if stream.errors:
                    out.fail(f"watch {path}: {stream.errors}")
                for analysis in spec.WATCH_ANALYSES:
                    final = sorted(str(item) for item in
                                   stream.final_findings_for(analysis))
                    if final != self.reference[(analysis, path)]:
                        out.fail(f"watch {path}: {analysis} final flush "
                                 f"differs from batch analyze")
                out.events += stream.stats.events
                events[path] = stream.stats.events
            out.passes += 1
            if between is not None:
                between()
            if time.perf_counter() - start >= seconds:
                break
        out.wall_s = time.perf_counter() - start
        out.unit_cost = out.wall_s / out.passes
        _typical(out, events, _scaled(out, clock))
        out.report["watch_events_per_s"] = out.rate
        return out


# --------------------------------------------------------------------------- #
# serve-saturate
# --------------------------------------------------------------------------- #
class SaturateWorkload:
    """Closed loop through backpressure: ``Session.serve`` replaying the
    tenant streams into one worker process, one replay at a time.

    Its figures are taken over the CPU seconds of the supervisor and the
    worker, not wall time: the two processes need both cores of a 2-vCPU
    host, so CPU taken by other tenants of the host stalls the pipeline
    and moved the wall-clock rate by a quarter between two sets of runs
    of the same code.  They are scaled to the reference host speed by the
    run's median calibration sample (``SERVE_SPEED_EXPONENT``).  The
    wall-clock and unscaled CPU medians go into the report."""

    name = "serve-saturate"

    def __init__(self, generated: spec.Inputs, session_factory,
                 directory: str) -> None:
        self.inputs = generated
        self.session_factory = session_factory
        self.sources = tuple(generated.files["tenant"])
        self.reference = None

    def _config(self, workers: int):
        from repro.api import ServeConfig

        return ServeConfig(analyses=spec.SERVE_ANALYSES,
                           sources=self.sources, workers=workers)

    def prepare(self) -> None:
        self.reference = self.session_factory().serve(
            self._config(workers=0)).outcome

    def measure(self, seconds: float,
                between: Optional[Callable[[], None]] = None) -> Measured:
        from repro.errors import ReproError

        session = self.session_factory()
        config = self._config(workers=1)
        out = Measured()
        clock = ScaledTimes(SERVE_SPEED_EXPONENT, window=None)
        costs: List[float] = []
        wall_rates: List[float] = []
        wall_ms: List[float] = []
        start = time.perf_counter()
        while True:
            marks: Dict[str, float] = {}

            def notice(kind: str, message: str) -> None:
                now = time.perf_counter()
                if " -> worker " in message:
                    marks.setdefault("first", now)
                elif " done: " in message:
                    marks["last"] = now

            out.attempted += 1
            out.passes += 1
            if between is not None and costs:
                between()
            clock.calibrate()
            began, cpu = time.perf_counter(), cpu_seconds()
            try:
                outcome = session.run(config, on_notice=notice).outcome
            except ReproError as error:
                out.fail(f"serve: {error}")
            else:
                elapsed = time.perf_counter() - began
                # The worker has been joined, so its CPU time is counted.
                cost = cpu_seconds() - cpu
                clock.record("replay", cost)
                self._check(outcome, out)
                busy = marks["last"] - marks["first"]
                out.events += outcome.events
                costs.append(cost)
                wall_rates.append(outcome.events / busy)
                wall_ms.append(elapsed * 1000.0)
                out.serve_wall_s += elapsed
            if time.perf_counter() - start >= seconds:
                break
        out.wall_s = time.perf_counter() - start
        out.unit_cost = out.wall_s / out.passes
        times = _scaled(out, clock)
        if costs:
            replay_events = out.events // len(costs)
            _typical(out, {"replay": replay_events}, times)
            out.report["serve_cpu_events_per_s"] = \
                replay_events / median(costs)
        out.report["serve_events_per_s"] = median(wall_rates)
        out.report["serve_replay_wall_ms"] = median(wall_ms)
        return out

    def _check(self, outcome, out: Measured) -> None:
        reference = self.reference
        if outcome.errors or outcome.rejected:
            out.fail(f"serve: errors {outcome.errors}, "
                     f"rejected {outcome.rejected}")
        for tenant in reference.tenants:
            if _tenant_findings(outcome, tenant) != \
                    _tenant_findings(reference, tenant) or \
                    outcome.summaries.get(tenant) != \
                    reference.summaries[tenant]:
                out.fail(f"serve: tenant {tenant} differs from the "
                         f"inline run")
        out.merged_findings += len(outcome.findings)
        out.emitted_findings += sum(doc["emitted"] for doc in
                                    outcome.summaries.values())


# --------------------------------------------------------------------------- #
# serve-paced
# --------------------------------------------------------------------------- #
@dataclass
class _Line:
    due: float                 #: seconds after the schedule's start
    text: str
    tenant: str
    position: int              #: 1-based event count of the tenant; 0 = #end


class PacedWorkload:
    """Open loop: one client connection offering events at a fixed rate
    to ``run_serve`` in socket mode (a separate server process with one
    worker), as a stream of short staggered tenant sessions."""

    name = "serve-paced"

    def __init__(self, generated: spec.Inputs, session_factory,
                 directory: str) -> None:
        self.inputs = generated
        self.session_factory = session_factory
        self.pool = list(generated.files["session"])
        self.lines: List[List[str]] = []
        self.reference: List[Tuple[List[Tuple[str, int, str]],
                                   Dict[str, Any]]] = []

    def prepare(self) -> None:
        from repro.api import ServeConfig
        from repro.trace import read_trace
        from repro.trace.formats import format_event

        outcome = self.session_factory().serve(ServeConfig(
            analyses=spec.SERVE_ANALYSES, sources=tuple(self.pool),
            workers=0)).outcome
        # Replay tenants are named after the files, in pool order.
        for tenant, path in zip(sorted(outcome.tenants,
                                       key=lambda name: int(
                                           name.rsplit("-", 1)[1])),
                                self.pool):
            self.reference.append((_tenant_findings(outcome, tenant),
                                   _without_name(outcome.summaries[tenant])))
            self.lines.append([format_event(event)
                               for event in read_trace(path)])

    def schedule(self, seconds: float) -> Tuple[List[_Line], Dict[str, int]]:
        """Due times of every wire line: ``PACED_LIVE`` slots, each
        running whole sessions back to back at ``rate / PACED_LIVE``
        events per second, slot ``k`` starting ``k / PACED_LIVE`` of a
        session late.  Returns the lines and each tenant's pool index."""
        from repro.serve.protocol import format_end, format_event_line

        per_slot = spec.PACED_RATE / spec.PACED_LIVE
        # Room for every slot's first session, however short the run.
        seconds = max(seconds, 2 * max(map(len, self.lines)) / per_slot)
        out: List[_Line] = []
        tenants: Dict[str, int] = {}
        for slot in range(spec.PACED_LIVE):
            first = self.lines[slot % len(self.lines)]
            clock = slot * len(first) / per_slot / spec.PACED_LIVE
            number = 0
            while True:
                index = (slot + number * spec.PACED_LIVE) % len(self.lines)
                lines = self.lines[index]
                if clock + len(lines) / per_slot > seconds:
                    break
                tenant = f"s{slot}-{number}"
                tenants[tenant] = index
                for position, line in enumerate(lines, start=1):
                    clock += 1.0 / per_slot
                    out.append(_Line(clock, format_event_line(tenant, line),
                                     tenant, position))
                out.append(_Line(clock, format_end(tenant), tenant, 0))
                number += 1
        out.sort(key=lambda line: line.due)
        return out, tenants

    def measure(self, seconds: float, trace: bool = False,
                between: Optional[Callable[[], None]] = None) -> Measured:
        lines, tenants = self.schedule(seconds)
        out = Measured()
        server = subprocess.Popen(
            [sys.executable, "-m", "perfbench.serve_child",
             "--trace", "1" if trace else "0"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        try:
            port = int(server.stdout.readline().split()[-1])
            start, lags = self._send(port, lines, out)
            server.send_signal(signal.SIGINT)
            try:
                text, _ = server.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                raise BenchError("serve-paced: the server did not shut "
                                 "down within 60 s") from None
            document = json.loads(text)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        self._check(document, lines, tenants, start, out)
        out.generator_lag_ms = lags
        out.child_layers = document.get("layers")
        return out

    def _send(self, port: int, lines: List[_Line],
              out: Measured) -> Tuple[float, List[float]]:
        lags: List[float] = []
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=60) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            start = time.monotonic() + 0.2
            index = 0
            while index < len(lines):
                now = time.monotonic()
                wait = start + lines[index].due - now
                if wait > 0:
                    time.sleep(wait)
                    now = time.monotonic()
                batch = []
                while index < len(lines) and \
                        start + lines[index].due <= now:
                    line = lines[index]
                    lags.append((now - start - line.due) * 1000.0)
                    batch.append(line.text)
                    if line.position:
                        out.attempted += 1
                    index += 1
                sock.sendall(("\n".join(batch) + "\n").encode("utf-8"))
            sock.sendall(b"#bye\n")
            sock.shutdown(socket.SHUT_WR)
            replies = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                replies += chunk
        for reply in replies.decode("utf-8").splitlines():
            if reply.startswith("#error|"):
                out.fail(f"serve-paced: {reply}")
        return start, lags

    def _check(self, document: Dict[str, Any], lines: List[_Line],
               tenants: Dict[str, int], start: float,
               out: Measured) -> None:
        due: Dict[Tuple[str, int], float] = {
            (line.tenant, line.position): start + line.due
            for line in lines if line.position}
        found: Dict[str, List[Tuple[str, int, str]]] = {}
        for tenant, analysis, position, text, stamp in document["findings"]:
            found.setdefault(tenant, []).append((analysis, position, text))
            out.latencies_ms.append(
                (stamp - due[(tenant, position)]) * 1000.0)
        for tenant, text in document["errors"]:
            out.fail(f"serve-paced: tenant {tenant}: {text}")
        summaries = document["summaries"]
        for tenant, index in sorted(tenants.items()):
            findings, summary = self.reference[index]
            if sorted(found.get(tenant, [])) != findings or \
                    _without_name(summaries.get(tenant, {})) != summary:
                out.fail(f"serve-paced: tenant {tenant} differs from the "
                         f"inline run")
        out.events = sum(1 for line in lines if line.position)
        first_due = start + lines[0].due
        out.wall_s = document["last_summary"] - first_due
        out.rate = out.events / out.wall_s
        out.latency_ms = median(out.latencies_ms)
        out.serve_wall_s = out.wall_s
        out.passes = 1
        out.unit_cost = document["cpu_s"] / out.events
        out.merged_findings = len(document["findings"])
        out.emitted_findings = sum(doc["emitted"]
                                   for doc in summaries.values())
        out.backpressure_waits = document.get("backpressure_waits", 0.0)
        out.report["serve_offered_events_per_s"] = spec.PACED_RATE


WORKLOADS = {
    "analyze": AnalyzeWorkload,
    "watch": WatchWorkload,
    "serve-saturate": SaturateWorkload,
    "serve-paced": PacedWorkload,
}
