"""The service runner: wire front door, supervisor, and results together.

:func:`run_serve` is the one entry point both the CLI handler and
:meth:`repro.api.Session.serve` call.  It deliberately takes plain
parameters and returns a plain :class:`ServeOutcome` -- the ``repro.api``
facade layers its config/result types on top (the dependency points
``api -> serve``, never back).

Two modes:

* **replay** (``sources`` given): replay the sources through the
  supervisor round-robin, drain, stop.  Fully deterministic; this is
  what the parity tests and the CI smoke job run.
* **socket** (``host``/``port`` given): serve the ingest protocol until
  the process is interrupted (or ``stop_after_seconds`` elapses, for
  tests), ending still-active tenants at shutdown.

``workers=0`` runs the *inline* degenerate case: one
:class:`~repro.serve.shard.TenantShard` in-process, no child processes,
no journals -- same routing, same summaries.  Multi-source ``repro
watch`` is exactly this path, which is how the single-source and served
code stay one implementation.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServeError
from repro.serve.frontdoor import replay_sources, serve_socket
from repro.serve.shard import ShardOptions, TenantShard
from repro.serve.supervisor import Supervisor, TenantFinding
from repro.serve.worker import TenantGuard


@dataclass
class ServeOutcome:
    """Plain-data result of one service run."""

    tenants: List[str]
    findings: List[TenantFinding]
    summaries: Dict[str, Dict[str, Any]]
    events: int
    workers: int
    respawns: int
    rejected: int
    errors: List[Tuple[str, str]] = field(default_factory=list)

    def findings_for(self, tenant: str) -> List[TenantFinding]:
        return [item for item in self.findings if item.tenant == tenant]


class _InlineService:
    """The ``workers=0`` path: one shard, no processes, no journals.

    Exposes the supervisor's ingest surface so the front door cannot
    tell the difference, and isolates tenants the way a worker does: a
    failing tenant is poisoned (:class:`~repro.serve.worker.TenantGuard`)
    while the others run on.
    """

    def __init__(self, shard_options: ShardOptions,
                 quota_events: Optional[int],
                 on_finding: Optional[Callable[[TenantFinding], None]],
                 on_notice: Optional[Callable[[str, str], None]]) -> None:
        self.findings: List[TenantFinding] = []
        self.summaries: Dict[str, Dict[str, Any]] = {}
        self.quota_events = quota_events
        self.rejected = 0
        self.respawns = 0
        self.errors: List[Tuple[str, str]] = []
        self._on_finding = on_finding
        self._on_notice = on_notice
        self._seq: Dict[str, int] = {}
        self._ended: Dict[str, bool] = {}

        def emit(tenant: str, item: Any) -> None:
            finding = TenantFinding(tenant=tenant, analysis=item.analysis,
                                    position=item.position,
                                    finding=str(item.finding))
            self.findings.append(finding)
            if on_finding is not None:
                on_finding(finding)

        def error(tenant: str, text: str) -> None:
            self.errors.append((tenant, text))
            if on_notice is not None:
                on_notice("warning", f"tenant {tenant}: {text}")

        self._guard = TenantGuard(
            TenantShard(shard_options, on_finding=emit), on_error=error)

    def ingest_event(self, tenant: str, std_line: str) -> int:
        from repro.errors import ProtocolError

        if self._ended.get(tenant):
            raise ProtocolError(f"tenant {tenant!r} already ended its feed")
        seq = self._seq.get(tenant, 0)
        if self.quota_events is not None and seq >= self.quota_events:
            self.rejected += 1
            raise ProtocolError(
                f"tenant {tenant!r} exceeded its event quota "
                f"({self.quota_events})")
        seq += 1
        self._seq[tenant] = seq
        self._guard.feed(tenant, seq, std_line)
        return seq

    def end_tenant(self, tenant: str) -> None:
        if self._ended.get(tenant):
            return
        self._ended[tenant] = True
        self.summaries[tenant] = self._guard.end(tenant)
        if self._on_notice is not None:
            doc = self.summaries[tenant]
            self._on_notice("info",
                            f"tenant {tenant} done: {doc['events']} "
                            f"events, {doc['emitted']} findings")

    def end_all(self) -> None:
        for tenant in sorted(self._seq):
            self.end_tenant(tenant)

    def flush(self) -> None:  # nothing is buffered: no-op
        pass

    def drain(self, timeout: float = 0.0) -> None:  # synchronous: no-op
        pass

    def stop(self, timeout: float = 0.0) -> None:
        pass


def _build(workers: int, shard_options: ShardOptions,
           queue_size: int, quota_events: Optional[int],
           on_finding, on_notice, crash_worker: Optional[str]):
    if workers == 0:
        if crash_worker is not None:
            raise ServeError(
                "crash_worker requires worker processes (workers >= 1)")
        return _InlineService(shard_options, quota_events, on_finding,
                              on_notice)
    supervisor = Supervisor(shard_options, workers=workers,
                            queue_size=queue_size,
                            quota_events=quota_events,
                            on_finding=on_finding, on_notice=on_notice,
                            crash_worker=crash_worker)
    supervisor.start()
    return supervisor


def run_serve(analyses: Sequence[str],
              *,
              sources: Sequence[str] = (),
              host: Optional[str] = None,
              port: Optional[int] = None,
              workers: int = 2,
              backend: Optional[str] = "auto",
              window: Optional[str] = None,
              flush_every: Optional[int] = None,
              checkpoint_dir: Optional[str] = None,
              checkpoint_every: Optional[int] = None,
              queue_size: int = 256,
              quota_events: Optional[int] = None,
              drain_timeout: float = 60.0,
              crash_worker: Optional[str] = None,
              stop_after_seconds: Optional[float] = None,
              on_finding: Optional[Callable[[TenantFinding], None]] = None,
              on_notice: Optional[Callable[[str, str], None]] = None,
              on_started: Optional[Callable[[Any], None]] = None,
              ) -> ServeOutcome:
    """Run the service once (see module docstring for the two modes).

    ``on_started`` fires after workers are up, with the supervisor (or
    inline service) as argument -- tests use it to grab worker pids and
    schedule kills; the socket mode CLI uses it to print the bound port.
    """
    if bool(sources) == (host is not None or port is not None):
        raise ServeError(
            "serve needs exactly one of: replay sources, or a socket "
            "host/port to listen on")
    if workers < 0:
        raise ServeError(f"workers must be >= 0, got {workers}")
    shard_options = ShardOptions(
        analyses=tuple(analyses),
        backend=backend,
        window=window,
        flush_every=flush_every,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    service = _build(workers, shard_options, queue_size, quota_events,
                     on_finding, on_notice, crash_worker)
    try:
        if on_started is not None:
            on_started(service)
        if sources:
            counts = replay_sources(service, sources)
            service.drain(timeout=drain_timeout)
            events = sum(counts.values())
        else:
            events = _run_socket(service, host or "127.0.0.1",
                                 port if port is not None else 0,
                                 stop_after_seconds, drain_timeout,
                                 on_notice)
    finally:
        service.stop()
    summaries = dict(service.summaries)
    return ServeOutcome(
        tenants=sorted(summaries),
        findings=list(service.findings),
        summaries=summaries,
        events=events,
        workers=workers,
        respawns=service.respawns,
        rejected=service.rejected,
        errors=list(service.errors),
    )


def _run_socket(service, host: str, port: int,
                stop_after_seconds: Optional[float],
                drain_timeout: float,
                on_notice: Optional[Callable[[str, str], None]]) -> int:
    """Socket mode body: listen, serve until interrupted or timed out,
    end active tenants, drain."""

    async def body() -> None:
        server = await serve_socket(service, host, port)
        bound = server.sockets[0].getsockname()
        if on_notice is not None:
            on_notice("info", f"listening on {bound[0]}:{bound[1]}")
        try:
            if stop_after_seconds is not None:
                async with server:
                    await server.start_serving()
                    await asyncio.sleep(stop_after_seconds)
            else:
                async with server:
                    await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - interrupt path
            pass

    try:
        asyncio.run(body())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        if on_notice is not None:
            on_notice("info", "interrupted; draining tenants")
    service.end_all()
    service.drain(timeout=drain_timeout)
    events = 0
    for doc in service.summaries.values():
        events += int(doc.get("events", 0))
    return events
