"""The supervisor: worker lifecycle, journals, quotas, crash recovery.

One :class:`Supervisor` owns N worker processes (fork-spawned, each
running :func:`repro.serve.worker.worker_main`), a consistent-hash ring
pinning every tenant to one worker, and a collector thread draining the
shared results queue into the merged findings feed.

**Frames.**  Events travel to a worker in *frames*: one command-queue
message carrying up to :data:`FRAME_EVENTS` ``(tenant, seq, line,
enqueued_at)`` items.  Accepted events collect in a per-worker buffer
that is queued as a frame when it fills, before any ``end`` or ``stop``
for that worker, in :meth:`Supervisor.drain` and on
:meth:`Supervisor.flush` (which the socket front door calls whenever
its input runs dry, so a partial frame never waits for more input).
Workers answer with one results message per frame.

**Delivery and recovery model.**  Every accepted event gets a per-tenant
sequence number and is appended to that tenant's *journal* before it is
buffered for the worker.  The journal is the tenant's one event history:
it is never trimmed, and it is freed when the tenant's summary arrives.
When a worker dies (detected by a liveness check before each frame is
queued and during drain), the supervisor abandons its command queue and
its frame buffer (anything in them is a subset of the journals), spawns
a fresh process on a fresh queue, and replays the journal of every
tenant routed to that worker from sequence 1, in frames.  The worker's
shard restores each tenant from its last checkpoint, if any, and
rebuilds it from the first ``cursor`` replayed events, which emit
nothing; findings re-emitted for post-checkpoint events are
deduplicated here by ``(tenant, analysis, position, text)`` -- positions
are deterministic cursor counts, so a re-discovered finding collides
exactly with its first emission.

**Backpressure.**  Worker command queues are bounded so that at most
``queue_size`` events wait in frames per worker (the frame size is
``min(FRAME_EVENTS, queue_size)``); when one is full the ingest call
that fills a frame blocks (counting ``serve_backpressure_waits_total``),
which in turn stalls the socket reader coroutine -- pushback reaches the
client's TCP window instead of growing a buffer.

Aggregation is asynchronous end to end -- per-worker findings merge
through the collector as they arrive and telemetry snapshots merge at
shutdown, with no global barrier while streams are live (the
proxy-mediated reduction idiom, cf. Tascade)."""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ProtocolError, ServeError
from repro.obs import metrics as obs_metrics
from repro.serve.routing import HashRing
from repro.serve.shard import ShardOptions
from repro.serve.worker import worker_main

#: How many times one worker slot may be respawned before the service
#: gives up (a crash *loop* is a bug, not an outage to ride out).
RESPAWN_LIMIT = 3

#: Seconds between liveness polls while draining.
DRAIN_POLL_SECONDS = 0.02

#: Most events one frame (one command-queue message) carries.
FRAME_EVENTS = 64

#: One frame item: ``(tenant, seq, std_line, enqueued_at)``.
FrameItem = Tuple[str, int, str, float]


@dataclass(frozen=True)
class TenantFinding:
    """One finding of the merged feed, attributed to its tenant."""

    tenant: str
    analysis: str
    position: int
    finding: str  #: ``str(finding)`` -- findings cross process as text

    def watch_line(self) -> str:
        """The exact line single-source ``repro watch`` prints for this
        finding (the per-tenant parity form)."""
        return f"[{self.position:>6d}] {self.analysis}: {self.finding}"

    def __str__(self) -> str:
        return f"{self.tenant} {self.watch_line()}"


@dataclass
class _Worker:
    """One worker slot (the process may be respawned in place)."""

    index: int
    process: Any = None
    commands: Any = None
    respawns: int = 0
    crash_after: Optional[int] = None  #: fault injection, first spawn only
    #: Accepted events not yet queued (guarded by the supervisor lock).
    frame: List[FrameItem] = field(default_factory=list)
    #: Held while queueing, so frames and commands leave in buffer order
    #: and a respawn's replay cannot interleave with a send.
    sending: Any = field(default_factory=threading.RLock)


class Supervisor:
    """Shard tenants across worker processes (see module docstring).

    ``on_finding`` receives each merged-feed :class:`TenantFinding` as it
    arrives (deduplicated); ``on_notice`` receives ``(kind, message)``
    progress/diagnostic lines like the watch hook does.
    """

    def __init__(self, shard_options: ShardOptions, workers: int = 2,
                 *, queue_size: int = 256,
                 quota_events: Optional[int] = None,
                 on_finding: Optional[Callable[[TenantFinding], None]] = None,
                 on_notice: Optional[Callable[[str, str], None]] = None,
                 crash_worker: Optional[str] = None) -> None:
        if workers < 1:
            raise ServeError(f"supervisor needs >= 1 worker, got {workers}")
        if queue_size < 1:
            raise ServeError(f"queue_size must be >= 1, got {queue_size}")
        if quota_events is not None and quota_events < 1:
            raise ServeError(
                f"quota_events must be >= 1, got {quota_events}")
        self.shard_options = shard_options
        self.worker_count = workers
        self.queue_size = queue_size
        self.frame_events = min(FRAME_EVENTS, queue_size)
        self.quota_events = quota_events
        self.on_finding = on_finding
        self.on_notice = on_notice
        self._crash_spec = self._parse_crash(crash_worker, workers)
        self._ring = HashRing(workers)
        self._context = multiprocessing.get_context("fork")
        self._lock = threading.RLock()
        self._workers: List[_Worker] = []
        self._results = None
        self._collector: Optional[threading.Thread] = None
        self._closing = False
        self._started = False
        # Tenant state, all guarded by _lock.
        self._state: Dict[str, str] = {}  # active | ending | done
        self._seq: Dict[str, int] = {}
        #: Each tenant's accepted lines; line ``i`` has sequence ``i + 1``.
        self._journal: Dict[str, List[str]] = {}
        self._owner: Dict[str, _Worker] = {}  #: the ring's pick, cached
        self._summaries: Dict[str, Dict[str, Any]] = {}
        self._errors: List[Tuple[str, str]] = []
        self._seen_findings: Set[Tuple[str, str, int, str]] = set()
        self.findings: List[TenantFinding] = []
        self.respawns = 0
        self.rejected = 0
        self._snapshots: Dict[int, Dict[str, Any]] = {}
        self._stopped: Set[int] = set()
        # Telemetry binds at construction like the engine.
        self._registry = obs_metrics.ACTIVE

    @staticmethod
    def _parse_crash(spec: Optional[str], workers: int
                     ) -> Optional[Tuple[int, int]]:
        """Parse ``INDEX@EVENTS`` fault-injection spec."""
        if spec is None:
            return None
        index_text, separator, events_text = str(spec).partition("@")
        try:
            index, events = int(index_text), int(events_text)
            if not separator or index < 0 or events < 1:
                raise ValueError
        except ValueError:
            raise ServeError(
                f"malformed crash_worker spec {spec!r}: expected "
                f"INDEX@EVENTS (e.g. 0@40)") from None
        if index >= workers:
            raise ServeError(
                f"crash_worker index {index} out of range "
                f"(workers: {workers})")
        return (index, events)

    def _notice(self, kind: str, message: str) -> None:
        if self.on_notice is not None:
            self.on_notice(kind, message)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self._started:
            raise ServeError("supervisor already started")
        self._started = True
        # Workers write results synchronously (no feeder thread), so a
        # batch put before a checkpoint is saved has left the worker
        # before it can die.
        self._results = self._context.SimpleQueue()
        for index in range(self.worker_count):
            crash_after = None
            if self._crash_spec is not None and index == self._crash_spec[0]:
                crash_after = self._crash_spec[1]
            worker = _Worker(index=index, crash_after=crash_after)
            self._workers.append(worker)
            self._spawn(worker, crash_after=crash_after)
        # The collector MUST run before any ingest: a full results queue
        # with nobody draining it would deadlock workers mid-put.
        self._collector = threading.Thread(target=self._collect,
                                           name="serve-collector",
                                           daemon=True)
        self._collector.start()

    def _spawn(self, worker: _Worker,
               crash_after: Optional[int] = None) -> None:
        worker.commands = self._context.Queue(
            maxsize=max(1, self.queue_size // self.frame_events))
        worker.process = self._context.Process(
            target=worker_main,
            args=(worker.index, worker.commands, self._results,
                  self.shard_options, self._registry is not None,
                  crash_after),
            daemon=True,
            name=f"repro-serve-worker-{worker.index}",
        )
        worker.process.start()

    @property
    def worker_pids(self) -> List[int]:
        """Live worker PIDs by slot (for pid files and kill tests)."""
        return [worker.process.pid for worker in self._workers]

    def kill_worker(self, index: int) -> int:
        """SIGKILL one worker (test/CI hook).  Returns the killed pid.
        Recovery happens through the normal liveness path."""
        worker = self._workers[index]
        pid = worker.process.pid
        os.kill(pid, signal.SIGKILL)
        worker.process.join(timeout=5.0)
        return pid

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def ingest_event(self, tenant: str, std_line: str) -> int:
        """Accept one STD event line for ``tenant``; returns its sequence
        number.  Raises :class:`~repro.errors.ProtocolError` for ended
        tenants and exceeded quotas (the event is NOT accepted)."""
        with self._lock:
            state = self._state.get(tenant)
            if state in ("ending", "done"):
                raise ProtocolError(
                    f"tenant {tenant!r} already ended its feed")
            if state is None:
                self._open_tenant(tenant)
                if self._registry is not None:
                    self._registry.counter("serve_tenants_total").inc()
                self._notice("info",
                             f"tenant {tenant} -> worker "
                             f"{self._owner[tenant].index}")
            if self.quota_events is not None \
                    and self._seq[tenant] >= self.quota_events:
                self.rejected += 1
                if self._registry is not None:
                    self._registry.counter("serve_quota_rejected_total",
                                           tenant=tenant).inc()
                raise ProtocolError(
                    f"tenant {tenant!r} exceeded its event quota "
                    f"({self.quota_events})")
            self._seq[tenant] += 1
            seq = self._seq[tenant]
            self._journal[tenant].append(std_line)
            worker = self._owner[tenant]
            worker.frame.append((tenant, seq, std_line, time.time()))
            full = len(worker.frame) >= self.frame_events
        if full:
            self._send(worker)
        return seq

    def _open_tenant(self, tenant: str) -> None:
        """Start tracking a new tenant (caller holds the lock)."""
        owner = self._workers[self._ring.route(tenant)]  # validates the id
        self._state[tenant] = "active"
        self._seq[tenant] = 0
        self._journal[tenant] = []
        self._owner[tenant] = owner

    def flush(self) -> None:
        """Queue every worker's partly filled frame now (the front door
        calls this whenever its input runs dry)."""
        for worker in self._workers:
            self._send(worker)

    def end_tenant(self, tenant: str) -> None:
        """Mark ``tenant``'s feed complete; its summary arrives through
        the collector once the worker finishes the final flush."""
        with self._lock:
            state = self._state.get(tenant)
            if state == "done" or state == "ending":
                return
            if state is None:
                # An end before any event: materialize the tenant so it
                # still produces a (trivial) summary.
                self._open_tenant(tenant)
            self._state[tenant] = "ending"
        self._send(self._owner[tenant], ("end", tenant))

    def end_all(self) -> None:
        with self._lock:
            active = [tenant for tenant, state in self._state.items()
                      if state == "active"]
        for tenant in sorted(active):
            self.end_tenant(tenant)

    def _send(self, worker: _Worker, message: Optional[Tuple] = None
              ) -> None:
        """Queue the worker's buffered frame, then ``message`` if given."""
        with worker.sending:
            with self._lock:
                frame, worker.frame = worker.frame, []
            if frame and not self._put(worker, ("frame", frame)):
                return  # a respawn replayed the frame and any message
            if message is not None:
                self._put(worker, message)

    def _put(self, worker: _Worker, message: Tuple) -> bool:
        """Queue one command, riding out backpressure; never drops an
        accepted message.  Liveness is checked once per call, i.e. once
        per frame.  Returns ``False`` when the worker was dead and has
        been respawned instead: the journal replay then carried every
        event and ``end`` the message could hold."""
        while True:
            if not worker.process.is_alive():
                self._respawn(worker)
                return False
            try:
                worker.commands.put(message, timeout=0.2)
                return True
            except queue_module.Full:
                if self._registry is not None:
                    self._registry.counter("serve_backpressure_waits_total",
                                           worker=worker.index).inc()

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    def _respawn(self, worker: _Worker) -> None:
        # ``sending`` is held from the journal snapshot to the end of the
        # replay, so events accepted meanwhile queue up behind it.
        with worker.sending:
            with self._lock:
                if not self._started or self._closing:
                    raise ServeError(
                        f"worker {worker.index} died during shutdown")
                if worker.process.is_alive():  # raced with another caller
                    return
                worker.respawns += 1
                self.respawns += 1
                if worker.respawns > RESPAWN_LIMIT:
                    raise ServeError(
                        f"worker {worker.index} crashed {worker.respawns} "
                        f"times; giving up (respawn limit {RESPAWN_LIMIT})")
                exit_code = worker.process.exitcode
                self._notice("warning",
                             f"worker {worker.index} died (exit "
                             f"{exit_code}); respawning and replaying "
                             f"journal")
                if self._registry is not None:
                    self._registry.counter("serve_worker_respawn_total",
                                           worker=worker.index).inc()
                # The old queue's commands and the frame buffer are
                # subsets of the journals -- abandon both wholesale and
                # replay from the journals instead (fault injection never
                # survives a respawn).
                worker.frame = []
                self._spawn(worker, crash_after=None)
                replay: List[Tuple[str, str, List[str]]] = []
                for tenant in sorted(self._state):
                    if self._state[tenant] == "done":
                        continue
                    if self._owner[tenant] is not worker:
                        continue
                    replay.append((tenant, self._state[tenant],
                                   list(self._journal[tenant])))
            frame: List[FrameItem] = []
            for tenant, state, entries in replay:
                for seq, line in enumerate(entries, start=1):
                    frame.append((tenant, seq, line, time.time()))
                    if len(frame) >= self.frame_events:
                        self._replay_put(worker, ("frame", frame))
                        frame = []
                if state == "ending":
                    if frame:
                        self._replay_put(worker, ("frame", frame))
                        frame = []
                    self._replay_put(worker, ("end", tenant))
            if frame:
                self._replay_put(worker, ("frame", frame))

    def _replay_put(self, worker: _Worker, message: Tuple) -> None:
        """A bounded-queue put targeted at the respawned worker (no
        re-entrant respawn: a worker dying *again* mid-replay surfaces at
        the next liveness check with the journal still intact)."""
        while True:
            if not worker.process.is_alive():
                raise ServeError(
                    f"worker {worker.index} died again during journal "
                    f"replay")
            try:
                worker.commands.put(message, timeout=0.2)
                return
            except queue_module.Full:
                continue

    def check_workers(self) -> None:
        """Liveness sweep: respawn any dead worker now (called from the
        drain loop so a crash with no in-flight ingest still recovers)."""
        for worker in self._workers:
            if not worker.process.is_alive():
                self._respawn(worker)

    # ------------------------------------------------------------------ #
    # Collector
    # ------------------------------------------------------------------ #
    def _collect(self) -> None:
        while True:
            message = self._results.get()
            kind = message[0]
            if kind == "results":
                self._merge(message[2])
            elif kind == "telemetry":
                _, index, snapshot = message
                self._snapshots[index] = snapshot
            elif kind == "stopped":
                self._stopped.add(message[1])
            elif kind == "closed":  # posted by stop() once workers exit
                return

    def _merge(self, records: List[Tuple]) -> None:
        """Apply one results message (a frame's findings, or a command's
        summary/errors) under a single lock acquisition, then
        run the callbacks outside the lock in record order."""
        callbacks: List[Tuple[Callable, Tuple]] = []
        with self._lock:
            for record in records:
                kind, tenant = record[0], record[1]
                if kind == "finding":
                    _, _, analysis, position, text = record
                    key = (tenant, analysis, position, text)
                    if key in self._seen_findings:
                        continue  # recovery re-emission
                    self._seen_findings.add(key)
                    item = TenantFinding(tenant=tenant, analysis=analysis,
                                         position=position, finding=text)
                    self.findings.append(item)
                    if self.on_finding is not None:
                        callbacks.append((self.on_finding, (item,)))
                elif kind == "summary":
                    doc = record[2]
                    self._summaries[tenant] = doc
                    self._state[tenant] = "done"
                    self._journal.pop(tenant, None)
                    callbacks.append((self._notice, (
                        "info", f"tenant {tenant} done: {doc['events']} "
                                f"events, {doc['emitted']} findings")))
                elif kind == "error":
                    self._errors.append((tenant, record[2]))
                    callbacks.append((self._notice, (
                        "warning", f"tenant {tenant}: {record[2]}")))
        for callback, args in callbacks:
            callback(*args)

    # ------------------------------------------------------------------ #
    # Drain / shutdown
    # ------------------------------------------------------------------ #
    def drain(self, timeout: float = 60.0) -> None:
        """Block until every ended tenant has reported its summary,
        recovering crashed workers along the way."""
        self.flush()
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                pending = [tenant for tenant, state in self._state.items()
                           if state == "ending"]
            if not pending:
                return
            if time.monotonic() > deadline:
                raise ServeError(
                    f"drain timed out after {timeout}s; tenants still "
                    f"pending: {sorted(pending)}")
            self.check_workers()
            time.sleep(DRAIN_POLL_SECONDS)

    def stop(self, timeout: float = 10.0) -> None:
        """Shut every worker down, collect telemetry, merge it into the
        active registry (one timeline lane per worker)."""
        if not self._started or self._closing:
            return
        self._closing = True
        for worker in self._workers:
            with self._lock:
                frame, worker.frame = worker.frame, []
            messages = [("frame", frame)] if frame else []
            for message in messages + [("stop",)]:
                if not worker.process.is_alive():
                    break
                try:
                    worker.commands.put(message, timeout=1.0)
                except queue_module.Full:  # pragma: no cover - stuck worker
                    pass
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.process.join(timeout=max(0.1,
                                            deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        if self._collector is not None:
            self._results.put(("closed",))
            self._collector.join(timeout=5.0)
        if self._registry is not None:
            from repro.obs.context import merge_snapshot

            parent = self._registry.current_span()
            for index in sorted(self._snapshots):
                merge_snapshot(self._registry, self._snapshots[index],
                               parent_span=parent)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    @property
    def summaries(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return dict(self._summaries)

    @property
    def errors(self) -> List[Tuple[str, str]]:
        with self._lock:
            return list(self._errors)

    def findings_for(self, tenant: str) -> List[TenantFinding]:
        """The merged feed filtered to one tenant, in emission order."""
        with self._lock:
            return [item for item in self.findings if item.tenant == tenant]
