"""The worker process: one :class:`~repro.serve.shard.TenantShard` behind
a command queue.

Command messages (tuples, first element is the verb):

* ``("frame", [(tenant, seq, std_line, enqueued_at), ...])`` -- feed each
  event in order (see :data:`repro.serve.supervisor.FRAME_EVENTS`);
* ``("end", tenant)``        -- final flush, reply with the tenant's
  summary;
* ``("stop",)``              -- drain-free shutdown: ship telemetry,
  reply ``stopped``, exit.

Result messages (posted to the shared results queue; every message leads
with the worker index so the collector can attribute it):

* ``("results", index, records)`` -- everything one command produced, in
  order, as one message.  A record is one of

  - ``("finding", tenant, analysis, position, text)``;
  - ``("summary", tenant, doc)``  -- tenant ended;
  - ``("error", tenant, message)`` -- the tenant's input failed (its
    feed is poisoned; subsequent events for it are dropped and
    re-reported, but its ``end`` still yields a summary so the
    supervisor's drain terminates, with the poison recorded under
    ``errors.ingest``).  Any exception counts, not only
    :class:`~repro.errors.ReproError`: one tenant's input must not kill
    the worker hosting the others.

  Records are also sent early, right *before* a checkpoint is saved, so
  the findings a checkpoint covers have left the process before it is
  published (a rebuild from it would not re-emit them);
* ``("telemetry", index, snapshot)`` -- the worker registry's snapshot,
  shipped once at shutdown;
* ``("stopped", index)``          -- clean exit marker.

Telemetry: when enabled, the worker installs a fresh registry and runs
everything under one ``serve_worker`` root span.  Root spans are stamped
with ``pid``/``tid``/``wall_start_ns`` at record time, so each worker's
span tree opens its own lane when the supervisor merges snapshots into
the session timeline.

Fault injection: ``crash_after=N`` makes the worker die via ``os._exit``
(no cleanup, unsent records lost -- as close to ``kill -9`` as
cooperating code gets) after consuming N events, even in the middle of a
frame.  The supervisor only passes it to a worker's *first* incarnation,
so a respawned worker survives.
"""

from __future__ import annotations

import os
import traceback
from contextlib import ExitStack
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.serve.shard import ShardOptions, TenantShard


def report_failure(error: Exception) -> str:
    """The tenant error text for a failed feed: a library error's own
    message; anything else is a bug rather than bad input, so its
    traceback also goes to stderr and its text names the type."""
    text = str(error)
    if isinstance(error, ReproError):
        return text
    traceback.print_exception(type(error), error, error.__traceback__)
    name = type(error).__name__
    return f"{name}: {text}" if text else name


class TenantGuard:
    """Tenant isolation around a :class:`TenantShard`, shared by the
    worker process and the inline (``workers=0``) service.

    Any exception from one tenant's feed (its periodic checkpoints
    included) or end poisons that tenant only: ``on_error(tenant,
    text)`` reports it, and every later event for the tenant is dropped
    and reported again.  Its ``end`` still yields a summary (covering
    what it consumed before the bad line, or a minimal one if ending
    itself failed) with the poison recorded under ``errors.ingest``.
    """

    def __init__(self, shard: TenantShard,
                 on_error: Callable[[str, str], None]) -> None:
        self._shard = shard
        self._on_error = on_error
        self._poisoned: Dict[str, str] = {}

    def _poison(self, tenant: str, error: Exception) -> None:
        self._poisoned[tenant] = report_failure(error)
        self._on_error(tenant, self._poisoned[tenant])

    def feed(self, tenant: str, seq: int, line: str,
             enqueued_at: Optional[float] = None) -> bool:
        """Feed one event; ``False`` when the tenant is (now) poisoned."""
        if tenant in self._poisoned:
            self._on_error(tenant, self._poisoned[tenant])
            return False
        try:
            self._shard.feed_line(tenant, seq, line, enqueued_at)
        except Exception as error:  # noqa: BLE001 - see class docstring
            self._poison(tenant, error)
            return False
        return True

    def end(self, tenant: str) -> Dict[str, Any]:
        """End the tenant's feed and return its summary document."""
        error = self._poisoned.pop(tenant, None)
        try:
            doc = self._shard.end_tenant(tenant)
        except Exception as failure:  # noqa: BLE001 - see class docstring
            error = error or report_failure(failure)
            doc = {"type": "summary", "name": tenant, "events": 0,
                   "emitted": 0, "final": {}}
        if error is not None:
            doc.setdefault("errors", {})["ingest"] = error
            self._on_error(tenant, error)
        return doc


def worker_main(index: int, commands, results, options: ShardOptions,
                telemetry: bool = False,
                crash_after: Optional[int] = None) -> None:
    """Run one worker until a ``stop`` command (or injected crash)."""
    from repro.obs import metrics as obs_metrics

    registry = None
    with ExitStack() as root_span:
        if telemetry:
            registry = obs_metrics.MetricsRegistry()
            obs_metrics.set_registry(registry)
            root_span.enter_context(
                registry.span("serve_worker", worker=index))
        _serve_commands(index, commands, results, options, crash_after)
    if registry is not None:
        results.put(("telemetry", index, registry.snapshot()))
        obs_metrics.set_registry(None)
    results.put(("stopped", index))


def _serve_commands(index: int, commands, results, options: ShardOptions,
                    crash_after: Optional[int]) -> None:
    """The worker's command loop, up to the ``stop`` command."""
    records: List[Tuple] = []

    def send() -> None:
        if records:
            results.put(("results", index, list(records)))
            records.clear()

    def emit(tenant: str, item: Any) -> None:
        records.append(("finding", tenant, item.analysis, item.position,
                        str(item.finding)))

    guard = TenantGuard(
        TenantShard(options, on_finding=emit,
                    on_checkpoint=lambda tenant: send()),
        on_error=lambda tenant, text: records.append(("error", tenant, text)))

    consumed = 0
    while True:
        message = commands.get()
        verb = message[0]
        if verb == "stop":
            return
        if verb == "frame":
            for tenant, seq, line, enqueued_at in message[1]:
                if not guard.feed(tenant, seq, line, enqueued_at):
                    continue
                consumed += 1
                if crash_after is not None and consumed >= crash_after:
                    # Simulated hard crash -- see module docstring.
                    os._exit(1)
        elif verb == "end":
            _, tenant = message
            records.append(("summary", tenant, guard.end(tenant)))
        send()
