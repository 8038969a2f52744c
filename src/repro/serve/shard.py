"""One shard: many tenants, one :class:`~repro.stream.StreamEngine` each.

:class:`TenantShard` is the process-agnostic core of the service.  A
worker process wraps one around its command queue; the degenerate
single-process case (multi-source ``repro watch``) drives one directly.
Either way the shard owns everything per-tenant:

* lazily creating the engine on the tenant's first event -- restoring it
  from ``<checkpoint_dir>/<tenant>.json`` when a checkpoint exists, so a
  respawned worker resumes every tenant it hosted;
* parsing STD payload lines into events with a per-tenant
  :class:`~repro.trace.formats.LineDecoder`, whose index counters are
  seeded from the restored engine after a recovery, so replayed lines
  keep assigning the same indexes;
* *sequence-skip* dedup for crash recovery: every event carries the
  supervisor's per-tenant sequence number, and a line whose sequence is
  ``<= engine.cursor`` was already consumed before the crash -- it is
  dropped without parsing.  This is what makes journal replay idempotent;
* periodic checkpoints every ``checkpoint_every`` events, acknowledged
  through ``on_checkpoint`` so the supervisor can trim its journal;
* the final flush and summary document on ``#end``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ProtocolError, ServeError
from repro.serve.routing import validate_tenant
from repro.stream.checkpoint import restore_engine, save_checkpoint
from repro.stream.engine import StreamEngine, StreamFinding
from repro.stream.window import parse_window
from repro.trace.formats import LineDecoder, parse_trace_line
from repro.obs import metrics as obs_metrics

#: ``on_finding`` callback signature: ``(tenant, StreamFinding)``.
FindingHook = Callable[[str, StreamFinding], None]

#: ``on_checkpoint`` callback signature: ``(tenant, cursor)``.
CheckpointHook = Callable[[str, int], None]


@dataclass(frozen=True)
class ShardOptions:
    """Plain-data shard configuration (picklable: it crosses the process
    boundary as part of the worker spawn arguments)."""

    analyses: Tuple[str, ...]
    backend: Optional[str] = "auto"
    window: Optional[str] = None
    flush_every: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_every: Optional[int] = None


@dataclass
class _Tenant:
    """Book-keeping for one hosted tenant."""

    engine: StreamEngine
    #: Decodes the tenant's STD payload lines.  Its per-thread counters are
    #: seeded from the restored engine so post-recovery lines parse to the
    #: same indexes they would have had in the uninterrupted run.
    decoder: LineDecoder
    since_checkpoint: int = 0
    restored_at: int = 0  #: engine cursor at restore time (0 = fresh)


class TenantShard:
    """Host many per-tenant engines inside one process (see module doc)."""

    def __init__(self, options: ShardOptions,
                 on_finding: Optional[FindingHook] = None,
                 on_checkpoint: Optional[CheckpointHook] = None) -> None:
        if not options.analyses:
            raise ServeError("shard needs at least one analysis")
        self.options = options
        self.on_finding = on_finding
        self.on_checkpoint = on_checkpoint
        self._tenants: Dict[str, _Tenant] = {}
        # Bound once at construction, like the engine does.
        self._registry = obs_metrics.ACTIVE

    # ------------------------------------------------------------------ #
    # Tenant lifecycle
    # ------------------------------------------------------------------ #
    @property
    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    def _checkpoint_path(self, tenant: str) -> Optional[Path]:
        if self.options.checkpoint_dir is None:
            return None
        return Path(self.options.checkpoint_dir) / f"{tenant}.json"

    def ensure_tenant(self, tenant: str) -> _Tenant:
        """The tenant's entry, creating (or checkpoint-restoring) it."""
        entry = self._tenants.get(tenant)
        if entry is not None:
            return entry
        validate_tenant(tenant)

        def emit(item: StreamFinding, _tenant: str = tenant) -> None:
            if self.on_finding is not None:
                self.on_finding(_tenant, item)

        path = self._checkpoint_path(tenant)
        if path is not None and os.path.exists(path):
            engine = restore_engine(path, on_finding=emit)
            entry = _Tenant(engine=engine,
                            decoder=LineDecoder(dict(engine._next_index)),
                            restored_at=engine.cursor)
        else:
            engine = StreamEngine(
                list(self.options.analyses),
                backend=self.options.backend,
                window=parse_window(self.options.window,
                                    flush_every=self.options.flush_every),
                name=tenant,
                on_finding=emit,
            )
            entry = _Tenant(engine=engine, decoder=LineDecoder())
        self._tenants[tenant] = entry
        if self._registry is not None:
            self._registry.counter("serve_tenants_total").inc()
        return entry

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def feed_line(self, tenant: str, seq: int, line: str,
                  enqueued_at: Optional[float] = None) -> bool:
        """Feed one STD payload line carrying sequence number ``seq``.

        Returns ``True`` when the event was consumed, ``False`` when it
        was skipped as a recovery duplicate (``seq <= engine.cursor``:
        already consumed before the checkpoint this engine restored
        from).  Skipped lines are not even parsed -- the restored parse
        counters already account for them.
        """
        entry = self.ensure_tenant(tenant)
        engine = entry.engine
        if seq <= engine.cursor:
            return False
        if seq != engine.cursor + 1:
            raise ServeError(
                f"tenant {tenant!r}: sequence gap (got {seq}, engine at "
                f"{engine.cursor}) -- the journal replay is incomplete")
        event = parse_trace_line(line, entry.decoder, seq)
        if event is None:
            raise ProtocolError(
                f"tenant {tenant!r}: payload {line!r} is not an event line")
        engine.feed(event)
        if self._registry is not None:
            self._registry.counter("serve_events_total",
                                   tenant=tenant).inc()
            if enqueued_at is not None:
                self._registry.gauge("serve_tenant_lag_seconds",
                                     tenant=tenant) \
                    .set(max(0.0, time.time() - enqueued_at))
        entry.since_checkpoint += 1
        every = self.options.checkpoint_every
        if every and entry.since_checkpoint >= every:
            self.checkpoint_tenant(tenant)
        return True

    def checkpoint_tenant(self, tenant: str) -> Optional[str]:
        """Save the tenant's checkpoint now (no-op without a directory).
        Returns the path written, and acknowledges via ``on_checkpoint``
        so the supervisor can trim its recovery journal."""
        entry = self._tenants[tenant]
        path = self._checkpoint_path(tenant)
        if path is None:
            return None
        path.parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(entry.engine, path)
        entry.since_checkpoint = 0
        if self.on_checkpoint is not None:
            self.on_checkpoint(tenant, entry.engine.cursor)
        return str(path)

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #
    def end_tenant(self, tenant: str) -> Dict[str, Any]:
        """Final flush for ``tenant``; returns its summary document.

        The document is shaped exactly like the ``jsonl`` summary a
        single-source ``repro watch`` prints for the same feed -- that is
        the parity contract the integration tests pin.
        """
        entry = self._tenants.pop(tenant, None)
        if entry is None:
            # An end for a tenant that never sent an event still yields a
            # (trivial) summary rather than an error: ending an idle
            # session is a normal client action.
            entry = self.ensure_tenant(tenant)
            self._tenants.pop(tenant, None)
        result = entry.engine.finish()
        path = self._checkpoint_path(tenant)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            save_checkpoint(entry.engine, path)
            if self.on_checkpoint is not None:
                self.on_checkpoint(tenant, entry.engine.cursor)
        summary: Dict[str, Any] = {
            "type": "summary",
            "name": result.name,
            "events": result.stats.events,
            "threads": result.stats.threads,
            "flushes": result.stats.flushes,
            "emitted": result.stats.emitted,
            "final": {name: [str(finding) for finding in res.findings]
                      for name, res in sorted(result.results.items())},
        }
        if result.backends_selected:
            summary["backends_selected"] = dict(result.backends_selected)
        if result.errors:
            summary["errors"] = dict(result.errors)
        if result.warnings:
            summary["warnings"] = [str(item) for item in result.warnings]
        return summary

    def close(self) -> Dict[str, Dict[str, Any]]:
        """End every still-active tenant (worker shutdown); returns their
        summaries keyed by tenant."""
        return {tenant: self.end_tenant(tenant)
                for tenant in list(self.tenants)}
