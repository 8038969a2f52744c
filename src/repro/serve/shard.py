"""One shard: many tenants, one :class:`~repro.stream.StreamEngine` each.

:class:`TenantShard` is the process-agnostic core of the service.  A
worker process wraps one around its command queue; the degenerate
single-process case (multi-source ``repro watch``) drives one directly.
Either way the shard owns everything per-tenant:

* lazily creating the engine on the tenant's first event -- restoring it
  from ``<checkpoint_dir>/<tenant>.json`` when a checkpoint exists, so a
  respawned worker resumes every tenant it hosted.  The supervisor
  replays the tenant's whole feed from sequence 1 (its journal is the
  tenant's one event history); the restored engine rebuilds its state
  from the first ``cursor`` of those events and then carries on;
* parsing STD payload lines into events with a per-tenant
  :class:`~repro.trace.formats.LineDecoder`, after checking that each
  line carries the next per-tenant sequence number;
* periodic checkpoints at every multiple of ``checkpoint_every``
  events.  Before each
  save, ``on_checkpoint`` lets the host ship the findings emitted so far:
  once the checkpoint is published, a rebuild from it no longer
  re-emits them;
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

#: ``on_checkpoint`` callback signature: ``(tenant)``, called before the
#: tenant's checkpoint is saved.
CheckpointHook = Callable[[str], None]


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
    decoder: LineDecoder
    fed: int = 0  #: sequence number of the last line fed


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
                  enqueued_at: Optional[float] = None) -> None:
        """Feed one STD payload line carrying sequence number ``seq``, the
        one after the tenant's last (a restored tenant starts again at
        1 and rebuilds from the lines its checkpoint covers)."""
        entry = self.ensure_tenant(tenant)
        if seq != entry.fed + 1:
            raise ServeError(
                f"tenant {tenant!r}: sequence gap or repeat (got {seq}, "
                f"expected {entry.fed + 1}) -- the journal replay is broken")
        event = parse_trace_line(line, entry.decoder, seq)
        if event is None:
            raise ProtocolError(
                f"tenant {tenant!r}: payload {line!r} is not an event line")
        entry.fed = seq
        rebuilding = entry.engine.restoring
        entry.engine.feed(event)
        if rebuilding:
            return
        if self._registry is not None:
            self._registry.counter("serve_events_total",
                                   tenant=tenant).inc()
            if enqueued_at is not None:
                self._registry.gauge("serve_tenant_lag_seconds",
                                     tenant=tenant) \
                    .set(max(0.0, time.time() - enqueued_at))
        every = self.options.checkpoint_every
        if every and entry.engine.cursor % every == 0:
            self._checkpoint(tenant, entry.engine)

    def _checkpoint(self, tenant: str, engine: StreamEngine) -> None:
        """Save the tenant's checkpoint (no-op without a directory), once
        ``on_checkpoint`` has shipped the findings it covers."""
        path = self._checkpoint_path(tenant)
        if path is None:
            return
        if self.on_checkpoint is not None:
            self.on_checkpoint(tenant)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(engine, path)

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
        self._checkpoint(tenant, entry.engine)
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
