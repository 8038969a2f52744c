"""Multi-tenant sharded streaming analysis service (``repro serve``).

``repro watch`` monitors one event feed; this package turns the same
streaming engine into a *service*: many tenants (independent event feeds,
one session id each), sharded by consistent hash across N worker
processes, each worker hosting one :class:`~repro.stream.StreamEngine`
per tenant.  The supervisor applies per-tenant quotas, bounded-queue
backpressure that pushes back on the ingest socket instead of buffering
unboundedly, merges every worker's findings into one ordered feed, writes
periodic per-tenant JSON checkpoints, and respawns crashed workers with
tenant state rebuilt by replaying each tenant's journal (its one event
history) into an engine restored from its checkpoint.

Layering (each module usable on its own):

* :mod:`repro.serve.routing`   -- consistent-hash ring, tenant ids;
* :mod:`repro.serve.protocol`  -- the ingest line protocol
  (``<tenant>|<std-event-line>``, ``#end|<tenant>``, ``#bye``);
* :mod:`repro.serve.shard`     -- :class:`TenantShard`, the in-process
  many-engines host (used by worker processes *and* by the degenerate
  single-process case behind multi-source ``repro watch``);
* :mod:`repro.serve.worker`    -- the worker process entry point;
* :mod:`repro.serve.supervisor` -- :class:`Supervisor`: worker lifecycle,
  journals, crash recovery, the merged findings feed;
* :mod:`repro.serve.frontdoor` -- the asyncio socket front door and the
  file/corpus replay mode;
* :mod:`repro.serve.service`   -- :func:`run_serve`, the facade entry
  consumed by :meth:`repro.api.Session.serve`.
"""

from repro.serve.routing import HashRing, validate_tenant
from repro.serve.protocol import (
    BYE_LINE,
    format_end,
    format_event_line,
    parse_line,
)
from repro.serve.shard import ShardOptions, TenantShard
from repro.serve.supervisor import Supervisor, TenantFinding
from repro.serve.frontdoor import replay_lines, replay_sources, send_lines, \
    serve_socket
from repro.serve.service import ServeOutcome, run_serve

__all__ = [
    "BYE_LINE",
    "HashRing",
    "ServeOutcome",
    "ShardOptions",
    "Supervisor",
    "TenantFinding",
    "TenantShard",
    "format_end",
    "format_event_line",
    "parse_line",
    "replay_lines",
    "replay_sources",
    "run_serve",
    "send_lines",
    "serve_socket",
    "validate_tenant",
]
