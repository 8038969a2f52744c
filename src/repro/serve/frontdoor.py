"""The front door: socket ingest and corpus replay.

Two ways events reach the :class:`~repro.serve.supervisor.Supervisor`:

* :func:`serve_socket` -- an asyncio TCP server speaking the line
  protocol of :mod:`repro.serve.protocol`.  Each connection gets its own
  reader coroutine; blocking ingest (bounded worker queues) runs in the
  default executor, so one backpressured tenant stalls only its own
  connection while the loop keeps serving the rest.  Pushback reaches
  clients the honest way: the reader simply stops reading, the socket
  buffer fills, and the sender's TCP window closes.

* :func:`replay_sources` -- deterministic multi-tenant replay of trace
  files / corpus members / generator specs, one tenant per source,
  round-robin interleaved so every worker sees genuinely concurrent
  tenants.  This is the testing mode (``repro serve --once``) and also
  the engine behind multi-``--source`` ``repro watch``.

The socket reader works a chunk at a time: it parses every complete
line already read, hands the chunk's events and ends to the supervisor
in one executor hop, and flushes the supervisor's partly filled frames
before awaiting more input.  No timer holds a frame back: when the
client pauses, its events are already on their way to the workers.

Per-event protocol errors (quota exceeded, malformed line) are reported
to the client as ``#error|<tenant>|<message>`` response lines and the
connection stays up -- one misbehaving tenant must not sever a
connection multiplexing many.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ProtocolError, ServeError
from repro.serve.protocol import BYE_LINE, format_end, format_event_line, \
    parse_line
from repro.serve.routing import TENANT_PATTERN, validate_tenant
from repro.serve.supervisor import Supervisor
from repro.trace.formats import format_event

#: Server -> client per-event rejection line.
ERROR_PREFIX = "#error|"

#: Most bytes the socket reader takes from a connection per step.
READ_CHUNK = 64 * 1024

#: Most bytes of one unterminated line the socket reader buffers
#: (asyncio's default stream limit); past that it answers with an
#: ``#error`` line and closes the connection.
MAX_LINE_BYTES = 64 * 1024

#: One parsed wire command: ``(line position, kind, tenant, payload)``.
_Command = Tuple[int, str, str, Optional[str]]


def tenant_for_source(name: str, taken: Iterable[str] = ()) -> str:
    """Derive a legal, unique tenant id from a source name.

    Source names (file stems, corpus trace ids, generator specs) may
    contain characters outside the tenant alphabet; they are mapped to
    ``-`` and the result is de-duplicated against ``taken`` with a
    numeric suffix.
    """
    cleaned = "".join(char if TENANT_PATTERN.match(f"a{char}") else "-"
                      for char in str(name))[:64]
    cleaned = cleaned.strip("-") or "tenant"
    if not cleaned[0].isalnum():
        cleaned = "t" + cleaned[:63]
    taken = set(taken)
    candidate, attempt = cleaned, 1
    while candidate in taken:
        attempt += 1
        suffix = f"-{attempt}"
        candidate = cleaned[:64 - len(suffix)] + suffix
    return validate_tenant(candidate)


def open_replay(specs: Iterable[str]
                ) -> List[Tuple[str, Iterator[str]]]:
    """Resolve source specs into ``(tenant, std-line-iterator)`` pairs.

    Every source kind ``repro watch`` accepts works here too (STD text,
    ``.stc`` binary, corpus ``manifest.json#TRACE_ID``, generator specs):
    the source is opened with :func:`~repro.stream.open_source` and its
    events re-serialized to STD lines, which keeps replay agnostic of
    the original container format.
    """
    from repro.stream import open_source

    feeds: List[Tuple[str, Iterator[str]]] = []
    taken: List[str] = []
    for spec in specs:
        source = open_source(spec)
        tenant = tenant_for_source(getattr(source, "name", spec), taken)
        taken.append(tenant)
        feeds.append((tenant,
                      (format_event(event) for event in source.events())))
    return feeds


def replay_sources(supervisor: Supervisor, specs: Iterable[str],
                   on_sent: Optional[Callable[[str, int], None]] = None
                   ) -> Dict[str, int]:
    """Replay ``specs`` through ``supervisor``, one tenant per source.

    Sources are interleaved round-robin (one event each per cycle) so the
    run is deterministic yet genuinely multi-tenant at every instant.
    Each tenant's feed is ended as its source drains.  Returns the event
    count per tenant.  ``on_sent(tenant, seq)`` fires after each accepted
    event (the CI smoke test uses it to schedule a mid-replay kill).
    """
    feeds = open_replay(specs)
    counts: Dict[str, int] = {tenant: 0 for tenant, _ in feeds}
    if len(counts) != len(feeds):
        raise ServeError("duplicate tenant ids in replay set")
    live = list(feeds)
    while live:
        still_live = []
        for tenant, lines in live:
            line = next(lines, None)
            if line is None:
                supervisor.end_tenant(tenant)
                continue
            seq = supervisor.ingest_event(tenant, line)
            counts[tenant] = seq
            if on_sent is not None:
                on_sent(tenant, seq)
            still_live.append((tenant, lines))
        live = still_live
    return counts


# --------------------------------------------------------------------------- #
# Socket server
# --------------------------------------------------------------------------- #
def _error_reply(tenant: Optional[str], message: object) -> str:
    return f"{ERROR_PREFIX}{tenant if tenant is not None else '?'}|" \
        f"{message}\n"


def _parse_chunk(lines: List[bytes]
                 ) -> Tuple[List[_Command], List[Tuple[int, str]], bool]:
    """Parse one chunk's wire lines.  Returns the commands for the
    supervisor, the ``#error`` replies for lines that did not parse
    (each with its line position), and whether ``#bye`` ended the
    chunk (lines after it are ignored)."""
    commands: List[_Command] = []
    replies: List[Tuple[int, str]] = []
    for position, raw in enumerate(lines):
        try:
            kind, tenant, payload = parse_line(raw.decode("utf-8"))
        except UnicodeDecodeError:
            replies.append((position,
                            _error_reply(None, "line is not UTF-8")))
            continue
        except ProtocolError as error:
            replies.append((position, _error_reply(None, error)))
            continue
        if kind == "bye":
            return commands, replies, True
        if kind != "blank":
            commands.append((position, kind, tenant, payload))
    return commands, replies, False


def _apply_commands(supervisor: Supervisor, commands: List[_Command]
                    ) -> List[Tuple[int, str]]:
    """Feed one chunk's commands to the supervisor, then flush its
    frames.  Returns the ``#error`` replies of rejected commands, each
    with its line position.  Runs in an executor thread: ingest blocks
    under backpressure."""
    replies: List[Tuple[int, str]] = []
    try:
        for position, kind, tenant, payload in commands:
            try:
                if kind == "end":
                    supervisor.end_tenant(tenant)
                else:  # event
                    supervisor.ingest_event(tenant, payload)
            except ProtocolError as error:
                replies.append((position, _error_reply(tenant, error)))
    finally:
        supervisor.flush()
    return replies


async def handle_connection(supervisor: Supervisor,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    """Serve one ingest connection until EOF or ``#bye``."""
    loop = asyncio.get_running_loop()
    partial = b""
    try:
        while True:
            chunk = await reader.read(READ_CHUNK)
            lines = (partial + chunk).split(b"\n")
            # At EOF the unterminated last line counts too.
            partial = lines.pop() if chunk else b""
            commands, replies, bye = _parse_chunk(lines)
            if commands:
                replies += await loop.run_in_executor(
                    None, _apply_commands, supervisor, commands)
            too_long = not bye and len(partial) > MAX_LINE_BYTES
            if too_long:
                replies.append((len(lines), _error_reply(
                    None, f"line exceeds {MAX_LINE_BYTES} bytes")))
            if replies:
                replies.sort(key=lambda reply: reply[0])
                writer.write("".join(text for _, text in replies)
                             .encode("utf-8"))
                await writer.drain()
            if bye or too_long or not chunk:
                break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass


async def serve_socket(supervisor: Supervisor, host: str, port: int
                       ) -> asyncio.AbstractServer:
    """Start the ingest server (caller owns its lifetime).  The bound
    port is available as ``server.sockets[0].getsockname()[1]`` -- pass
    ``port=0`` to let the kernel pick one."""

    async def handler(reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        await handle_connection(supervisor, reader, writer)

    return await asyncio.start_server(handler, host=host, port=port)


# --------------------------------------------------------------------------- #
# Client helper (tests / CI replay over a real socket)
# --------------------------------------------------------------------------- #
def send_lines(host: str, port: int, lines: Iterable[str],
               timeout: float = 30.0) -> List[str]:
    """Blocking client: send protocol lines, return ``#error`` responses.

    Sends ``#bye`` at the end if the caller did not.  Reads interleaved
    error responses without blocking on them (the server only writes on
    rejection).
    """
    import socket

    responses: List[str] = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        said_bye = False
        for line in lines:
            stream.write(line.rstrip("\n") + "\n")
            if line.strip() == BYE_LINE:
                said_bye = True
        if not said_bye:
            stream.write(BYE_LINE + "\n")
        stream.flush()
        sock.shutdown(socket.SHUT_WR)
        for response in stream:
            if response.strip():
                responses.append(response.rstrip("\n"))
    return responses


def replay_lines(specs: Iterable[str]) -> Iterator[str]:
    """The full protocol line sequence replaying ``specs`` (round-robin
    interleaved, ``#end`` per drained tenant, final ``#bye``) -- feed it
    to :func:`send_lines` to drive a live server the way
    :func:`replay_sources` drives an in-process supervisor."""
    feeds = open_replay(specs)
    live = list(feeds)
    while live:
        still_live = []
        for tenant, lines in live:
            line = next(lines, None)
            if line is None:
                yield format_end(tenant)
                continue
            yield format_event_line(tenant, line)
            still_live.append((tenant, lines))
        live = still_live
    yield BYE_LINE
