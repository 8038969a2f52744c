"""Checkpoint/restore for the streaming engine.

A checkpoint captures everything a monitor needs to resume after a
restart: the *event cursor* (how many source events were consumed), the
retained *window buffer* (as STD lines, with per-thread index bases), the
per-analysis *dedup keys* of findings already emitted, and the engine
configuration (analyses, backend, window policy).

Derived state -- the live trace's indexes and every native analysis's
internal state -- is deliberately **not** stored:
it is reconstructed deterministically by replaying the buffered events
through the normal ingestion path on restore.  That keeps checkpoints
format-stable and independent of backend internals, at the cost of an
O(buffer) replay on startup.

A checkpoint's size is proportional to the *retained buffer*.  Under a
bounded window that is at most the window size; under the default
unbounded window the buffer is the entire history consumed so far -- the
price of exact batch parity -- so each save is O(events) and a save every
``checkpoint_every`` events costs O(events^2 / interval) cumulatively.
Long-lived monitors that checkpoint frequently should use a bounded
window, or accept that exact mode trades checkpoint cost for exactness.

Checkpoints are JSON documents written atomically (temp file + rename), so
a crash mid-save never corrupts the previous checkpoint.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.errors import CheckpointError
from repro.stream.engine import StreamEngine, StreamFinding

#: Format version stamped into (and required from) every checkpoint.
CHECKPOINT_VERSION = 1


def save_checkpoint(engine: StreamEngine, path: Union[str, Path]) -> None:
    """Write ``engine``'s state to ``path`` atomically."""
    engine.stats.checkpoints += 1
    registry = engine.metrics
    timer = registry.histogram("checkpoint_seconds").time() \
        if registry is not None else None
    span = registry.span("checkpoint") if registry is not None else None
    if timer is not None:
        timer.__enter__()
    if span is not None:
        span.__enter__()
    try:
        state = engine.state_dict()
        path = Path(path)
        temp_path = path.with_name(path.name + ".tmp")
        try:
            with open(temp_path, "w", encoding="utf-8") as stream:
                json.dump(state, stream, indent=1)
                stream.write("\n")
                # Flush the document to stable storage *before* the rename
                # publishes it: os.replace is atomic in the namespace, but
                # without the fsync a power loss could leave the new name
                # pointing at not-yet-written blocks -- a torn checkpoint.
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(temp_path, path)
        except OSError as error:
            # Never leave a half-written .tmp behind to confuse operators
            # (restore itself only ever reads the published name).
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            if span is not None:
                # Close by hand so the span records the error status.
                span.__exit__(CheckpointError, error, None)
                span = None
            raise CheckpointError(
                f"cannot save checkpoint to {path}: {error}") from error
    finally:
        if span is not None:
            span.__exit__(None, None, None)
        if timer is not None:
            timer.__exit__(None, None, None)
    if registry is not None:
        registry.counter("checkpoint_total").inc()
        registry.gauge("checkpoint_bytes").set(os.path.getsize(path))


def load_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a checkpoint document, validating its version."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            state = json.load(stream)
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") \
            from error
    except json.JSONDecodeError as error:
        raise CheckpointError(f"corrupt checkpoint {path}: {error}") from error
    if not isinstance(state, dict) or state.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported version "
            f"{state.get('version') if isinstance(state, dict) else state!r}")
    return state


def restore_engine(path: Union[str, Path],
                   on_finding: Optional[Callable[[StreamFinding], None]]
                   = None) -> StreamEngine:
    """Rebuild a :class:`StreamEngine` from a checkpoint file.

    The returned engine has replayed its buffered events (rebuilding all
    derived state) and resumes consuming a source with
    ``engine.run(source, skip=engine.cursor)``.
    """
    return StreamEngine.from_state(load_checkpoint(path),
                                   on_finding=on_finding)
