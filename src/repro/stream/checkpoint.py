"""Checkpoint/restore for the streaming engine.

A checkpoint keeps what the stream *decided*, never its events: the engine
configuration (analyses with the backend of each, window policy), the
*event cursor* (how many source events were consumed), the per-thread
``next_index``/``evicted`` counts, the per-analysis *dedup keys* of
findings already emitted, and the run's stats.  Its size is proportional
to the findings, not to the history, so each save costs O(findings).

The history already exists once outside the checkpoint -- the watched
file or generator spec, the serve journal -- so a restored engine is fed
it again from the start: the first ``cursor`` events rebuild the live
trace (or window buffer) and every native analysis's state through the
normal ingestion path, without flushing or re-emitting, and the rebuilt
per-thread counts are checked against the checkpoint.  A feed whose
counts disagree, or that ends before the cursor, raises
:class:`~repro.errors.CheckpointError` instead of continuing on a mixed
history.  See :meth:`StreamEngine.from_state`.

Checkpoints are JSON documents written atomically (temp file + fsync +
rename), so a crash mid-save never corrupts the previous checkpoint.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.errors import CheckpointError
from repro.stream.engine import StreamEngine, StreamFinding

#: Format version stamped into every checkpoint.
CHECKPOINT_VERSION = 2

#: Versions a restore accepts.  Version 1 also stored the events as STD
#: lines (``buffer``); restoring ignores them and rebuilds from the feed.
READABLE_VERSIONS = (1, CHECKPOINT_VERSION)


def save_checkpoint(engine: StreamEngine, path: Union[str, Path]) -> None:
    """Write ``engine``'s state to ``path`` atomically."""
    engine.stats.checkpoints += 1
    registry = engine.metrics
    path = Path(path)
    with ExitStack() as telemetry:
        if registry is not None:
            telemetry.enter_context(
                registry.histogram("checkpoint_seconds").time())
            telemetry.enter_context(registry.span("checkpoint"))
        state = engine.state_dict()
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
            raise CheckpointError(
                f"cannot save checkpoint to {path}: {error}") from error
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
    if not isinstance(state, dict) \
            or state.get("version") not in READABLE_VERSIONS:
        raise CheckpointError(
            f"checkpoint {path} has unsupported version "
            f"{state.get('version') if isinstance(state, dict) else state!r}")
    return state


def restore_engine(path: Union[str, Path],
                   on_finding: Optional[Callable[[StreamFinding], None]]
                   = None) -> StreamEngine:
    """Rebuild a :class:`StreamEngine` from a checkpoint file.

    The returned engine reports the checkpoint's cursor and resumes by
    being fed its source from the start, ``engine.run(source)``: the
    first ``cursor`` events rebuild its state (see
    :meth:`StreamEngine.from_state`).
    """
    return StreamEngine.from_state(load_checkpoint(path),
                                   on_finding=on_finding)
