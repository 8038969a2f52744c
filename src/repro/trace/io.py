"""Format-dispatching trace I/O.

:func:`read_trace` and :func:`save_trace` are the universal entry points
the CLI, the :class:`~repro.api.session.Session` facade, corpora and the
stream sources use: they pick between the STD text format
(:mod:`repro.trace.formats`) and the ``.stc`` binary columnar format
(:mod:`repro.trace.binfmt`) so every surface accepts either transparently.

Reads sniff by content first -- the ``.stc`` magic bytes win over any file
extension, looking through one gzip layer if present -- and fall back to
the extension, so a binary trace with a surprising name still loads
correctly and a text trace is never fed to the binary decoder.  Writes
dispatch on the destination suffix (``.stc`` / ``.stc.gz`` are binary,
anything else is STD text; ``.gz`` always means canonical, byte-
reproducible gzip).
"""

from __future__ import annotations

import gzip
import os
from pathlib import Path
from typing import Optional, TextIO, Union

from repro.obs import metrics as obs_metrics
from repro.trace.binfmt import STC_MAGIC, read_trace_stc, write_trace_stc
from repro.trace.formats import dump_trace, load_trace
from repro.trace.trace import Trace

#: Path suffixes that select the binary columnar format on write.
STC_SUFFIXES = (".stc", ".stc.gz")


def path_format(path: Union[str, Path]) -> str:
    """The format (``"std"`` or ``"stc"``) a path's suffix selects."""
    return "stc" if str(path).endswith(STC_SUFFIXES) else "std"


def sniff_format(path: Union[str, Path]) -> Optional[str]:
    """The format the *content* of ``path`` declares, or ``None`` when the
    file is missing/unreadable or starts with neither magic.

    Looks through one gzip layer: a ``.gz`` member whose decompressed
    stream opens with the ``.stc`` magic sniffs as ``"stc"``.
    """
    try:
        with open(path, "rb") as stream:
            head = stream.read(4)
        if head[:2] == b"\x1f\x8b":
            with gzip.open(path, "rb") as stream:
                head = stream.read(4)
        return "stc" if head == STC_MAGIC else None
    except OSError:
        return None


def trace_format(path: Union[str, Path]) -> str:
    """The effective format of an existing trace file: content magic
    first, extension as the tiebreak."""
    sniffed = sniff_format(path)
    if sniffed is not None:
        return sniffed
    return path_format(path)


def save_trace(trace: Trace, destination: Union[str, Path, TextIO]) -> None:
    """Serialise ``trace`` to ``destination`` in the format its suffix
    selects: ``.stc`` / ``.stc.gz`` binary columnar, everything else STD
    text (text streams are always STD)."""
    registry = obs_metrics.ACTIVE
    if (isinstance(destination, (str, Path))
            and path_format(destination) == "stc"):
        write_trace_stc(trace, destination)
        if registry is not None:
            registry.counter("trace_writes_total", format="stc").inc()
        return
    dump_trace(trace, destination)
    if registry is not None:
        registry.counter("trace_writes_total", format="std").inc()


def read_trace(source: Union[str, Path, TextIO],
               name: str = "trace") -> Trace:
    """Load a trace from a path or text stream, sniffing the format.

    A path whose content (or, failing that, suffix) identifies the binary
    format decodes with :func:`~repro.trace.binfmt.read_trace_stc`;
    anything else parses as STD text.  Both return a
    :class:`~repro.trace.trace.Trace` with its columnar view built.
    ``name`` is the fallback name, as in
    :func:`~repro.trace.formats.load_trace` (a stored name wins).
    """
    registry = obs_metrics.ACTIVE
    if registry is None:
        if isinstance(source, (str, Path)) and trace_format(source) == "stc":
            return read_trace_stc(source)
        return load_trace(source, name=name)
    fmt = ("stc" if isinstance(source, (str, Path))
           and trace_format(source) == "stc" else "std")
    with registry.histogram("trace_parse_seconds", format=fmt).time():
        trace = (read_trace_stc(source) if fmt == "stc"
                 else load_trace(source, name=name))
    registry.counter("trace_loads_total", format=fmt).inc()
    if isinstance(source, (str, Path)):
        try:
            registry.counter("trace_parse_bytes_total", format=fmt) \
                .inc(os.path.getsize(source))
        except OSError:  # pragma: no cover - raced file removal
            pass
    return trace
