"""Trace-shape feature extraction for backend selection.

Which partial-order backend wins depends on the *shape* of the trace --
thread count, event mix, contention -- not on the analysis alone (the
perf baseline shows ``vc-flat`` ahead on atomic-heavy c11 traces while
``incremental-csst`` wins the lock-structured figure-11 workload).
:func:`extract_features` distils that shape into a small fixed vector,
computed entirely from the int-encoded columns of
:class:`~repro.trace.columns.TraceColumns`.

Because the columns of a lazy ``.stc`` trace are decoded straight from
the file's sections, extraction never materialises a single
:class:`~repro.trace.event.Event`: the feature vector of a ``Trace``,
of a ``LazyTrace``, and of a ``.stc`` round-trip of the same trace is
byte-for-byte identical (property-tested in ``tests/tune``).

:meth:`TraceFeatures.bucket` coarsens the vector into a short string key
so that online policies can aggregate observations across traces of
similar shape without learning one arm per trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.trace.columns import (
    ACQUIRE_CODE,
    KIND_BY_CODE,
    RELEASE_CODE,
)

#: Names of the scalar features, in the order :meth:`TraceFeatures.vector`
#: emits them.  Exposed through ``Session.capabilities()["tuning"]`` so
#: external tooling can interpret recorded feature vectors.
FEATURE_NAMES: Tuple[str, ...] = (
    "events",
    "threads",
    "variables",
    "reads",
    "writes",
    "accesses",
    "atomics",
    "locks",
    "read_write_ratio",
    "lock_density",
    "atomic_fraction",
    "max_contention",
    "mean_contention",
)


@dataclass(frozen=True)
class TraceFeatures:
    """A fixed trace-shape feature vector (see :data:`FEATURE_NAMES`).

    ``kind_hist`` is the per-:class:`~repro.trace.event.EventKind` event
    count as a sorted tuple of ``(kind_name, count)`` pairs -- tuple, not
    dict, so instances hash and compare by value.

    Contention is per-variable: the fraction of all accesses landing on
    the single hottest variable (``max_contention``) and the mean
    accesses per touched variable normalised by total accesses
    (``mean_contention``); both are 0.0 for traces without accesses.
    """

    events: int
    threads: int
    variables: int
    reads: int
    writes: int
    accesses: int
    atomics: int
    locks: int
    kind_hist: Tuple[Tuple[str, int], ...]
    read_write_ratio: float
    lock_density: float
    atomic_fraction: float
    max_contention: float
    mean_contention: float

    def vector(self) -> Tuple[float, ...]:
        """The scalar features as a tuple aligned with :data:`FEATURE_NAMES`."""
        return tuple(float(getattr(self, name)) for name in FEATURE_NAMES)

    def bucket(self) -> str:
        """A coarse shape key for aggregating policy observations.

        Encodes log-scale size (``t`` = log2 threads, ``e`` = log10
        events) and three ternary regime digits: read/write balance
        (``rw``: write-heavy / balanced / read-heavy), lock density
        (``lk``), and hot-variable contention (``c``).  Traces with the
        same bucket are close enough in shape that one backend choice
        serves them all.
        """
        t = int(math.log2(self.threads)) if self.threads > 0 else 0
        e = int(math.log10(self.events)) if self.events > 0 else 0
        rw = _tri(self.read_write_ratio, 0.5, 2.0)
        lk = _tri(self.lock_density, 0.05, 0.2)
        c = _tri(self.max_contention, 0.2, 0.5)
        return f"t{t}e{e}rw{rw}lk{lk}c{c}"


def _tri(value: float, low: float, high: float) -> int:
    """0 below ``low``, 1 in [low, high), 2 at or above ``high``."""
    if value < low:
        return 0
    if value < high:
        return 1
    return 2


def extract_features(trace) -> TraceFeatures:
    """Compute the :class:`TraceFeatures` of ``trace``.

    Works on anything exposing ``columns()`` -- an eager ``Trace``, a
    lazy ``.stc``-backed trace, or the streaming engine's growing
    snapshot -- and reads only the int/byte columns, so no ``Event``
    objects are inflated.
    """
    columns = trace.columns()
    kinds = columns.kinds
    total = len(columns)

    kind_hist = []
    for code, kind in enumerate(KIND_BY_CODE):
        count = kinds.count(code)
        if count:
            kind_hist.append((kind.name, count))
    kind_hist.sort()

    reads = sum(columns.read_flags)
    writes = sum(columns.write_flags)
    accesses = sum(columns.access_flags)
    atomics = sum(columns.atomic_flags)
    locks = kinds.count(ACQUIRE_CODE) + kinds.count(RELEASE_CODE)

    per_variable: Dict[int, int] = {}
    for var_id, flag in zip(columns.var_ids, columns.access_flags):
        if flag and var_id >= 0:
            per_variable[var_id] = per_variable.get(var_id, 0) + 1
    if accesses and per_variable:
        max_contention = max(per_variable.values()) / accesses
        mean_contention = (accesses / len(per_variable)) / accesses
    else:
        max_contention = 0.0
        mean_contention = 0.0

    return TraceFeatures(
        events=total,
        threads=len(columns.thread_positions),
        variables=len(columns.variables),
        reads=reads,
        writes=writes,
        accesses=accesses,
        atomics=atomics,
        locks=locks,
        kind_hist=tuple(kind_hist),
        read_write_ratio=reads / writes if writes else float(reads),
        lock_density=locks / total if total else 0.0,
        atomic_fraction=atomics / total if total else 0.0,
        max_contention=max_contention,
        mean_contention=mean_contention,
    )
