"""The ``auto`` backend rule: the layer between analyses and the factory.

The ``auto`` pseudo-backend (:data:`repro.core.AUTO_BACKEND`) is resolved
here instead of in :func:`repro.core.make_partial_order`: a caller
extracts a :class:`TraceFeatures` vector from the trace's columns
(:func:`extract_features`, zero ``Event`` materialisation even on lazy
``.stc`` traces) and asks :func:`choose_backend` for one of the
analysis's applicable backends.

The rule is fixed: vector clocks (``vc-flat``) when more
than :data:`ATOMIC_THRESHOLD` of the events are atomic, the incremental
CSST otherwise, and ``csst`` for deletion-based analyses.  See
``docs/tuning.md`` for the evidence and for re-checking it against the
per-job oracle of ``repro sweep --oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.obs import metrics as obs_metrics
from repro.trace.columns import (
    ACQUIRE_CODE,
    KIND_BY_CODE,
    RELEASE_CODE,
)

__all__ = [
    "ATOMIC_THRESHOLD",
    "FEATURE_NAMES",
    "TraceFeatures",
    "choose_backend",
    "extract_features",
]

#: Atomic-event fraction above which vector clocks are preferred.
ATOMIC_THRESHOLD = 0.1

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


def choose_backend(analysis_cls, features: TraceFeatures) -> str:
    """Pick a concrete backend for ``analysis_cls`` on a trace with
    ``features``.

    The first of the rule's preferences that
    ``analysis_cls.applicable_backends()`` offers wins; when none is
    offered, the class default (or the first candidate).  The result is
    always a backend the analysis accepts.  Emits
    ``tune_pick_total{backend=}`` when metrics are active.

    ``BENCH_baseline.json`` (full mode) shows the incremental CSST ahead
    on the lock-structured figure-11 workload (0.060s vs ``vc-flat``
    0.081s), while on atomic-heavy C11 traces vector clocks win
    (``vc-flat`` 0.031s on c11-races).
    """
    candidates = analysis_cls.applicable_backends()
    preferences: List[str] = []
    if features.atomic_fraction > ATOMIC_THRESHOLD:
        preferences += ["vc-flat"]
    preferences += ["incremental-csst", "csst"]
    chosen = next((backend for backend in preferences
                   if backend in candidates), None)
    if chosen is None:
        default = analysis_cls.default_backend()
        chosen = default if default in candidates else candidates[0]
    registry = obs_metrics.ACTIVE
    if registry is not None:
        registry.counter("tune_pick_total", backend=chosen).inc()
    return chosen
