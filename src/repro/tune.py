"""The ``auto`` backend rule: the layer between analyses and the factory.

The ``auto`` pseudo-backend (:data:`repro.core.AUTO_BACKEND`) is resolved
here instead of in :func:`repro.core.make_partial_order`: a caller
extracts a :class:`TraceFeatures` vector from the trace's columns
(:func:`extract_features`, which reads no ``Event``) and asks
:func:`choose_backend` for one of the analysis's applicable backends.

The rule is fixed: vector clocks (``vc-flat``) when more
than :data:`ATOMIC_THRESHOLD` of the events are atomic, the incremental
CSST otherwise, and ``csst`` for deletion-based analyses.  See
``docs/tuning.md`` for the evidence and for re-checking it against the
per-job oracle of ``repro sweep --oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.obs import metrics as obs_metrics

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
FEATURE_NAMES: Tuple[str, ...] = ("events", "threads", "atomic_fraction")


@dataclass(frozen=True)
class TraceFeatures:
    """The trace shape the rule reads (see :data:`FEATURE_NAMES`): the
    fraction of atomic events, plus the trace's size."""

    events: int
    threads: int
    atomic_fraction: float

    def vector(self) -> Tuple[float, ...]:
        """The scalar features as a tuple aligned with :data:`FEATURE_NAMES`."""
        return tuple(float(getattr(self, name)) for name in FEATURE_NAMES)


def extract_features(trace) -> TraceFeatures:
    """Compute the :class:`TraceFeatures` of ``trace``.

    Works on anything exposing ``columns()`` -- a ``Trace`` or the
    streaming engine's growing snapshot -- and reads only the columns'
    sizes and the atomic flag column.
    """
    columns = trace.columns()
    total = len(columns)
    atomics = columns.atomic_flags.count(1)
    return TraceFeatures(
        events=total,
        threads=len(columns.thread_positions),
        atomic_fraction=atomics / total if total else 0.0,
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
