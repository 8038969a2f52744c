"""The ``auto`` backend rule: the layer between analyses and the factory.

The ``auto`` pseudo-backend (:data:`repro.core.AUTO_BACKEND`) is resolved
here instead of in :func:`repro.core.make_partial_order`.  The rule is the
measured crossover table, ``docs/tables/crossover.json`` (rendered as
``crossover.md`` by ``repro report crossover``): each analysis's
``default_backend()`` is the table's pick, and :func:`choose_backend`
returns it.  The pick reads no trace, so an analysis resolves ``auto``
once, when it is constructed.  See ``docs/tuning.md``.

:func:`extract_features` and :class:`TraceFeatures` describe a trace's
shape (events, threads, atomic fraction) for tooling; the rule does not
read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.obs import metrics as obs_metrics

__all__ = [
    "FEATURE_NAMES",
    "TraceFeatures",
    "choose_backend",
    "extract_features",
]

#: Names of the scalar features, in the order :meth:`TraceFeatures.vector`
#: emits them.  Exposed through ``Session.capabilities()["tuning"]`` so
#: external tooling can interpret recorded feature vectors.
FEATURE_NAMES: Tuple[str, ...] = ("events", "threads", "atomic_fraction")


@dataclass(frozen=True)
class TraceFeatures:
    """A trace's shape (see :data:`FEATURE_NAMES`): its size and the
    fraction of atomic events."""

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


def choose_backend(analysis_cls) -> str:
    """The ``auto`` pick for ``analysis_cls``: its ``default_backend()``,
    which is the crossover table's pick (``docs/tables/crossover.json``).

    When the default is not among ``analysis_cls.applicable_backends()``
    (a runtime-registered backend set), the first applicable backend.
    Emits ``tune_pick_total{backend=}`` when metrics are active.
    """
    candidates = analysis_cls.applicable_backends()
    default = analysis_cls.default_backend()
    chosen = default if default in candidates else candidates[0]
    registry = obs_metrics.ACTIVE
    if registry is not None:
        registry.counter("tune_pick_total", backend=chosen).inc()
    return chosen
