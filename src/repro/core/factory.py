"""Factory for partial-order backends.

The dynamic analyses in :mod:`repro.analyses` and the benchmark harness are
written against the abstract :class:`~repro.core.interface.PartialOrder`
interface; this factory turns a short backend name (as used throughout the
paper's tables) into a concrete instance.
"""

from __future__ import annotations

import inspect
from typing import Dict, FrozenSet, List, Optional, Tuple, Type

from repro.core.csst import CSST
from repro.core.graph_po import GraphOrder
from repro.core.incremental_csst import IncrementalCSST
from repro.core.interface import PartialOrder
from repro.core.st_partial_order import SegmentTreeOrder
from repro.core.vector_clock import VectorClockOrder
from repro.errors import ReproError

#: Mapping from backend name to implementation class.  The names mirror the
#: column headers of the paper's tables ("VCs", "STs", "CSSTs", "Graphs");
#: ``vc-flat`` is the vector clocks, packed into one int list per chain.
BACKENDS: Dict[str, Type[PartialOrder]] = {
    "csst": CSST,
    "incremental-csst": IncrementalCSST,
    "st": SegmentTreeOrder,
    "vc-flat": VectorClockOrder,
    "graph": GraphOrder,
}

#: Pseudo-backend name resolved to a concrete backend by the ``auto``
#: rule (:mod:`repro.tune`) from the trace's shape features.  It is not
#: an entry of :data:`BACKENDS` -- there is no class behind it -- so every
#: front end that accepts it (``Analysis``, the sweep planner, the stream
#: engine) special-cases the name before reaching
#: :func:`make_partial_order`.
AUTO_BACKEND = "auto"

#: Backends usable in incremental-only analyses (paper Tables 1-6).
INCREMENTAL_BACKENDS = ("st", "incremental-csst", "vc-flat")

#: Backends usable in fully dynamic analyses (paper Table 7).
DYNAMIC_BACKENDS = ("graph", "csst")

#: Plugin-registered backend names, partitioned by the analysis families
#: they can serve.  The built-in tuples above stay immutable (they are
#: imported by value all over the tree); consumers that must see plugins --
#: :meth:`repro.analyses.common.base.Analysis.applicable_backends`, the
#: :class:`repro.api.Registry` -- go through the accessor functions below.
_EXTRA_INCREMENTAL: List[str] = []
_EXTRA_DYNAMIC: List[str] = []

#: The names shipped by this library; plugins may not shadow them (the
#: analyses hard-code some as defaults, and family membership of a
#: built-in is fixed).
_BUILTIN_NAMES = frozenset(BACKENDS)


def incremental_backends() -> Tuple[str, ...]:
    """Backends able to serve the incremental-only analyses, including any
    registered via :func:`register_backend`."""
    return INCREMENTAL_BACKENDS + tuple(_EXTRA_INCREMENTAL)


def dynamic_backends() -> Tuple[str, ...]:
    """Backends able to serve the fully dynamic (deletion-based) analyses,
    including any registered via :func:`register_backend`."""
    return DYNAMIC_BACKENDS + tuple(_EXTRA_DYNAMIC)


def register_backend(name: str, backend_cls: Type[PartialOrder], *,
                     incremental: Optional[bool] = None,
                     dynamic: Optional[bool] = None) -> None:
    """Register an external :class:`PartialOrder` implementation.

    Makes ``name`` resolvable through :func:`make_partial_order` and adds it
    to the applicable-backend sets the analyses, the sweep planner, and the
    fuzzer consult.  ``incremental``/``dynamic`` control which analysis
    families may use it; when both are omitted they are inferred from the
    class's ``supports_deletion`` flag (deletion-capable backends serve the
    fully dynamic analyses, the rest serve the incremental ones).

    Re-registering a previously registered plugin name replaces it
    (mirroring :func:`repro.trace.generators.register_generator`), but the
    built-in names cannot be shadowed: analyses hard-code some of them as
    defaults and their family membership is part of the paper's protocol.
    """
    if not name or not isinstance(name, str):
        raise ReproError(f"backend name must be a non-empty string, "
                         f"got {name!r}")
    if name in _BUILTIN_NAMES:
        raise ReproError(f"cannot replace built-in backend {name!r}; "
                         f"register the variant under a new name")
    if not (isinstance(backend_cls, type)
            and issubclass(backend_cls, PartialOrder)):
        raise ReproError(f"backend {name!r} must be a PartialOrder subclass, "
                         f"got {backend_cls!r}")
    if incremental is None and dynamic is None:
        # ``supports_deletion`` is a plain class attribute on every backend.
        if bool(getattr(backend_cls, "supports_deletion", False)):
            dynamic = True
        else:
            incremental = True
    BACKENDS[name] = backend_cls
    for flag, extras in ((incremental, _EXTRA_INCREMENTAL),
                         (dynamic, _EXTRA_DYNAMIC)):
        if name in extras:
            extras.remove(name)
        if flag:
            extras.append(name)


def unregister_backend(name: str) -> None:
    """Remove a plugin-registered backend (no-op for unknown names).

    The built-in backends cannot be unregistered; attempting to is an
    error, because analyses hard-code them as defaults.
    """
    if name in _BUILTIN_NAMES:
        raise ReproError(f"cannot unregister built-in backend {name!r}")
    BACKENDS.pop(name, None)
    for extras in (_EXTRA_INCREMENTAL, _EXTRA_DYNAMIC):
        if name in extras:
            extras.remove(name)


def backend_options(kind: str) -> Optional[FrozenSet[str]]:
    """The keyword options the constructor of backend ``kind`` takes
    besides ``num_chains`` and ``capacity_hint`` (which the analyses pass
    themselves).

    ``None`` when any keyword may pass: the constructor takes
    ``**kwargs``, or ``kind`` names no backend (which
    :func:`make_partial_order` reports).
    """
    backend_cls = BACKENDS.get(kind)
    if backend_cls is None:
        return None
    parameters = inspect.signature(backend_cls).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in parameters):
        return None
    return frozenset(
        p.name for p in parameters
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        and p.name not in ("num_chains", "capacity_hint"))


def make_partial_order(kind: str, num_chains: int, capacity_hint: int = 1024,
                       **kwargs) -> PartialOrder:
    """Instantiate a partial-order backend by name.

    Parameters
    ----------
    kind:
        A key of :data:`BACKENDS`: ``"csst"``, ``"incremental-csst"``,
        ``"st"``, ``"vc-flat"`` or ``"graph"`` (plus any
        backend registered at runtime).
    num_chains:
        Number of chains of the maintained chain DAG.
    capacity_hint:
        Expected number of events per chain.
    kwargs:
        Extra keyword arguments forwarded to the backend constructor (e.g.
        ``block_size`` for ``csst``; see :func:`backend_options`).

    Raises
    ------
    ReproError
        If ``kind`` does not name a known backend.
    """
    try:
        backend_cls = BACKENDS[kind]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ReproError(f"unknown partial-order backend {kind!r}; known: {known}")
    return backend_cls(num_chains, capacity_hint, **kwargs)
