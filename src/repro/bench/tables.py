"""The paper's Tables 1-7 and Figure 10 from sweep records.

Each table is a registered sweep suite (:data:`TABLE_SUITES`, declared in
:mod:`repro.runner.corpus`).  ``python -m repro.bench`` runs each through
``run_suite(name, memory=True)`` and renders the result as a paper table
with :meth:`~repro.runner.results.SweepResult.format_pivot`.
Figure 10 (:func:`format_figure10`) is the geometric-mean resource ratio
of each backend over the CSST backend, computed from the same records by
:meth:`~repro.runner.results.SweepResult.speedups`.  Figure 11 is a kernel
protocol, not an analysis run, and lives beside the perf ledger's
``fig11/*`` cases (:func:`repro.bench.perf.run_figure11`).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.bench.perf import BACKEND_LABELS
from repro.runner.results import SweepResult

#: The suites of the paper's tables, in table order.
TABLE_SUITES: Sequence[str] = tuple(f"table{number}" for number in range(1, 8))


def format_figure10(results: Dict[str, SweepResult]) -> str:
    """Figure 10: per table, each backend's geometric-mean time and peak
    memory over the CSST backend's (``csst`` for the deletion-based table,
    else ``incremental-csst``); above 1.0 the backend needs more."""
    lines = ["Figure 10: mean resource ratio over CSSTs", "-" * 60]
    for name, result in results.items():
        reference = "csst" if "csst" in result.backends() else "incremental-csst"
        lines.append(f"{name:12s} time: "
                     f"{_ratios(result, reference, 'elapsed_seconds')}")
        memory = _ratios(result, reference, "peak_bytes")
        if memory:
            lines.append(f"{'':12s} mem : {memory}")
    lines.append("-" * 60)
    return "\n".join(lines)


def _ratios(result: SweepResult, reference: str, metric: str) -> str:
    """Each backend's mean ``metric`` over ``reference``'s: the reciprocal
    of its speedup."""
    return ", ".join(
        f"{BACKEND_LABELS.get(backend, backend)} {1.0 / speedup:.2f}x"
        for backend, speedup in result.speedups(reference, metric=metric).items()
        if speedup > 0)
