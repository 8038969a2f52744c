"""Crossover experiment: TSO consistency time versus trace length.

The paper's advantage for CSSTs over Vector Clocks appears when traces are
long relative to the thread count (insertions deep in the order then cost
Vector Clocks O(n) each).  This benchmark measures the TSO consistency
analysis over 3-thread traces of growing length on every incremental
backend, so the regime change is visible in the scaled-down reproduction.

The full grid -- every analysis, every applicable backend, 4/16/64
threads at two lengths plus one long 4-thread cell, min and median of 5
runs -- is the committed crossover table, ``docs/tables/crossover.md``
(``repro sweep --suite crossover --repeat 5``, rendered by
``repro report crossover``).  Each analysis's default backend is that
table's pick.  The table shows tso-consistency as the analysis where the
CSST advantage reproduces, on long few-thread traces; it also shows where
it does not (race-prediction and c11-races, whose default is ``vc-flat``).
"""

import pytest

from repro.analyses.tso import TSOConsistencyAnalysis
from repro.core import INCREMENTAL_BACKENDS
from repro.trace.generators import tso_trace

EVENTS_PER_THREAD = (400, 800, 1600)


@pytest.mark.parametrize("backend", INCREMENTAL_BACKENDS)
@pytest.mark.parametrize("events", EVENTS_PER_THREAD)
def test_crossover_tso(benchmark, backend, events):
    trace = tso_trace(
        num_threads=3,
        events_per_thread=events,
        num_variables=max(8, events // 25),
        stale_read_fraction=0.15,
        seed=9,
    )
    analysis = TSOConsistencyAnalysis(backend)
    result = benchmark.pedantic(lambda: analysis.run(trace), rounds=1, iterations=1)
    benchmark.extra_info["events_per_thread"] = events
    benchmark.extra_info["inserts"] = result.insert_count
    benchmark.extra_info["consistent"] = result.details["consistent"]
    assert isinstance(result.details["consistent"], bool)
