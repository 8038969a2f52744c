"""Golden analysis results across the paper's backends.

``CASES`` lists, per analysis, three seeded traces (one of them with 16
threads).  For every case and every applicable backend among
``BACKENDS``, the golden records the findings (as strings), the result
``details`` and the ``insert``/``query``/``delete`` operation counts.
``test_golden_parity.py`` re-runs every case and asserts that the
rendered JSON is byte-identical to the checked-in
``tests/analyses/data/golden_parity.json``.

The golden pins answers *and* operation mix: a refactor of a backend
must not change what any analysis finds or how many partial-order
operations it issues.  Regenerate the file ONLY on a deliberate change
of an analysis's answers or query pattern, with::

    PYTHONPATH=src python tests/analyses/make_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.analyses.common.base import Analysis
from repro.trace.generators import build_trace

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_parity.json"

#: The backends the golden covers, in rendering order.
BACKENDS = ("incremental-csst", "csst", "st", "vc-flat")

#: analysis -> (generator kind, [(num_threads, events, seed), ...]).
CASES: Dict[str, Tuple[str, List[Tuple[int, int, int]]]] = {
    "race-prediction": ("racy", [(2, 120, 11), (4, 80, 12), (16, 20, 13)]),
    "deadlock-prediction": ("deadlock",
                            [(2, 120, 21), (4, 80, 22), (16, 20, 23)]),
    "memory-bugs": ("memory", [(2, 120, 31), (4, 80, 32), (16, 20, 33)]),
    "use-after-free": ("memory", [(2, 120, 41), (4, 80, 42), (16, 20, 43)]),
    "tso-consistency": ("tso", [(2, 120, 51), (4, 80, 52), (16, 20, 53)]),
    "c11-races": ("c11", [(2, 120, 61), (4, 80, 62), (16, 20, 63)]),
    # The linearizability search is exponential in concurrent operations,
    # so its 16-thread history has one operation per thread.
    "linearizability": ("history", [(2, 8, 71), (3, 6, 72), (16, 1, 73)]),
}


def case_id(analysis: str, shape: Tuple[int, int, int]) -> str:
    threads, events, seed = shape
    return f"{analysis}/{threads}x{events}/seed{seed}"


def run_case(analysis: str, shape: Tuple[int, int, int]) -> Dict[str, dict]:
    """Per-backend records for one case (applicable backends only)."""
    kind, _shapes = CASES[analysis]
    threads, events, seed = shape
    trace = build_trace(kind, num_threads=threads, events=events, seed=seed)
    analysis_cls = Analysis.by_name(analysis)
    applicable = set(analysis_cls.applicable_backends())
    records: Dict[str, dict] = {}
    for backend in BACKENDS:
        if backend not in applicable:
            continue
        result = analysis_cls(backend).run(trace)
        records[backend] = {
            "findings": [str(finding) for finding in result.findings],
            "details": result.details,
            "insert_count": result.insert_count,
            "query_count": result.query_count,
            "delete_count": result.delete_count,
        }
    return records


def build_golden() -> Dict[str, Dict[str, dict]]:
    return {case_id(analysis, shape): run_case(analysis, shape)
            for analysis, (_kind, shapes) in CASES.items()
            for shape in shapes}


def render(golden: Dict[str, Dict[str, dict]]) -> str:
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


def main() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(render(build_golden()), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
