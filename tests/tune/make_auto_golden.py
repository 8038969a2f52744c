"""Golden ``auto`` picks: which backend the ``auto`` rule chooses.

For every registered analysis, every generator kind that feeds it
(``Session.capabilities()["analyses"][name]["fed_by"]``), seeds 1-3 and
2 and 8 threads, the golden records the backend ``auto`` resolves to on
each of the three paths that resolve it:

* ``batch``: ``Analysis(AUTO_BACKEND).run(trace)``;
* ``stream``: ``StreamEngine([name], backend="auto")``;
* ``serve``: the inline ``workers=0`` service, one tenant per trace.

The rule reads no trace (the pick is the analysis's default, from the
crossover table), so every path resolves when the analysis is built and
all three agree on every trace; the golden pins that.

It also covers the empty trace for every analysis and the
``serve-saturate`` tenant shape (c11, 8 threads x 125 events).
``test_auto_golden.py`` re-runs every case and asserts that the rendered
JSON is byte-identical to ``tests/tune/data/auto_picks.json``.
Regenerate the file ONLY on a deliberate change of the ``auto`` rule,
with::

    PYTHONPATH=src python tests/tune/make_auto_golden.py
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analyses.common.base import Analysis
from repro.api import Session
from repro.core import AUTO_BACKEND
from repro.serve.service import run_serve
from repro.stream.engine import StreamEngine
from repro.trace.generators import build_trace
from repro.trace.trace import Trace

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "auto_picks.json"

SEEDS = (1, 2, 3)
THREADS = (2, 8)
#: Events per thread.
EVENTS = 24
#: The linearizability search is exponential in concurrent operations.
HISTORY_EVENTS = 1
#: The ``serve-saturate`` tenant shape: (kind, analysis, threads, events).
SATURATE_SHAPE = ("c11", "c11-races", 8, 125)


def cases() -> List[Tuple[str, str, Optional[Tuple[str, int, int, int]]]]:
    """``(case id, analysis, (kind, threads, events, seed) or None)``;
    ``None`` stands for the empty trace."""
    fed_by = {name: entry["fed_by"]
              for name, entry in Session().capabilities()["analyses"].items()}
    out = []
    for analysis in sorted(fed_by):
        out.append((f"{analysis}/empty", analysis, None))
        for kind in fed_by[analysis]:
            events = HISTORY_EVENTS if kind == "history" else EVENTS
            for threads in THREADS:
                for seed in SEEDS:
                    out.append((f"{analysis}/{kind}/{threads}x{events}/"
                                f"seed{seed}", analysis,
                                (kind, threads, events, seed)))
    kind, analysis, threads, events = SATURATE_SHAPE
    for seed in SEEDS:
        out.append((f"{analysis}/saturate-{kind}/{threads}x{events}/"
                    f"seed{seed}", analysis, (kind, threads, events, seed)))
    return out


def _serve_pick(analysis: str, trace: Trace, directory: str) -> Optional[str]:
    from repro.trace import dumps_trace

    path = os.path.join(directory, "tenant.std")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_trace(trace))
    outcome = run_serve([analysis], sources=[path], workers=0,
                        backend=AUTO_BACKEND)
    (summary,) = outcome.summaries.values()
    return summary.get("backends_selected", {}).get(analysis)


def run_case(analysis: str, shape: Optional[Tuple[str, int, int, int]],
             directory: str) -> Dict[str, object]:
    if shape is None:
        trace = Trace(name="empty")
    else:
        kind, threads, events, seed = shape
        trace = build_trace(kind, num_threads=threads, events=events,
                            seed=seed)
    batch = Analysis.by_name(analysis)(AUTO_BACKEND).run(trace)
    stream = StreamEngine([analysis], backend=AUTO_BACKEND).run(trace)
    return {
        "events": len(trace),
        "batch": batch.backend,
        "stream": stream.backends_selected.get(analysis),
        "serve": _serve_pick(analysis, trace, directory),
    }


def build_golden() -> Dict[str, Dict[str, object]]:
    with tempfile.TemporaryDirectory() as directory:
        return {case: run_case(analysis, shape, directory)
                for case, analysis, shape in cases()}


def render(golden: Dict[str, Dict[str, object]]) -> str:
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


def main() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(render(build_golden()), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
