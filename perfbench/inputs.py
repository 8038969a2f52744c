"""Seeded inputs for every workload.

The benchmark derives every input from the ``--seed`` argument and hands
the program only the generated files (and, for ``serve-paced``, the wire
lines made from them).  The same seed gives byte-identical files; their
SHA-256 digests go into the run's provenance record.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: analysis -> (generator kind, threads, events per thread, files per pass).
#: Several small files per analysis rather than one big one, so that no
#: single seed's trace shape dominates a run.
ANALYZE_CORPUS: Dict[str, Tuple[str, int, int, int]] = {
    "race-prediction": ("racy", 4, 150, 12),
    "deadlock-prediction": ("deadlock", 4, 150, 12),
    "tso-consistency": ("tso", 4, 200, 12),
    "memory-bugs": ("memory", 8, 500, 12),
    "use-after-free": ("memory", 8, 500, 12),
    "c11-races": ("c11", 8, 350, 12),
    "linearizability": ("history", 3, 6, 12),
}

#: Linearizability's commit-order search is exponential in the worst
#: case: a 4x10 history can take 0.002 s on one seed and 25 s on the
#: next.  3x6 histories keep every seed's cost in range, and the step
#: bound -- which 3 of the 240 3x6 histories of seeds 1-20 reach -- keeps
#: an unlucky seed from stalling a run.  A search that hits it reports the
#: ``unknown`` verdict; the run counts those and checks every verdict.
ANALYZE_PARAMS: Dict[str, Tuple[Tuple[str, object], ...]] = {
    "linearizability": (("max_steps", 2000),),
}

#: The second backend each analysis's findings are checked against.
REFERENCE_BACKEND = {name: "vc-flat" for name in ANALYZE_CORPUS}
REFERENCE_BACKEND["linearizability"] = "graph"

WATCH_ANALYSES = ("race-prediction", "c11-races")
WATCH_STREAMS = 56           #: producer-consumer streams per pass
WATCH_SHAPE = (4, 40)        #: threads, events per thread
#: The family's knobs, pinned so streams differ by schedule, not shape.
WATCH_PARAMS = {"queue_capacity": 2, "racy_aggregate_fraction": 0.35,
                "write_fraction": 0.5}
WATCH_FLUSH_EVERY = 50
WATCH_CHECKPOINT_EVERY = 100

SERVE_ANALYSES = ("c11-races",)
SATURATE_TENANTS = 8
SATURATE_SHAPE = (8, 125)

PACED_POOL = 8               #: distinct session streams, reused in turn
PACED_SHAPE = (8, 40)
PACED_LIVE = 4               #: sessions live at any moment
PACED_RATE = 2000.0          #: offered events per second


@dataclass
class Inputs:
    """The generated files of one workload plus their digests."""

    files: Dict[str, List[str]] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    events: Dict[str, int] = field(default_factory=dict)


def _sub_seed(seed: int, group: str, index: int) -> int:
    digest = hashlib.sha256(f"{seed}/{group}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _write(inputs: Inputs, group: str, path: str, trace) -> None:
    from repro.trace import dump_trace, write_trace_stc

    if path.endswith(".stc"):
        write_trace_stc(trace, path)
    else:
        dump_trace(trace, path)
    with open(path, "rb") as stream:
        inputs.digests[os.path.basename(path)] = \
            hashlib.sha256(stream.read()).hexdigest()
    inputs.files.setdefault(group, []).append(path)
    inputs.events[path] = len(trace)


def _generate(inputs: Inputs, directory: str, group: str, kind: str,
              threads: int, events: int, count: int, seed: int,
              suffix: str, **params) -> None:
    from repro.trace.generators import build_trace

    for index in range(count):
        sub = _sub_seed(seed, group, index)
        trace = build_trace(kind, num_threads=threads, events=events,
                            seed=sub, name=f"{group}-{index}", **params)
        _write(inputs, group, os.path.join(
            directory, f"{group}-{index}{suffix}"), trace)


def make_inputs(workload: str, seed: int, directory: str) -> Inputs:
    """Generate ``workload``'s inputs for ``seed`` under ``directory``."""
    os.makedirs(directory, exist_ok=True)
    inputs = Inputs()
    if workload == "analyze":
        made: Dict[Tuple[str, int, int, int], str] = {}
        for analysis, spec in ANALYZE_CORPUS.items():
            if spec in made:  # memory traces feed two analyses
                inputs.files[analysis] = inputs.files[made[spec]]
                continue
            kind, threads, events, count = spec
            _generate(inputs, directory, analysis, kind, threads, events,
                      count, seed, ".std")
            made[spec] = analysis
    elif workload == "watch":
        _generate(inputs, directory, "watch", "producer-consumer",
                  *WATCH_SHAPE, WATCH_STREAMS, seed, ".stc", **WATCH_PARAMS)
    elif workload == "serve-saturate":
        _generate(inputs, directory, "tenant", "c11", *SATURATE_SHAPE,
                  SATURATE_TENANTS, seed, ".stc")
    elif workload == "serve-paced":
        _generate(inputs, directory, "session", "c11", *PACED_SHAPE,
                  PACED_POOL, seed, ".stc")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs
