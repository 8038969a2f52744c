#!/usr/bin/env python3
"""Tour of the ``repro.api`` facade: configs in, structured results out.

Walks the full surface the CLI is a shim over: capability introspection,
trace generation, analysis, a parallel sweep, a streaming watch, and a
config dict round-trip -- all in-process, no subprocesses.

Run with:  python examples/api_tour.py
"""

import tempfile
from pathlib import Path

from repro.api import (
    AnalyzeConfig,
    GenerateConfig,
    Session,
    SweepConfig,
    WatchConfig,
)
from repro.trace import dump_trace


def main() -> None:
    session = Session()

    # 1. Introspection: what can this install do?
    caps = session.capabilities()
    print(f"repro {caps['version']}: {len(caps['analyses'])} analyses, "
          f"{len(caps['backends'])} backends, {len(caps['kinds'])} workload "
          f"kinds, {len(caps['suites'])} suites")

    # 2. Generate a workload and analyze it.
    with tempfile.TemporaryDirectory(prefix="repro-api-tour-") as workdir:
        _tour(session, Path(workdir))

    print("api_tour example finished OK")


def _tour(session: Session, workdir: Path) -> None:
    trace_path = workdir / "racy.std"
    generated = session.run(GenerateConfig(kind="racy", threads=3,
                                           events=80, seed=11))
    dump_trace(generated.trace, trace_path)
    print(f"generated {generated.to_table()}")

    analyzed = session.run(AnalyzeConfig(analysis="race-prediction",
                                         trace=str(trace_path),
                                         max_findings=3))
    print(analyzed.to_table())

    # 3. Sweep a registered suite; the result aggregates like the paper.
    sweep = session.run(SweepConfig(suite="smoke",
                                    analyses="race-prediction",
                                    backends="vc-flat,incremental-csst",
                                    baseline="vc-flat"))
    assert sweep.exit_code == 0, "sweep reported failures"
    document = sweep.to_dict()
    print(f"sweep: {document['jobs']} jobs, {document['failures']} failures, "
          f"speedups over vc-flat: {document['speedups']}")

    # 4. Watch the same trace as a stream, receiving findings live.
    live = []
    watched = session.run(
        WatchConfig(source=str(trace_path), analyses="race_prediction",
                    flush_every=40),
        on_finding=lambda item: live.append(item))
    print(f"watch: {len(live)} findings streamed, summary: "
          f"{watched.stream.summary()}")

    # 5. Configs are data: serialize, ship, rebuild, compare.
    config = SweepConfig(suite="smoke", jobs=2, format="json")
    rebuilt = SweepConfig.from_dict(config.to_dict())
    assert rebuilt == config, "config dict round-trip must be lossless"
    print(f"config round-trip OK: {config.to_dict()}")


if __name__ == "__main__":
    main()
