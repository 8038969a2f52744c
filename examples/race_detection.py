#!/usr/bin/env python3
"""Predictive race detection through the ``repro.api`` facade.

Generates a shared-memory trace with both lock-protected and unprotected
accesses, runs the M2-style race prediction analysis with every incremental
partial-order backend through one :class:`repro.api.Session`, and reports
the predicted races together with the number of partial-order operations
each backend served -- the drop-in comparison at the heart of the paper's
evaluation, with zero orchestration code on the caller's side.

Run with:  python examples/race_detection.py
"""

from repro.api import AnalyzeConfig, CompareConfig, GenerateConfig, Session


def main() -> None:
    session = Session()

    generated = session.run(GenerateConfig(
        kind="racy",
        threads=4,
        events=400,
        seed=7,
        name="example-racy-workload",
        params={"num_variables": 24, "num_locks": 3,
                "protected_fraction": 0.55},
    ))
    trace = generated.trace
    print(f"trace: {len(trace)} events, {trace.num_threads} threads")

    # One config, every applicable backend; the session loads nothing from
    # disk because we hand it the live trace.  Analysis tunables travel in
    # params -- candidate_window=10 matches the pre-facade version of this
    # example.
    compared = session.compare(
        CompareConfig(analysis="race-prediction", trace=trace.name,
                      backends="st,incremental-csst,vc-flat",
                      params={"candidate_window": 10}),
        trace=trace)
    for run in compared.runs:
        print(
            f"  {run.backend:18s} {run.elapsed_seconds:6.2f}s  "
            f"{run.finding_count:3d} races  "
            f"{run.insert_count:6d} inserts  {run.query_count:8d} queries"
        )

    # All backends must agree on the findings -- they only differ in speed.
    counts = {run.finding_count for run in compared.runs}
    assert len(counts) == 1, "backends disagree on the predicted races!"

    # The same request as data: the structured result exports itself.
    document = compared.to_dict()
    assert [row["backend"] for row in document["runs"]] == \
        ["st", "incremental-csst", "vc-flat"]

    analyzed = session.analyze(
        AnalyzeConfig(analysis="race-prediction", trace=trace.name,
                      backend="incremental-csst",
                      params={"candidate_window": 10}),
        trace=trace)
    print("\npredicted races (first five):")
    for race in analyzed.raw.findings[:5]:
        print(f"  {race}")
    print("\nrace_detection example finished OK")


if __name__ == "__main__":
    main()
