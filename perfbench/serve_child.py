"""The ``serve-paced`` server process.

Runs ``run_serve`` in socket mode with one worker on an ephemeral port,
prints ``PORT <n>`` once listening, and serves until SIGINT.  It then
prints one JSON document: every merged finding stamped with
``time.monotonic()`` at delivery (the clock is system-wide, so the
client compares it with its own due times), the tenant summaries and
errors, the time the last summary arrived, the CPU seconds of this
process and its worker, and -- with ``--trace 1`` -- the raw per-layer
stats of both.

Run as ``python3 -m perfbench.serve_child --trace 0|1`` with ``src`` and
the checkout root on ``PYTHONPATH``.
"""

import argparse
import contextlib
import json
import signal
import time


def _stats_document(stats) -> dict:
    return {field: dict(getattr(stats, field))
            for field in ("self_s", "total_s", "calls", "counts")}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A shell starting the benchmark in the background leaves SIGINT
    # ignored, and the child would inherit that; the stop signal must
    # reach run_serve as an interrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from perfbench import inputs as spec
    from perfbench.common import cpu_seconds
    from repro.obs import metrics as obs_metrics
    from repro.serve.service import run_serve

    recorder = installation = registry = None
    if args.trace:
        from perfbench import layers

        recorder = layers.Recorder()
        installation = layers.install(recorder)
        registry = obs_metrics.MetricsRegistry()

    findings = []
    marks = {}

    def on_finding(item) -> None:
        findings.append([item.tenant, item.analysis, item.position,
                         item.finding, time.monotonic()])

    def on_notice(kind: str, message: str) -> None:
        if message.startswith("listening on "):
            print(f"PORT {message.rsplit(':', 1)[1]}", flush=True)
        elif " -> worker " in message:
            marks.setdefault("first", time.monotonic())
        elif " done: " in message:
            marks["last"] = time.monotonic()

    scope = (obs_metrics.use_registry(registry) if registry is not None
             else contextlib.nullcontext())
    try:
        with scope:
            outcome = run_serve(spec.SERVE_ANALYSES, host="127.0.0.1",
                                port=0, workers=1, on_finding=on_finding,
                                on_notice=on_notice)
    finally:
        if installation is not None:
            installation.remove()
    document = {
        "findings": findings,
        "summaries": outcome.summaries,
        "errors": outcome.errors,
        "first_ingest": marks.get("first", 0.0),
        "last_summary": marks.get("last", 0.0),
        "cpu_s": cpu_seconds(),
    }
    if recorder is not None:
        snapshot = registry.snapshot()
        recorder.absorb(snapshot)
        document["layers"] = {
            "local": _stats_document(recorder.local),
            "remote": _stats_document(recorder.remote),
        }
        document["backpressure_waits"] = sum(
            entry["value"] for entry in snapshot["counters"]
            if entry["name"] == "serve_backpressure_waits_total")
    print(json.dumps(document))


if __name__ == "__main__":
    main()
