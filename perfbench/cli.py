"""Command line: run one workload (as BENCHMARK.json names it) or all of them.

``run.py --workload NAME --seed N --seconds S --trace 0|1`` prints a
human-readable report and, as the last line of standard output, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The full record (provenance, every figure,
failures) is also written under ``.bench_build/perfbench/results/``.

``run.py --workload all`` runs every workload untraced and traced (each
in its own process), prints every metric by name with its unit, the
per-workload figures the end-to-end metrics stand for, and the
workload-targeting report; it exits non-zero if any run failed or any
targeting check did not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench import common, inputs as spec, layers, report
from perfbench.common import BenchError

END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


# --------------------------------------------------------------------------- #
# One workload
# --------------------------------------------------------------------------- #
def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    """Run one workload; returns the full record."""
    common.check_checkout()
    directory = common.work_dir("run", f"{name}-seed{seed}-{os.getpid()}")
    try:
        return _run(name, seed, seconds, trace, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _run(name: str, seed: int, seconds: float, trace: bool,
         directory: str) -> Dict[str, Any]:
    from repro.api import Session
    from perfbench.workloads import WORKLOADS

    generated = spec.make_inputs(name, seed, directory)
    workload = WORKLOADS[name](generated, Session, directory)
    workload.prepare()

    record: Dict[str, Any] = {
        "provenance": common.provenance(name, seed, trace,
                                        generated.digests),
    }
    if not trace:
        serve = name.startswith("serve-")
        probes = common.SetupProbes(
            _first_line(generated) if serve else None, seconds)
        measured = workload.measure(seconds, between=probes.between)
        setup_s = probes.finish()
        record["setup_samples_s"] = probes.samples
        record["setup_samples_unscaled_s"] = probes.raw
        # The serve workers (or server process) are the workload's own
        # children; analyze and watch have none.
        peak_rss_mb = common.peak_rss_mb(probes.children_kb if serve else 0)
        latencies = measured.latencies_ms
        tail = common.tail_percentile(len(latencies))
        values = {
            "setup_s": setup_s,
            "events_per_s": measured.rate,
            "latency_p50_ms": measured.latency_ms,
            "peak_rss_mb": peak_rss_mb,
        }
        record["metrics"] = {key: (value, END_TO_END_UNITS[key])
                             for key, value in values.items()}
        record["report"] = dict(measured.report)
        record["report"].update({
            "latency_samples": len(latencies),
            f"latency_p{tail:g}_ms": common.percentile(latencies, tail),
            "failed_ratio": (measured.failed / measured.attempted
                             if measured.attempted else 0.0),
            "passes": measured.passes,
        })
        if name == "serve-paced":
            record["report"]["serve_finding_latency_p50_ms"] = \
                measured.latency_ms
            record["report"][f"serve_finding_latency_p{tail:g}_ms"] = \
                common.percentile(latencies, tail)
    else:
        measured, values, stats = _traced(name, workload, seconds)
        record["metrics"] = {key: (value, layers.METRICS[key][0])
                             for key, value in values.items()}
        record["layer_self_s"] = layers.layer_self_seconds(stats)
        record["layer_detail_self_s"] = dict(stats.self_s)
        record["layer_total_s"] = dict(stats.total_s)
        record["traced_wall_s"] = measured.wall_s
    record.update({
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "failures": measured.failures,
    })
    return record


def _first_line(generated: spec.Inputs) -> str:
    """The wire text of the first event of the first input file."""
    from repro.trace import read_trace
    from repro.trace.formats import format_event

    first = next(iter(generated.files.values()))[0]
    return format_event(read_trace(first)[0])


def _traced(name: str, workload, seconds: float
            ) -> Tuple[Any, Dict[str, float], layers.Stats]:
    """One untraced unit of work, then the traced run for the rest of
    the time; per-layer metrics from the traced part."""
    from repro.api import Session
    from repro.obs import metrics as obs_metrics

    paced = name == "serve-paced"
    base_seconds = seconds / 3.0 if paced else 0.0
    base = workload.measure(base_seconds)

    recorder = layers.Recorder()
    registry = obs_metrics.MetricsRegistry()
    if name == "serve-saturate":
        # Telemetry on, so the worker ships its layer counters back.
        workload.session_factory = lambda: Session(metrics=registry)
    remaining = max(seconds - base.wall_s, seconds / 3.0)
    if paced:
        measured = workload.measure(remaining, trace=True)
        for side in ("local", "remote"):
            stats = getattr(recorder, side)
            for field, values in measured.child_layers[side].items():
                getattr(stats, field).update(values)
    else:
        installation = layers.install(recorder)
        try:
            measured = workload.measure(remaining)
        finally:
            installation.remove()
        snapshot = registry.snapshot()
        recorder.absorb(snapshot)
        measured.backpressure_waits = sum(
            entry["value"] for entry in snapshot["counters"]
            if entry["name"] == "serve_backpressure_waits_total")

    metrics = layers.layer_metrics(
        recorder, measured.wall_s, measured.events,
        serve_wall_s=measured.serve_wall_s,
        backpressure_waits=measured.backpressure_waits,
        merged_findings=measured.merged_findings,
        emitted_findings=measured.emitted_findings)
    metrics["bench.trace_overhead_ratio"] = (
        measured.unit_cost / base.unit_cost if base.unit_cost else 0.0)
    if paced:
        metrics["bench.generator_lag_p99_ms"] = common.percentile(
            measured.generator_lag_ms, 99.0)
    measured.failed += base.failed
    measured.attempted += base.attempted
    measured.failures = (base.failures + measured.failures)[:5]
    return measured, metrics, recorder.local.merged(recorder.remote)


def _write_record(record: Dict[str, Any]) -> str:
    prov = record["provenance"]
    path = os.path.join(
        common.work_dir("results"),
        f"{prov['workload']}-seed{prov['seed']}-trace{int(prov['trace'])}"
        f".json")
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(record, stream, indent=1, sort_keys=True, default=list)
    return path


def main_one(args) -> int:
    started = time.perf_counter()
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    record["elapsed_s"] = time.perf_counter() - started
    path = _write_record(record)
    print(report.render_one(record, path))
    print(common.result_line(record["correct"], record["attempted"],
                             record["failed"], record["metrics"]))
    return 0


# --------------------------------------------------------------------------- #
# All workloads
# --------------------------------------------------------------------------- #
def _run_child(workload: str, seed: int, seconds: float,
               trace: bool) -> Dict[str, Any]:
    """Run one workload in a fresh process; returns its full record."""
    command = [sys.executable, os.path.join(common.ROOT, "perfbench",
                                            "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(command, cwd=common.ROOT, capture_output=True,
                         text=True, timeout=600)
    if out.returncode != 0:
        raise BenchError(f"{workload} (trace {int(trace)}) failed:\n"
                         f"{out.stderr.strip()}")
    path = os.path.join(common.work_dir("results"),
                        f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


def main_all(args) -> int:
    records: Dict[Tuple[str, bool], Dict[str, Any]] = {}
    for workload in WORKLOAD_NAMES:
        for trace in (False, True):
            print(f"running {workload} (trace {int(trace)}) ...",
                  file=sys.stderr, flush=True)
            records[(workload, trace)] = _run_child(workload, args.seed,
                                                    args.seconds, trace)
    text, ok = report.render_all(records, WORKLOAD_NAMES)
    print(text)
    return 0 if ok else 1


WORKLOAD_NAMES = ("analyze", "watch", "serve-saturate", "serve-paced")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Layered benchmark of the repro analysis system.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return main_all(args)
        return main_one(args)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
