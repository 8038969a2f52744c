"""Human-readable reports and the workload-targeting checks."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from perfbench.layers import LAYERS


def _value(value: float) -> str:
    if isinstance(value, float) and value != int(value):
        return f"{value:.6g}"
    return f"{int(value)}" if float(value).is_integer() else str(value)


def render_one(record: Dict[str, Any], path: str) -> str:
    prov = record["provenance"]
    lines = [f"# {prov['workload']} seed={prov['seed']} "
             f"trace={int(prov['trace'])} commit={prov['commit']} "
             f"python={prov['python']} nproc={prov['nproc']} "
             f"inputs={len(prov['inputs'])} files"]
    for name, (value, unit) in record["metrics"].items():
        lines.append(f"  {name:32s} {_value(value):>14s} {unit}")
    for name, value in sorted(record.get("report", {}).items()):
        lines.append(f"  ({name}){'':{max(0, 30 - len(name))}s} "
                     f"{_value(value):>14s}")
    lines.append(f"  attempted={record['attempted']} "
                 f"failed={record['failed']}")
    for failure in record.get("failures", ()):
        lines.append(f"  FAILED: {failure}")
    lines.append(f"  record: {path}")
    return "\n".join(lines)


def _metric(record: Dict[str, Any], name: str) -> float:
    return float(record["metrics"][name][0])


def _share(record: Dict[str, Any], layer: str) -> float:
    self_s = record["layer_self_s"]
    total = sum(self_s.values())
    return self_s.get(layer, 0.0) / total if total else 0.0


def targeting(traced: Dict[str, Dict[str, Any]]
              ) -> List[Tuple[bool, str]]:
    """Does each workload stress what it claims?  ``traced`` maps a
    workload name to its traced-run record."""
    checks: List[Tuple[bool, str]] = []
    serve_names = [name for name in traced if name.startswith("serve-")]
    others = [name for name in traced if name not in serve_names]

    rerun = {name: _rerun_share(record) for name, record in traced.items()}
    checks.append((
        rerun["watch"] >= 0.5 and max(rerun, key=rerun.get) == "watch",
        "stream flushes and checkpoints (inclusive of the batch re-runs "
        "they trigger) take most of watch's wall time, and more of it "
        "than on any other workload (" + ", ".join(
            f"{name} {share:.1%}" for name, share in rerun.items()) + ")"))
    checks.append((
        _share(traced["analyze"], "stream") == 0.0,
        "stream.* is zero on analyze"))
    for metric in ("stream.checkpoint_s", "stream.rerun_ratio"):
        nonzero = [name for name, record in traced.items()
                   if _metric(record, metric) > 0]
        checks.append((nonzero == ["watch"],
                       f"{metric} is non-zero only on watch "
                       f"(non-zero on: {', '.join(nonzero) or 'none'})"))
    for name in others:
        busy = {metric: _metric(traced[name], metric) for metric in
                ("serve.ingest_s", "serve.wire_parse_s",
                 "serve.shard_feed_s", "serve.ingest_calls")}
        checks.append((not any(busy.values()),
                       f"serve.* is zero on {name}"))
    for name in serve_names:
        checks.append((_metric(traced[name], "serve.ingest_calls") > 0,
                       f"serve.ingest_calls is non-zero on {name}"))
    nonzero = [name for name, record in traced.items()
               if _metric(record, "core.delete_calls") > 0]
    checks.append((nonzero == ["analyze"],
                   f"core.delete_calls is non-zero only on analyze "
                   f"(non-zero on: {', '.join(nonzero) or 'none'})"))
    analyze_query = _layer_share(traced["analyze"], "core.query")
    serve_query = _layer_share(traced["serve-saturate"], "core.query")
    checks.append((analyze_query > serve_query,
                   f"core.query_s is a larger share of self time on "
                   f"analyze ({analyze_query:.1%}) than on serve-saturate "
                   f"({serve_query:.1%})"))
    for name, record in traced.items():
        ratio = _metric(record, "bench.attributed_ratio")
        floor = 0.0 if name == "serve-paced" else 0.8
        checks.append((floor <= ratio <= 1.05,
                       f"layer self times account for {ratio:.1%} of the "
                       f"traced wall time on {name} (want "
                       f"{floor:.0%}..105%)"))
    return checks


def _rerun_share(record: Dict[str, Any]) -> float:
    totals = record["layer_total_s"]
    wall = record["traced_wall_s"]
    busy = totals.get("stream.flush", 0.0) \
        + totals.get("stream.checkpoint", 0.0)
    return busy / wall if wall else 0.0


def _layer_share(record: Dict[str, Any], layer: str) -> float:
    total = sum(record["layer_self_s"].values())
    return (record["layer_detail_self_s"].get(layer, 0.0) / total
            if total else 0.0)


def render_all(records: Dict[Tuple[str, bool], Dict[str, Any]],
               names: Sequence[str]) -> Tuple[str, bool]:
    """The one-command report: every metric of every workload, then the
    targeting checks.  Returns the text and whether everything held."""
    ok = True
    lines: List[str] = []
    for name in names:
        plain, traced = records[(name, False)], records[(name, True)]
        prov = plain["provenance"]
        lines.append(f"== {name}  seed={prov['seed']} "
                     f"commit={prov['commit']} nproc={prov['nproc']} "
                     f"python={prov['python']}")
        failed_ratio = plain["failed"] / plain["attempted"]
        ok = ok and plain["failed"] == 0 and traced["failed"] == 0
        lines.append(f"  {'failed_ratio':34s} {failed_ratio:>14.6g} "
                     f"({plain['failed']}/{plain['attempted']})")
        for metric, (value, unit) in plain["metrics"].items():
            lines.append(f"  {metric:34s} {_value(value):>14s} {unit}")
        for metric, value in sorted(plain.get("report", {}).items()):
            lines.append(f"  {metric:34s} {_value(value):>14s}")
        lines.append("  -- traced run: per-layer metrics")
        for metric, (value, unit) in traced["metrics"].items():
            lines.append(f"  {metric:34s} {_value(value):>14s} {unit}")
        self_s = traced["layer_self_s"]
        total = sum(self_s.values()) or 1.0
        lines.append("  self time by layer: " + ", ".join(
            f"{layer} {self_s.get(layer, 0.0) / total:.1%}"
            for layer in LAYERS))
    lines.append("== workload targeting")
    for passed, text in targeting({name: records[(name, True)]
                                   for name in names}):
        ok = ok and passed
        lines.append(f"  [{'ok' if passed else 'FAIL'}] {text}")
    return "\n".join(lines), ok
