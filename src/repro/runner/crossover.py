"""The crossover table: which backend each analysis defaults to, and why.

``repro sweep --suite crossover --repeat 5 --format json`` times every
analysis on each applicable backend over the ``crossover`` grid
(:data:`repro.runner.corpus.CROSSOVER_CELLS`).  :func:`build_table`
merges several such sweeps, keeping the min and median seconds of every
job; the result is committed as ``docs/tables/crossover.json``.
:func:`render_markdown` is a pure function of that document, so
``repro report crossover`` re-renders ``crossover.md`` byte-identically
and CI can ``diff`` it.

The pick rule (:func:`picks`): an analysis runs on the paper's structure
(``incremental-csst``, or ``csst`` for the deletion-based analysis)
unless, on some cell, its min time is more than :data:`SWITCH_RATIO`
times the best backend's.  Then the pick is the backend whose worst
cell is least off the best.  Each analysis's ``default_backend()`` -- and so the ``auto``
pick -- is the table's pick; a test holds them equal.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.errors import ReproError

CROSSOVER_VERSION = 1

#: Table file name (``.json`` document, ``.md`` rendering).
CROSSOVER_BASENAME = "crossover"

#: Worst-cell ratio to the best backend above which the paper's structure
#: is replaced.
SWITCH_RATIO = 1.5

#: How the committed records were produced.
SWEEP_COMMAND = ("python -m repro sweep --suite crossover --repeat 5 "
                 "--jobs 1 --format json")

#: The paper's structures, preferred in this order: the first one an
#: analysis was measured on is the backend the rule starts from.
CSST_BACKENDS = ("incremental-csst", "csst")

#: The vector-clock backend, for the section on where the paper's
#: CSST-over-VC advantage does not reproduce.
VC_BACKEND = "vc-flat"

Cell = Tuple[str, int, int]  # (kind, threads, events per thread)

#: The fields that identify one sweep job.
_JOB_KEYS = ("analysis", "kind", "threads", "events", "seed", "backend")

#: File names of raw sweep documents in a source directory.
SWEEP_PATTERN = "crossover-sweep*.json"


def build_table(sweeps: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The table document of one or more ``crossover`` sweep documents.

    Each job's ``min_s`` is its least min over the sweeps, and
    ``median_s`` the median of the sweeps' medians.  Several sweeps run
    minutes apart keep a slow spell of a shared host, which slows every
    repeat of the jobs it overlaps, from deciding a cell.  A failed job,
    a sweep of another suite, or sweeps of different grids are errors: a
    table with holes would pick on partial evidence.
    """
    if not sweeps:
        raise ReproError("no crossover sweep to build the table from")
    runs: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
    for sweep in sweeps:
        if sweep.get("suite") != "crossover":
            raise ReproError(f"not a crossover sweep: suite "
                             f"{sweep.get('suite')!r}")
        failed = [record for record in sweep["records"]
                  if record["status"] != "ok"]
        if failed:
            raise ReproError(
                f"{len(failed)} crossover jobs did not finish, first: "
                f"{failed[0]['trace_id']} {failed[0]['analysis']} "
                f"[{failed[0]['backend']}] {failed[0]['status']}")
        jobs = [tuple(record[key] for key in _JOB_KEYS)
                for record in sweep["records"]]
        if runs and jobs != list(runs):
            raise ReproError("the crossover sweeps ran different grids")
        for job, record in zip(jobs, sweep["records"]):
            runs.setdefault(job, []).append(record)
    records = []
    for job, found in runs.items():
        record = dict(zip(_JOB_KEYS, job))
        record["repeats"] = sum(item["repeats"] for item in found)
        record["min_s"] = round(min(item["elapsed_seconds"]
                                    for item in found), 6)
        record["median_s"] = round(statistics.median(
            item["elapsed_median_seconds"] for item in found), 6)
        records.append(record)
    return {
        "version": CROSSOVER_VERSION,
        "command": SWEEP_COMMAND,
        "sweeps": len(sweeps),
        "switch_ratio": SWITCH_RATIO,
        "records": records,
    }


def _cells(document: Dict[str, Any], analysis: str
           ) -> Dict[Cell, Dict[str, Dict[str, Any]]]:
    """Per cell of ``analysis``, its records by backend (grid order)."""
    cells: Dict[Cell, Dict[str, Dict[str, Any]]] = {}
    for record in document["records"]:
        if record["analysis"] == analysis:
            cell = (record["kind"], record["threads"], record["events"])
            cells.setdefault(cell, {})[record["backend"]] = record
    return cells


def _backends(cells: Dict[Cell, Dict[str, Dict[str, Any]]]) -> List[str]:
    seen: List[str] = []
    for by_backend in cells.values():
        for backend in by_backend:
            if backend not in seen:
                seen.append(backend)
    return seen


def _ratios(cells: Dict[Cell, Dict[str, Dict[str, Any]]], backend: str
            ) -> List[float]:
    """``backend``'s min time over the best backend's, per cell."""
    out = []
    for by_backend in cells.values():
        best = min(record["min_s"] for record in by_backend.values())
        out.append(by_backend[backend]["min_s"] / best if best > 0 else 1.0)
    return out


def analyses(document: Dict[str, Any]) -> List[str]:
    """The analyses the table covers, sorted."""
    return sorted({record["analysis"] for record in document["records"]})


def picks(document: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Per analysis: the CSST backend the rule starts from
    (``incumbent``), the ``pick`` of the rule (module docstring), and the
    pick's ``worst_ratio`` and ``worst_cell``."""
    threshold = document["switch_ratio"]
    out: Dict[str, Dict[str, Any]] = {}
    for analysis in analyses(document):
        cells = _cells(document, analysis)
        backends = _backends(cells)
        worst = {backend: max(_ratios(cells, backend))
                 for backend in backends}
        incumbent = next((name for name in CSST_BACKENDS if name in worst),
                         None)
        if incumbent is not None and worst[incumbent] <= threshold:
            pick = incumbent
        else:
            pick = min(backends, key=worst.__getitem__)
        ratios = _ratios(cells, pick)
        worst_cell = list(cells)[ratios.index(max(ratios))]
        out[analysis] = {"incumbent": incumbent, "pick": pick,
                         "worst_ratio": worst[pick],
                         "worst_cell": list(worst_cell)}
    return out


def _shape(cell: Cell) -> str:
    _kind, threads, events = cell
    return f"{threads} × {events}"


def render_markdown(document: Dict[str, Any]) -> str:
    """The table document as markdown: picks, where vector clocks win,
    and one timing table per analysis."""
    chosen = picks(document)
    threshold = document["switch_ratio"]
    lines: List[str] = [
        "# Backend crossover table",
        "",
        f"Seconds per analysis run: the least min over "
        f"{document['sweeps']} runs of `{document['command']}` "
        f"({_repeats(document)} runs per job in all; median of the "
        "sweeps' medians in parentheses). The fastest backend of each "
        "cell is in bold. Records: `crossover.json`; re-render with "
        "`python -m repro report crossover`.",
        "",
        "Rule: an analysis runs on the paper's structure "
        "(`incremental-csst`, or `csst` for the deletion-based "
        f"linearizability) unless on some cell that is more than "
        f"{threshold:.1f}x the best backend's time; then the pick is the "
        "backend whose worst cell is least off the best. "
        "`default_backend()` and the `auto` pick are the table's pick.",
        "",
        "## Picks",
        "",
        "| analysis | CSST backend | pick | pick's worst cell | "
        "its time over the best |",
        "| --- | --- | --- | --- | --- |",
    ]
    for analysis, entry in chosen.items():
        kind, threads, events = entry["worst_cell"]
        lines.append(
            f"| {analysis} | `{entry['incumbent']}` | `{entry['pick']}` | "
            f"{kind} {threads} × {events} | {entry['worst_ratio']:.2f}x |")
    lines += [
        "",
        "## Where the CSST advantage does not reproduce",
        "",
        "The paper's case for CSSTs is asymptotic: an inserted ordering "
        "costs a vector clock O(n) updates and a CSST O(k log n) when "
        "k ≪ n. In this Python port every operation is interpreted, so "
        "constant factors decide at these sizes. A `vc-flat` insert "
        "copies and merges whole int lists with C-level list operations, "
        "and a query is one list index; a CSST insert and query walk "
        "segment-tree nodes one interpreted step at a time. The "
        "saturation analyses also ask many more queries than they "
        "insert, which favours the O(1) vector-clock query. The CSST "
        "wins where inserts land deep inside long chains and propagate "
        "far, as in tso-consistency's store-buffer orderings on long "
        "few-thread traces. With many short chains (64 threads) a vector "
        "clock is short and its propagation cheap, so vector clocks win "
        "there even for tso-consistency.",
        "",
        f"Cells where `{VC_BACKEND}` beats every CSST backend measured "
        "(best CSST time over `vc-flat`'s):",
        "",
    ]
    for analysis in analyses(document):
        cells = _cells(document, analysis)
        wins = []
        for cell, by_backend in cells.items():
            csst = [by_backend[name]["min_s"] for name in CSST_BACKENDS
                    if name in by_backend]
            vc = by_backend.get(VC_BACKEND)
            if vc is not None and csst and vc["min_s"] < min(csst):
                wins.append(f"{_shape(cell)} "
                            f"({min(csst) / vc['min_s']:.2f}x)")
        lines.append(f"- {analysis}: {len(wins)} of {len(cells)} cells; "
                     f"{', '.join(wins) or 'none'}.")
    over = [analysis for analysis, entry in chosen.items()
            if entry["worst_ratio"] > threshold]
    lines += ["", f"Analyses with no backend within {threshold:.1f}x of "
              "the best on every cell (each backend's worst cell); one "
              "fixed default cannot meet the rule for them:", ""]
    for analysis in over:
        cells = _cells(document, analysis)
        worst = []
        for backend in _backends(cells):
            ratios = _ratios(cells, backend)
            cell = list(cells)[ratios.index(max(ratios))]
            worst.append(f"`{backend}` {max(ratios):.2f}x at "
                         f"{_shape(cell)}")
        lines.append(f"- {analysis}: {', '.join(worst)}.")
    if not over:
        lines.append("- none.")
    for analysis in analyses(document):
        cells = _cells(document, analysis)
        backends = _backends(cells)
        pick = chosen[analysis]["pick"]
        kind = next(iter(cells))[0]
        lines += ["", f"## {analysis} (`{kind}` traces)", ""]
        header = ["threads × events", "events"] + [
            f"`{backend}`" for backend in backends] + [f"`{pick}` / best"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join([" --- "] * len(header)) + "|")
        for (cell, by_backend), ratio in zip(cells.items(),
                                             _ratios(cells, pick)):
            best = min(by_backend.values(), key=lambda r: r["min_s"])
            row = [_shape(cell), str(cell[1] * cell[2])]
            for backend in backends:
                record = by_backend[backend]
                text = (f"{record['min_s']:.4f} "
                        f"({record['median_s']:.4f})")
                row.append(f"**{text}**" if record is best else text)
            row.append(f"{ratio:.2f}x")
            lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _repeats(document: Dict[str, Any]) -> int:
    return min((record["repeats"] for record in document["records"]),
               default=0)


def render_json(document: Dict[str, Any]) -> str:
    """The canonical JSON text of a table document."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def check_table(document: Any, source: Union[str, Path]) -> None:
    """Raise :class:`ReproError` unless ``document`` is a table."""
    if not isinstance(document, dict) \
            or document.get("version") != CROSSOVER_VERSION \
            or not isinstance(document.get("sweeps"), int) \
            or not isinstance(document.get("records"), list):
        raise ReproError(f"{source}: not a version-{CROSSOVER_VERSION} "
                         f"crossover table")


def _load(path: Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as stream:
            return json.load(stream)
    except ValueError as error:
        raise ReproError(f"{path}: not valid JSON: {error}") from None


def write_crossover(directory: Union[str, Path], out_dir: Union[str, Path],
                    basename: str = CROSSOVER_BASENAME
                    ) -> Tuple[Dict[str, Any], str, str]:
    """Render the table of ``directory`` into ``<out_dir>/<basename>``
    ``.md`` and ``.json``; returns ``(document, markdown_path,
    json_path)``.

    The table is built from the raw ``repro sweep --suite crossover
    --format json`` documents in ``directory`` named
    :data:`SWEEP_PATTERN`, when there are any (that is how the table is
    re-measured); otherwise it is read from ``crossover.json``.
    """
    sweeps = sorted(Path(directory).glob(SWEEP_PATTERN))
    if sweeps:
        document = build_table([_load(path) for path in sweeps])
    else:
        source = Path(directory) / f"{CROSSOVER_BASENAME}.json"
        document = _load(source)
        check_table(document, source)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    markdown_path = out / f"{basename}.md"
    json_path = out / f"{basename}.json"
    markdown_path.write_text(render_markdown(document), encoding="utf-8")
    json_path.write_text(render_json(document), encoding="utf-8")
    return document, str(markdown_path), str(json_path)
