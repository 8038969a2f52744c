"""Shared plumbing: checkout paths, provenance, statistics, set-up time."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: The checkout root (the directory holding ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 15


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. the program is missing)."""


def check_checkout() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program sources under {SRC} "
                         f"(expected src/repro/__init__.py)")


def work_dir(*parts: str) -> str:
    """A scratch directory inside the checkout's build directory."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    path = os.path.join(base, "perfbench", *parts)
    os.makedirs(path, exist_ok=True)
    return path


def child_env() -> Dict[str, str]:
    """Environment for Python child processes of the benchmark."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(workload: str, seed: int, trace: bool,
               digests: Dict[str, str]) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "inputs": dict(sorted(digests.items())),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
    }


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(count: int) -> float:
    """The highest percentile (at most 99) with at least ten samples
    beyond it; 50 when there are fewer than twenty samples."""
    if count < 20:
        return 50.0
    return min(99.0, math.floor(100.0 * (1.0 - 10.0 / count)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb(children_kb: int = 0) -> float:
    """Peak resident set of this process plus ``children_kb``."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + children_kb) / 1024.0


def children_peak_kb() -> int:
    """Peak resident set of the largest child this process has waited
    for (a serve worker, a server process), in KiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def cpu_seconds() -> float:
    """CPU seconds of this process and of every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# --------------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------------- #
#: Rounds of the calibration loop.
CALIBRATION_ROUNDS = 10000
#: CPU seconds of one calibration sample at the reference speed: the
#: median on the 2-vCPU x86-64 host (CPython 3) the benchmark was tuned on.
REFERENCE_CALIBRATION_S = 0.002
#: Samples on each side of an operation that give its local host speed.
CALIBRATION_WINDOW = 3
#: How the program's CPU time follows the calibration sample's: over
#: 3000 analyze and watch operations on that host, while the sample took
#: 0.8x to 1.9x its median, the operations' times grew as its power
#: 0.73-0.76 (the calibration loop stays in the core's caches and slows
#: more when the host is busy).
SPEED_EXPONENT = 0.75
#: The same for a serve replay's CPU seconds (supervisor and worker),
#: against the run's median sample: over 270 replays taken in groups of
#: 20, the groups' median cost grew as the sample's power 0.45 (r2 0.6).
#: Replay by replay it hardly follows the sample (power 0.2, r2 0.1).
SERVE_SPEED_EXPONENT = 0.5


def speed_factor(calibration_s: float,
                 exponent: float = SPEED_EXPONENT) -> float:
    """What to multiply a CPU time taken at the host speed that gave the
    calibration sample ``calibration_s`` by, to read it at the reference
    speed."""
    return (REFERENCE_CALIBRATION_S / calibration_s) ** exponent


def calibration_sample() -> float:
    """CPU seconds of a fixed piece of interpreter work: dict, list and
    integer operations in a loop, like the program's own inner loops."""
    began = time.process_time()
    table: Dict[int, int] = {}
    recent: List[int] = []
    total = 0
    for step in range(CALIBRATION_ROUNDS):
        key = step * 7919 % 1021
        total += table.get(key, step)
        table[key] = total & 0xFFFF
        recent.append(key)
        if len(recent) > 32:
            del recent[0]
    return time.process_time() - began


class ScaledTimes:
    """Operation times scaled to the reference host speed.

    The benchmark shares its host, whose speed drifts by half within
    seconds: the same fixed loop takes 15 ms in one two-second window and
    22 ms in the next, in CPU time as in wall time.  That drift moved the
    same code's figures by a quarter between runs.  So the measured loop
    calls :meth:`calibrate` before every operation, outside its timing,
    and :meth:`times` scales each operation's CPU seconds by the
    :func:`speed_factor` of the median of the calibration samples around
    it.  A change to the program moves its operations and not the
    calibration loop, so it still shows in full; on a host that runs the
    loop at the reference speed the scaled times are the measured ones.
    """

    def __init__(self, exponent: float = SPEED_EXPONENT,
                 window: Optional[int] = CALIBRATION_WINDOW) -> None:
        #: ``window`` None scales every operation by the run's median.
        self.exponent = exponent
        self.window = window
        self.samples: List[float] = []
        #: (key, CPU seconds, index of the calibration sample before it)
        self.operations: List[Tuple[object, float, int]] = []

    def calibrate(self) -> None:
        self.samples.append(calibration_sample())

    def record(self, key: object, seconds: float) -> None:
        if not self.samples:
            raise ValueError("calibrate() before the first operation")
        self.operations.append((key, seconds, len(self.samples) - 1))

    def times(self) -> Dict[object, List[float]]:
        """Every key's scaled times, in the order they were recorded."""
        if self.operations:
            self.calibrate()          # the host speed after the last one
        out: Dict[object, List[float]] = {}
        for key, seconds, index in self.operations:
            window = self.samples if self.window is None else \
                self.samples[max(0, index - self.window + 1):
                             index + self.window + 1]
            out.setdefault(key, []).append(
                seconds * speed_factor(median(window), self.exponent))
        return out

    def speed(self) -> float:
        """The run's median host speed, as a share of the reference."""
        return REFERENCE_CALIBRATION_S / median(self.samples) \
            if self.samples else 0.0


# --------------------------------------------------------------------------- #
# Set-up time
# --------------------------------------------------------------------------- #
class SetupProbes:
    """The set-up probes of one run, spread over its measured loop.

    Each probe is a fresh process timing ``import repro`` and building a
    ``Session`` -- plus, with ``serve_line``, starting the service with
    one worker and having that event line accepted.  Its wall time is
    scaled to the reference host speed by calibration samples the probe
    takes right after (as :class:`ScaledTimes` scales operations).  The
    loop calls :meth:`between` after every pass, which runs the next probe
    once the loop has reached that probe's share of the run: on a shared
    host the speed drifts within seconds, and probes taken back to back
    all catch the same moment.  The first call also reads the peak memory of the
    workload's own children, before any probe process can be the largest.
    """

    def __init__(self, serve_line: Optional[str], seconds: float) -> None:
        self.command = [sys.executable, "-m", "perfbench.probe"]
        if serve_line is not None:
            self.command += ["--serve-line", serve_line]
        self.seconds = seconds
        self.samples: List[float] = []
        self.raw: List[float] = []        #: unscaled wall seconds
        self.children_kb: Optional[int] = None
        self.start = time.perf_counter()

    def between(self) -> None:
        if self.children_kb is None:
            self.children_kb = children_peak_kb()
        due = len(self.samples) * self.seconds / SETUP_PROBES
        if len(self.samples) < SETUP_PROBES and \
                time.perf_counter() - self.start >= due:
            self._probe()

    def finish(self) -> float:
        """Run the probes still owed; returns their median."""
        if self.children_kb is None:
            self.children_kb = children_peak_kb()
        while len(self.samples) < SETUP_PROBES:
            self._probe()
        return median(self.samples)

    def _probe(self) -> None:
        out = subprocess.run(self.command, cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed: {out.stderr.strip()}")
        elapsed, calibration = map(
            float, out.stdout.strip().splitlines()[-1].split())
        self.raw.append(elapsed)
        self.samples.append(elapsed * speed_factor(calibration))


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
