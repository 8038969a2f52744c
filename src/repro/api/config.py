"""Typed, validated request configs for the :mod:`repro.api` facade.

Every entry point of the system -- trace generation, single analyses,
backend comparisons, parallel sweeps, live watching, corpus generation,
differential fuzzing, and the perf harness -- is described by one frozen
dataclass here.  A config is *pure data*: building one never touches the
filesystem or the registries, so configs can be constructed, serialized,
shipped, and diffed freely; all resolution happens when a
:class:`~repro.api.session.Session` runs them.

Shared contract (enforced by tests):

* **frozen** -- configs are immutable value objects; derive variants with
  :func:`dataclasses.replace`.
* **validated** -- out-of-range values raise
  :class:`~repro.errors.ConfigError` at construction time, not mid-run.
* **dict round-trip** -- ``Config.from_dict(config.to_dict()) == config``
  for every config, and ``from_dict`` rejects unknown keys, so JSON files
  and HTTP payloads map onto configs losslessly.

Name-list fields (``analyses``, ``backends``, ``kinds``, ``schedulers``)
accept a comma-separated string, any iterable of names, or ``None``
("use the default set"), and normalize to a tuple of strings.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError

#: ``(key, value)`` pairs -- the hashable spelling of a keyword mapping.
Pairs = Tuple[Tuple[str, Any], ...]

#: Render formats of requests whose results export a table and a JSON
#: document (analyze, compare, gen, fuzz).  The CLI parser choices and
#: ``Session.capabilities()`` both derive from this -- one list to grow.
RESULT_FORMATS: Tuple[str, ...] = ("text", "json")

#: Render formats of a watch run (live text lines vs JSON-lines stream).
WATCH_FORMATS: Tuple[str, ...] = ("text", "jsonl")


def _name_tuple(value: Any, label: str,
                default: Optional[Tuple[str, ...]] = None
                ) -> Optional[Tuple[str, ...]]:
    """Normalize a name-list field (see module docstring).

    Only ``None`` means "use the default set"; an explicitly empty
    selection stays empty -- the layer consuming it decides what that
    means (the sweep planner rejects an empty plan, fuzz/watch fall back
    to their kind defaults exactly as the pre-facade CLI did), and a
    programmatic caller whose filtered list came up empty must not
    silently run everything.
    """
    if value is None:
        return default
    if isinstance(value, str):
        items = [item.strip() for item in value.split(",") if item.strip()]
    else:
        try:
            items = [str(item) for item in value]
        except TypeError:
            raise ConfigError(
                f"{label} must be names (list or comma-separated string), "
                f"got {value!r}") from None
    return tuple(items)


def _pairs(value: Any, label: str) -> Pairs:
    """Normalize a keyword mapping to sorted ``(key, value)`` pairs."""
    if value is None:
        return ()
    if isinstance(value, Mapping):
        items = value.items()
    else:
        try:
            items = [(key, val) for key, val in value]
        except (TypeError, ValueError):
            raise ConfigError(
                f"{label} must be a mapping or (key, value) pairs, "
                f"got {value!r}") from None
    return tuple(sorted((str(key), val) for key, val in items))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _coerce_numbers(config: "Config", kind: type, **names: Any) -> None:
    """Coerce numeric fields (``kind`` is ``int`` or ``float``) in place.

    JSON and query-string payloads routinely deliver numbers as strings;
    the round-trip contract promises those still land as configs (or fail
    with :class:`ConfigError`, never a raw ``TypeError``).  ``None`` is
    passed through for optional fields.
    """
    for name, value in names.items():
        if value is None:
            continue
        try:
            # int() would silently truncate 2.9 -> 2; a fractional value
            # for an integer field is a caller mistake, not a rounding.
            if kind is int and isinstance(value, float) \
                    and not value.is_integer():
                raise ValueError
            object.__setattr__(config, name, kind(value))
        except (TypeError, ValueError):
            raise ConfigError(
                f"{name} must be {'an integer' if kind is int else 'a number'}, "
                f"got {value!r}") from None


def _set(config: "Config", **values: Any) -> None:
    """Assign normalized field values on a frozen dataclass."""
    for name, value in values.items():
        object.__setattr__(config, name, value)


def _check_metrics_path(value: Optional[str], command: str) -> None:
    """Validate a ``metrics`` sink-path field (``--metrics PATH``)."""
    _require(value is None or (isinstance(value, str) and bool(value)),
             f"{command} metrics must be a sink path, got {value!r}")


def _check_timeline_path(value: Optional[str], command: str) -> None:
    """Validate a ``timeline`` output-path field (``--timeline PATH``)."""
    _require(value is None or (isinstance(value, str) and bool(value)),
             f"{command} timeline must be an output path, got {value!r}")


@dataclass(frozen=True)
class Config:
    """Base class: dict round-trip shared by every request config."""

    #: Subcommand spelling of this request (set per subclass); used in
    #: error messages and by :meth:`repro.api.session.Session.run`
    #: dispatch diagnostics.
    command: ClassVar[str] = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able dict of this config (tuples become lists, ``params``
        pairs become mappings)."""
        out: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "params":
                value = _pairs_to_jsonable(value)
            elif isinstance(value, tuple):
                value = list(value)
            out[spec.name] = value
        return out

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "Config":
        """Build a config from a mapping, rejecting unknown keys."""
        if not isinstance(mapping, Mapping):
            raise ConfigError(f"{cls.command} config must be a mapping, "
                              f"got {type(mapping).__name__}")
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ConfigError(f"unknown {cls.command} config keys {unknown}; "
                              f"known: {sorted(known)}")
        return cls(**{key: mapping[key] for key in mapping})


def _pairs_to_jsonable(value: Any) -> Any:
    """``params`` pairs back to plain dicts for :meth:`Config.to_dict`."""
    if not isinstance(value, tuple):
        return value
    out: Dict[str, Any] = {}
    for key, val in value:
        out[key] = dict(val) if isinstance(val, tuple) else val
    return out


@dataclass(frozen=True)
class GenerateConfig(Config):
    """Generate one synthetic trace (CLI: ``repro generate``).

    ``params`` forwards extra generator keyword arguments verbatim
    (e.g. ``{"scheduler": "adversarial"}`` for scenario kinds).
    """

    command: ClassVar[str] = "generate"

    kind: str
    threads: int = 4
    events: int = 200
    seed: int = 0
    name: Optional[str] = None
    params: Pairs = ()

    def __post_init__(self) -> None:
        _require(bool(self.kind) and isinstance(self.kind, str),
                 "generate config needs a workload kind")
        _coerce_numbers(self, int, threads=self.threads, events=self.events,
                        seed=self.seed)
        _require(self.threads >= 1,
                 f"threads must be >= 1, got {self.threads}")
        _require(self.events >= 1, f"events must be >= 1, got {self.events}")
        _set(self, params=_pairs(self.params, "generate params"))


@dataclass(frozen=True)
class AnalyzeConfig(Config):
    """Run one analysis over one trace file (CLI: ``repro analyze``).

    ``max_findings`` only bounds how many findings the *rendered* result
    shows; the result object always carries the full list.  ``params``
    forwards extra keyword arguments to the analysis constructor --
    analysis tunables (e.g. ``candidate_window`` for race prediction) and
    backend construction knobs (e.g. ``block_size``, which only the
    ``csst`` backend takes) alike.  A keyword that neither the analysis
    nor its backend takes raises :class:`~repro.errors.AnalysisError` when
    the analysis is built, before the trace is read.
    """

    command: ClassVar[str] = "analyze"

    analysis: str
    trace: str
    backend: Optional[str] = None
    max_findings: int = 20
    params: Pairs = ()
    metrics: Optional[str] = None

    def __post_init__(self) -> None:
        _require(bool(self.analysis), "analyze config needs an analysis name")
        _require(bool(self.trace), "analyze config needs a trace path")
        _coerce_numbers(self, int, max_findings=self.max_findings)
        _set(self, params=_pairs(self.params, "analyze params"))
        _check_metrics_path(self.metrics, "analyze")


@dataclass(frozen=True)
class CompareConfig(Config):
    """Run one analysis on every applicable backend (CLI: ``repro
    compare``).

    ``params`` forwards extra keyword arguments to every constructed
    analysis (see :class:`AnalyzeConfig`).
    """

    command: ClassVar[str] = "compare"

    analysis: str
    trace: str
    backends: Optional[Tuple[str, ...]] = None
    params: Pairs = ()

    def __post_init__(self) -> None:
        _require(bool(self.analysis), "compare config needs an analysis name")
        _require(bool(self.trace), "compare config needs a trace path")
        _set(self,
             backends=_name_tuple(self.backends, "compare backends"),
             params=_pairs(self.params, "compare params"))


@dataclass(frozen=True)
class SweepConfig(Config):
    """Sweep a suite of traces x analyses x backends (CLI: ``repro
    sweep``).

    ``corpus`` (a manifest path from ``repro gen corpus``) overrides
    ``suite``.  ``format`` is carried here -- not render-side -- because it
    interacts with other options (``baseline`` has no effect on the CSV
    export, which is one of the validation warnings the result reports).
    """

    command: ClassVar[str] = "sweep"

    FORMATS: ClassVar[Tuple[str, ...]] = ("table", "json", "csv")

    suite: str = "smoke"
    corpus: Optional[str] = None
    jobs: int = 1
    analyses: Optional[Tuple[str, ...]] = None
    backends: Optional[Tuple[str, ...]] = None
    baseline: Optional[str] = None
    timeout: Optional[float] = None
    repeat: int = 1
    seed: Optional[int] = None
    format: str = "table"
    metrics: Optional[str] = None
    timeline: Optional[str] = None
    oracle: bool = False

    def __post_init__(self) -> None:
        _coerce_numbers(self, int, jobs=self.jobs, repeat=self.repeat,
                        seed=self.seed)
        _coerce_numbers(self, float, timeout=self.timeout)
        _require(self.jobs >= 1, f"jobs must be >= 1, got {self.jobs}")
        _require(self.repeat >= 1, f"repeat must be >= 1, got {self.repeat}")
        _require(self.format in self.FORMATS,
                 f"unknown sweep format {self.format!r}; "
                 f"known: {', '.join(self.FORMATS)}")
        _require(self.timeout is None or self.timeout > 0,
                 f"timeout must be > 0, got {self.timeout}")
        _set(self,
             analyses=_name_tuple(self.analyses, "sweep analyses"),
             backends=_name_tuple(self.backends, "sweep backends"))
        _check_metrics_path(self.metrics, "sweep")
        _check_timeline_path(self.timeline, "sweep")
        _require(not self.oracle
                 or (self.backends is not None and "auto" in self.backends),
                 "oracle mode validates the 'auto' pseudo-backend; "
                 "include 'auto' in the sweep backends")

    def validation_warnings(self) -> Tuple[str, ...]:
        """Option combinations that run but drop a flag's effect."""
        warnings = []
        if self.baseline is not None and self.format == "csv":
            warnings.append(
                "baseline has no effect with the csv format (the CSV "
                "carries per-job records, not speedup aggregates)")
        if self.timeout is not None and self.jobs <= 1:
            warnings.append(
                "timeout only applies to parallel runs; jobs=1 runs "
                "inline and cannot be interrupted")
        return tuple(warnings)


@dataclass(frozen=True)
class WatchConfig(Config):
    """Stream a trace source through analyses (CLI: ``repro watch``).

    ``source`` is a trace file (``.std`` / ``.std.gz``), a corpus manifest
    (``manifest.json[#TRACE_ID]``), or a generator spec
    (``kind[:key=value,...]``).  ``analyses`` may be ``None`` for generator
    sources (the kind's declared analyses) and checkpoint resumes (the
    checkpoint records them).
    """

    command: ClassVar[str] = "watch"

    source: str
    analyses: Optional[Tuple[str, ...]] = None
    backend: Optional[str] = None
    window: Optional[str] = None
    flush_every: Optional[int] = None
    checkpoint: Optional[str] = None
    checkpoint_every: Optional[int] = None
    follow: bool = False
    idle_timeout: Optional[float] = None
    max_events: Optional[int] = None
    metrics: Optional[str] = None
    timeline: Optional[str] = None
    #: Additional sources beyond ``source``.  More than one source turns
    #: the watch into a multi-tenant run through the serving code path
    #: (one tenant per source); options that only make sense for a single
    #: feed (follow, checkpoint resume, max_events) are rejected then.
    sources: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _require(bool(self.source), "watch config needs a source")
        _set(self, sources=tuple(str(item) for item in self.sources or ()))
        if self.sources:
            _require(self.analyses is not None and bool(self.analyses),
                     "multi-source watch needs explicit analyses")
            _require(not self.follow,
                     "--follow only applies to a single source")
            _require(self.checkpoint is None and self.checkpoint_every is None,
                     "checkpoint and checkpoint_every only apply to a single "
                     "source; use serve's checkpoint_dir for multi-tenant "
                     "state")
            _require(self.max_events is None,
                     "max_events only applies to a single source")
        _coerce_numbers(self, int, flush_every=self.flush_every,
                        checkpoint_every=self.checkpoint_every,
                        max_events=self.max_events)
        _coerce_numbers(self, float, idle_timeout=self.idle_timeout)
        _require(self.flush_every is None or self.flush_every >= 1,
                 f"flush_every must be >= 1, got {self.flush_every}")
        _require(self.checkpoint_every is None or self.checkpoint_every >= 1,
                 f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        _require(self.checkpoint_every is None or self.checkpoint is not None,
                 "checkpoint_every needs a checkpoint path to save to")
        _require(self.max_events is None or self.max_events >= 0,
                 f"max_events must be >= 0, got {self.max_events}")
        _set(self, analyses=_name_tuple(self.analyses, "watch analyses"))
        _check_metrics_path(self.metrics, "watch")
        _check_timeline_path(self.timeline, "watch")


@dataclass(frozen=True)
class ServeConfig(Config):
    """Multi-tenant sharded streaming service (CLI: ``repro serve``).

    Exactly one ingest mode must be configured: **replay** (``sources``,
    one tenant per source, deterministic round-robin interleave -- the
    testing/CI mode) or **socket** (``host``/``port``, the line protocol
    of :mod:`repro.serve.protocol`).  ``workers=0`` runs the degenerate
    in-process path with no worker processes (no crash recovery).
    """

    command: ClassVar[str] = "serve"

    analyses: Tuple[str, ...] = ()
    sources: Tuple[str, ...] = ()
    host: Optional[str] = None
    port: Optional[int] = None
    workers: int = 2
    backend: Optional[str] = "auto"
    window: Optional[str] = None
    flush_every: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_every: Optional[int] = None
    queue_size: int = 256
    quota_events: Optional[int] = None
    drain_timeout: float = 60.0
    stop_after: Optional[float] = None
    crash_worker: Optional[str] = None
    #: Write one worker pid per line here once workers are up -- the hook
    #: external kill-a-worker tests (and the CI smoke job) use to aim.
    pid_file: Optional[str] = None
    metrics: Optional[str] = None
    timeline: Optional[str] = None

    def __post_init__(self) -> None:
        _set(self, analyses=_name_tuple(self.analyses, "serve analyses",
                                        default=()) or (),
             sources=tuple(str(item) for item in self.sources or ()))
        _require(bool(self.analyses), "serve config needs analyses")
        socket_mode = self.host is not None or self.port is not None
        _require(bool(self.sources) != socket_mode,
                 "serve needs exactly one of: replay sources, or a "
                 "host/port socket to listen on")
        _coerce_numbers(self, int, workers=self.workers, port=self.port,
                        flush_every=self.flush_every,
                        checkpoint_every=self.checkpoint_every,
                        queue_size=self.queue_size,
                        quota_events=self.quota_events)
        _coerce_numbers(self, float, drain_timeout=self.drain_timeout,
                        stop_after=self.stop_after)
        _require(self.workers >= 0,
                 f"workers must be >= 0, got {self.workers}")
        _require(self.queue_size >= 1,
                 f"queue_size must be >= 1, got {self.queue_size}")
        _require(self.quota_events is None or self.quota_events >= 1,
                 f"quota_events must be >= 1, got {self.quota_events}")
        _require(self.flush_every is None or self.flush_every >= 1,
                 f"flush_every must be >= 1, got {self.flush_every}")
        _require(self.checkpoint_every is None or self.checkpoint_every >= 1,
                 f"checkpoint_every must be >= 1, got "
                 f"{self.checkpoint_every}")
        _require(self.checkpoint_every is None
                 or self.checkpoint_dir is not None,
                 "checkpoint_every needs a checkpoint_dir to save to")
        _require(self.crash_worker is None or self.workers >= 1,
                 "crash_worker requires worker processes (workers >= 1)")
        _check_metrics_path(self.metrics, "serve")
        _check_timeline_path(self.timeline, "serve")


@dataclass(frozen=True)
class GenConfig(Config):
    """Build a trace corpus plus manifest (CLI: ``repro gen corpus``).

    Mirrors :class:`repro.gen.corpus.CorpusConfig` and adds the output
    directory; ``threads``/``events``/``schedulers`` left as ``None`` take
    the corpus module's defaults, so this config does not duplicate them.
    """

    command: ClassVar[str] = "gen"

    out: str
    name: str = "corpus"
    kinds: Tuple[str, ...] = ()
    count: int = 3
    seed: int = 0
    threads: Optional[str] = None
    events: Optional[str] = None
    params: Pairs = ()
    schedulers: Optional[Tuple[str, ...]] = None
    register: bool = True
    format: str = "std"

    def __post_init__(self) -> None:
        _require(bool(self.out), "gen config needs an output directory")
        _coerce_numbers(self, int, count=self.count, seed=self.seed)
        _require(self.count >= 1, f"count must be >= 1, got {self.count}")
        _require(self.format in ConvertConfig.TRACE_FORMATS,
                 f"unknown trace format {self.format!r}; "
                 f"known: {', '.join(ConvertConfig.TRACE_FORMATS)}")
        if isinstance(self.params, Mapping):
            entries = list(self.params.items())
        else:
            try:
                entries = [(kind, overrides)
                           for kind, overrides in (self.params or ())]
            except (TypeError, ValueError):
                raise ConfigError(
                    "gen params must map kind -> {parameter: value}, "
                    f"got {self.params!r}") from None
        _set(self,
             name=str(self.name),
             threads=None if self.threads is None else str(self.threads),
             events=None if self.events is None else str(self.events),
             kinds=_name_tuple(self.kinds, "gen kinds", default=()) or (),
             schedulers=_name_tuple(self.schedulers, "gen schedulers"),
             params=tuple(sorted(
                 (str(kind), _pairs(overrides, f"gen params[{kind}]"))
                 for kind, overrides in entries)))

    def to_corpus_config(self):
        """The :class:`repro.gen.corpus.CorpusConfig` this config wraps."""
        from repro.gen.corpus import CorpusConfig

        overrides: Dict[str, Any] = {
            "name": self.name, "kinds": self.kinds, "count": self.count,
            "seed": self.seed, "params": self.params, "format": self.format,
        }
        if self.threads is not None:
            overrides["threads"] = self.threads
        if self.events is not None:
            overrides["events"] = self.events
        if self.schedulers is not None:
            overrides["schedulers"] = self.schedulers
        return CorpusConfig(**overrides)


@dataclass(frozen=True)
class ConvertConfig(Config):
    """Translate one trace between the STD text format and the ``.stc``
    binary columnar format (CLI: ``repro convert``).

    The source format is sniffed from the file (magic bytes first, then
    extension); the output format follows the destination suffix unless
    ``to`` forces it (``"std"`` / ``"stc"``).  ``.gz`` suffixes always
    mean canonical, byte-reproducible gzip in either direction.
    """

    command: ClassVar[str] = "convert"

    #: Output formats ``to`` may force.
    TRACE_FORMATS: ClassVar[Tuple[str, ...]] = ("std", "stc")

    source: str
    out: str
    to: Optional[str] = None

    def __post_init__(self) -> None:
        _require(bool(self.source), "convert config needs a source trace")
        _require(bool(self.out), "convert config needs an output path")
        _require(self.to is None or self.to in self.TRACE_FORMATS,
                 f"unknown trace format {self.to!r}; "
                 f"known: {', '.join(self.TRACE_FORMATS)}")


@dataclass(frozen=True)
class FuzzConfig(Config):
    """Differential fuzzing run (CLI: ``repro fuzz``)."""

    command: ClassVar[str] = "fuzz"

    seeds: int = 50
    quick: bool = False
    kinds: Optional[Tuple[str, ...]] = None
    backends: Optional[Tuple[str, ...]] = None
    stream: bool = True
    seed: int = 0
    out: str = "fuzz-out"
    minimize: bool = True
    max_checks: int = 400

    def __post_init__(self) -> None:
        _coerce_numbers(self, int, seeds=self.seeds, seed=self.seed,
                        max_checks=self.max_checks)
        _require(self.seeds >= 1, f"seeds must be >= 1, got {self.seeds}")
        _require(self.max_checks >= 1,
                 f"max_checks must be >= 1, got {self.max_checks}")
        _set(self,
             kinds=_name_tuple(self.kinds, "fuzz kinds"),
             backends=_name_tuple(self.backends, "fuzz backends"))


@dataclass(frozen=True)
class BenchConfig(Config):
    """Perf-regression harness run (CLI: ``repro bench perf``).

    ``repeats``/``threshold`` left as ``None`` take the harness defaults.
    ``out`` is the report path (``"-"`` renders to the result only,
    ``None`` picks the dated default); ``update_baseline`` runs both modes
    and rewrites the baseline file instead.
    """

    command: ClassVar[str] = "bench"

    mode: str = "perf"
    quick: bool = False
    repeats: Optional[int] = None
    out: Optional[str] = None
    baseline: Optional[str] = None
    threshold: Optional[float] = None
    compare: bool = True
    update_baseline: bool = False

    def __post_init__(self) -> None:
        _require(self.mode == "perf",
                 f"unknown bench mode {self.mode!r}; known: perf")
        _coerce_numbers(self, int, repeats=self.repeats)
        _coerce_numbers(self, float, threshold=self.threshold)
        _require(self.repeats is None or self.repeats >= 1,
                 f"repeats must be >= 1, got {self.repeats}")
        _require(self.threshold is None or self.threshold > 0,
                 f"threshold must be > 0, got {self.threshold}")


@dataclass(frozen=True)
class StatsConfig(Config):
    """Render a recorded metrics snapshot (CLI: ``repro stats``).

    ``source`` is a JSON-lines metrics file written by ``--metrics PATH``
    (or any single-snapshot JSON document); ``index`` picks which snapshot
    line to render (default: the latest).
    """

    command: ClassVar[str] = "stats"

    FORMATS: ClassVar[Tuple[str, ...]] = ("table", "json", "prom", "chrome")

    source: str
    format: str = "table"
    index: int = -1

    def __post_init__(self) -> None:
        _require(bool(self.source), "stats config needs a metrics file")
        _require(self.format in self.FORMATS,
                 f"unknown stats format {self.format!r}; "
                 f"known: {', '.join(self.FORMATS)}")
        _coerce_numbers(self, int, index=self.index)


@dataclass(frozen=True)
class TimelineConfig(Config):
    """Render a recorded metrics snapshot as a Chrome trace-event /
    Perfetto timeline (CLI: ``repro timeline``).

    ``source`` is a JSON-lines metrics file written by ``--metrics PATH``
    (or any single-snapshot JSON document); ``index`` picks the snapshot
    line (default: the latest).  ``out`` is the trace-event JSON
    destination (``"-"``: stdout).  Rendering is deterministic, so
    ``repro timeline run.jsonl`` reproduces byte-for-byte the file a
    ``--timeline`` flag wrote for the same snapshot.
    """

    command: ClassVar[str] = "timeline"

    source: str
    out: str = "-"
    index: int = -1

    def __post_init__(self) -> None:
        _require(bool(self.source), "timeline config needs a metrics file")
        _require(bool(self.out), "timeline config needs an output path")
        _coerce_numbers(self, int, index=self.index)


@dataclass(frozen=True)
class ReportConfig(Config):
    """Report generation (CLI: ``repro report trend|crossover``).

    ``mode`` selects the report:

    * ``"trend"``: ``dir`` (default ``.``) holds the ``BENCH_*.json``
      documents;
    * ``"crossover"``: ``dir`` (default ``docs/tables``) holds the
      backend crossover table ``crossover.json``, or raw
      ``repro sweep --suite crossover --format json`` documents named
      ``crossover-sweep*.json``, which are merged into a table first.

    ``out`` is the directory receiving the rendered markdown + JSON pair,
    named ``<basename>.md``/``.json`` (default: the mode's own name,
    ``perf_trend`` or ``crossover``).
    """

    command: ClassVar[str] = "report"

    MODES: ClassVar[Tuple[str, ...]] = ("trend", "crossover")

    #: Per mode: (default source directory, default basename).
    DEFAULTS: ClassVar[Dict[str, Tuple[str, str]]] = {
        "trend": (".", "perf_trend"),
        "crossover": ("docs/tables", "crossover"),
    }

    mode: str = "trend"
    dir: Optional[str] = None
    out: str = "docs/tables"
    basename: Optional[str] = None

    def __post_init__(self) -> None:
        _require(self.mode in self.MODES,
                 f"unknown report mode {self.mode!r}; "
                 f"known: {', '.join(self.MODES)}")
        _require(self.dir is None or bool(self.dir),
                 "report config needs a source directory")
        _require(bool(self.out), "report config needs an output directory")
        _require(self.basename is None or bool(self.basename),
                 "report config needs a basename")

    @property
    def source_dir(self) -> str:
        """``dir``, or the mode's default source directory."""
        return self.dir or self.DEFAULTS[self.mode][0]

    @property
    def stem(self) -> str:
        """``basename``, or the mode's default file stem."""
        return self.basename or self.DEFAULTS[self.mode][1]


#: Every request config, in CLI-subcommand order.
ALL_CONFIGS: Tuple[type, ...] = (
    GenerateConfig, AnalyzeConfig, CompareConfig, SweepConfig, WatchConfig,
    ServeConfig, GenConfig, ConvertConfig, FuzzConfig, BenchConfig,
    StatsConfig, TimelineConfig, ReportConfig,
)
