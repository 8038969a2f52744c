"""Config contract tests: frozen, validated, dict round-trip."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ALL_CONFIGS,
    AnalyzeConfig,
    BenchConfig,
    CompareConfig,
    ConvertConfig,
    FuzzConfig,
    GenConfig,
    GenerateConfig,
    ReportConfig,
    ServeConfig,
    StatsConfig,
    SweepConfig,
    TimelineConfig,
    WatchConfig,
)
from repro.errors import ConfigError, ReproError

#: One representative instance per config class (non-default values where
#: it matters, so round trips are not trivially passing on defaults).
REPRESENTATIVES = [
    GenerateConfig(kind="racy", threads=3, events=60, seed=5,
                   params={"num_locks": 2}),
    AnalyzeConfig(analysis="race-prediction", trace="t.std", backend="vc-flat",
                  max_findings=3),
    CompareConfig(analysis="memory-bugs", trace="t.std",
                  backends="vc-flat,incremental-csst"),
    SweepConfig(suite="smoke", jobs=2, analyses="race-prediction",
                backends=("vc-flat", "st"), baseline="vc-flat", timeout=4.0,
                repeat=2, seed=7, format="json"),
    WatchConfig(source="t.std", analyses="race_prediction,deadlock",
                window="50", checkpoint="ck.json", max_events=30),
    ServeConfig(analyses="race_prediction,deadlock",
                sources=("a.std", "b.std"), workers=3, backend="auto",
                checkpoint_dir="ck", checkpoint_every=50, queue_size=64,
                quota_events=1000, drain_timeout=30.0,
                crash_worker="1@25"),
    GenConfig(out="corpus", name="c", kinds="racy,locked-mix", count=2,
              seed=3, threads="uniform:2,4",
              params={"racy": {"num_locks": 2}}, schedulers=("rr",),
              format="stc"),
    ConvertConfig(source="t.std.gz", out="t.stc", to="stc"),
    FuzzConfig(seeds=5, quick=True, kinds="racy", backends="vc-flat",
               stream=False, seed=2, out="fz", minimize=False,
               max_checks=10),
    BenchConfig(quick=True, repeats=2, out="-", threshold=3.0,
                compare=False),
    StatsConfig(source="m.jsonl", format="prom", index=0),
    TimelineConfig(source="m.jsonl", out="t.json", index=0),
    ReportConfig(mode="trend", dir="bench", out="tables", basename="trend"),
]


class TestRoundTrip:
    @pytest.mark.parametrize("config", REPRESENTATIVES,
                             ids=lambda config: type(config).command)
    def test_from_dict_of_to_dict_is_identity(self, config):
        cls = type(config)
        rebuilt = cls.from_dict(config.to_dict())
        assert rebuilt == config
        # Idempotent on the dict side too: re-serializing the rebuilt
        # config yields the same document.
        assert rebuilt.to_dict() == config.to_dict()

    @pytest.mark.parametrize("cls", ALL_CONFIGS,
                             ids=lambda cls: cls.command)
    def test_unknown_keys_rejected(self, cls):
        config = next(c for c in REPRESENTATIVES if type(c) is cls)
        document = config.to_dict()
        document["quantum"] = 1
        with pytest.raises(ConfigError, match="unknown .* config keys"):
            cls.from_dict(document)

    def test_to_dict_is_jsonable(self):
        import json

        for config in REPRESENTATIVES:
            json.dumps(config.to_dict())

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(ConfigError, match="must be a mapping"):
            SweepConfig.from_dict(["suite", "smoke"])


class TestNormalization:
    def test_name_lists_accept_csv_strings_and_sequences(self):
        by_string = SweepConfig(analyses="race-prediction, deadlock-prediction")
        by_list = SweepConfig(analyses=["race-prediction",
                                        "deadlock-prediction"])
        assert by_string == by_list
        assert by_string.analyses == ("race-prediction",
                                      "deadlock-prediction")

    def test_empty_name_list_is_preserved_not_defaulted(self):
        # Only None means "default set": a caller whose filtered name list
        # came up empty must not silently run everything.
        assert SweepConfig(analyses="").analyses == ()
        assert WatchConfig(source="s", analyses=[]).analyses == ()
        assert SweepConfig().analyses is None

    def test_params_mapping_and_pairs_are_equivalent(self):
        by_mapping = GenerateConfig(kind="racy", params={"num_locks": 2})
        by_pairs = GenerateConfig(kind="racy", params=(("num_locks", 2),))
        assert by_mapping == by_pairs
        assert by_mapping.to_dict()["params"] == {"num_locks": 2}

    def test_configs_are_frozen(self):
        config = SweepConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.jobs = 2

    def test_replace_derives_variants(self):
        config = dataclasses.replace(SweepConfig(), jobs=4)
        assert config.jobs == 4

    def test_gen_config_coerces_numeric_shapes(self):
        # A JSON config file may carry numeric distribution shorthands.
        config = GenConfig(out="c", threads=4, events=30, count="2")
        assert config.threads == "4" and config.events == "30"
        assert config.count == 2

    def test_numeric_fields_coerce_string_payloads(self):
        # Query strings and loosely typed JSON deliver numbers as strings;
        # they must land as numbers, never crash with a raw TypeError.
        assert SweepConfig.from_dict({"jobs": "2", "timeout": "1.5"}) == \
            SweepConfig(jobs=2, timeout=1.5)
        assert GenerateConfig(kind="racy", threads="4").threads == 4
        assert FuzzConfig(seeds="5").seeds == 5
        assert WatchConfig(source="s", flush_every="3").flush_every == 3
        assert BenchConfig(threshold="2.5").threshold == 2.5

    def test_non_numeric_strings_raise_config_error(self):
        with pytest.raises(ConfigError, match="jobs must be an integer"):
            SweepConfig(jobs="two")
        with pytest.raises(ConfigError, match="timeout must be a number"):
            SweepConfig(timeout="soon")

    def test_fractional_floats_are_not_truncated_for_int_fields(self):
        with pytest.raises(ConfigError, match="jobs must be an integer"):
            SweepConfig(jobs=2.9)
        assert SweepConfig(jobs=2.0).jobs == 2  # integral floats are fine

    def test_gen_params_must_be_a_kind_mapping(self):
        # A bare string (or any non-mapping shape) is a clean ConfigError,
        # not an unpacking traceback.
        with pytest.raises(ConfigError, match="params must map kind"):
            GenConfig(out="c", params="locked-mix")
        with pytest.raises(ConfigError, match="params"):
            GenConfig(out="c", params={"racy": 3})

    def test_analyze_params_reach_the_analysis(self):
        config = AnalyzeConfig(analysis="race-prediction", trace="t.std",
                               params={"candidate_window": 10})
        assert config.params == (("candidate_window", 10),)
        assert AnalyzeConfig.from_dict(config.to_dict()) == config


class TestValidation:
    @pytest.mark.parametrize("build, message", [
        (lambda: GenerateConfig(kind=""), "workload kind"),
        (lambda: GenerateConfig(kind="racy", threads=0), "threads"),
        (lambda: AnalyzeConfig(analysis="", trace="t"), "analysis name"),
        (lambda: AnalyzeConfig(analysis="a", trace=""), "trace path"),
        (lambda: SweepConfig(jobs=0), "jobs must be >= 1"),
        (lambda: SweepConfig(repeat=0), "repeat must be >= 1"),
        (lambda: SweepConfig(format="xml"), "unknown sweep format"),
        (lambda: SweepConfig(timeout=0), "timeout must be > 0"),
        (lambda: WatchConfig(source=""), "source"),
        (lambda: WatchConfig(source="s", flush_every=0), "flush_every"),
        (lambda: WatchConfig(source="s", checkpoint_every=5),
         "checkpoint_every needs a checkpoint path"),
        (lambda: WatchConfig(source="s", sources=("t",), analyses="race",
                             checkpoint_every=5),
         "checkpoint_every only apply to a single source"),
        (lambda: ServeConfig(analyses="race", sources=("s",), workers=0,
                             checkpoint_every=5),
         "checkpoint_every needs a checkpoint_dir"),
        (lambda: GenConfig(out=""), "output directory"),
        (lambda: GenConfig(out="c", count=0), "count must be >= 1"),
        (lambda: FuzzConfig(seeds=0), "seeds must be >= 1"),
        (lambda: FuzzConfig(max_checks=0), "max_checks must be >= 1"),
        (lambda: BenchConfig(mode="mem"), "unknown bench mode"),
        (lambda: BenchConfig(repeats=0), "repeats must be >= 1"),
        (lambda: BenchConfig(threshold=0.0), "threshold must be > 0"),
    ])
    def test_invalid_values_raise_config_error(self, build, message):
        with pytest.raises(ConfigError, match=message):
            build()

    def test_config_error_is_a_repro_error(self):
        assert issubclass(ConfigError, ReproError)


names = st.one_of(st.none(), st.lists(
    st.text(alphabet="abcdefgh-", min_size=1, max_size=8), max_size=4))


class TestRoundTripProperties:
    """Property round trips over generated field values (hypothesis)."""

    @settings(max_examples=50, deadline=None)
    @given(jobs=st.integers(1, 64), repeat=st.integers(1, 16),
           seed=st.one_of(st.none(), st.integers(-2**31, 2**31)),
           timeout=st.one_of(st.none(), st.floats(0.001, 1e6)),
           fmt=st.sampled_from(SweepConfig.FORMATS),
           analyses=names, backends=names)
    def test_sweep_config(self, jobs, repeat, seed, timeout, fmt, analyses,
                          backends):
        config = SweepConfig(jobs=jobs, repeat=repeat, seed=seed,
                             timeout=timeout, format=fmt,
                             analyses=analyses, backends=backends)
        assert SweepConfig.from_dict(config.to_dict()) == config

    @settings(max_examples=50, deadline=None)
    @given(seeds=st.integers(1, 10_000), quick=st.booleans(),
           stream=st.booleans(), minimize=st.booleans(),
           seed=st.integers(-2**31, 2**31), max_checks=st.integers(1, 10_000),
           kinds=names)
    def test_fuzz_config(self, seeds, quick, stream, minimize, seed,
                         max_checks, kinds):
        config = FuzzConfig(seeds=seeds, quick=quick, stream=stream,
                            minimize=minimize, seed=seed,
                            max_checks=max_checks, kinds=kinds)
        assert FuzzConfig.from_dict(config.to_dict()) == config

    @settings(max_examples=50, deadline=None)
    @given(kind=st.text(alphabet="abcxyz", min_size=1, max_size=8),
           threads=st.integers(1, 64), events=st.integers(1, 10_000),
           seed=st.integers(-2**31, 2**31),
           params=st.dictionaries(
               st.text(alphabet="abc_", min_size=1, max_size=6),
               st.one_of(st.integers(-100, 100), st.booleans(),
                         st.text(alphabet="xyz", max_size=4)),
               max_size=3))
    def test_generate_config(self, kind, threads, events, seed, params):
        config = GenerateConfig(kind=kind, threads=threads, events=events,
                                seed=seed, params=params)
        assert GenerateConfig.from_dict(config.to_dict()) == config
