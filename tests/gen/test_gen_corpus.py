"""Tests for the corpus builder, manifest and suite/source integration."""

import json

import pytest

from repro.errors import GenerationError
from repro.gen.corpus import (
    CorpusConfig,
    build_corpus,
    load_manifest,
    plan_corpus,
    read_manifest,
    register_corpus_suite,
    resolve_member,
    suite_from_manifest,
)
from repro.runner.corpus import SUITES
from repro.runner.executor import run_suite


@pytest.fixture
def small_config():
    return CorpusConfig(name="t", kinds=("locked-mix", "racy"), count=2,
                        seed=5)


@pytest.fixture
def built(tmp_path, small_config):
    manifest = build_corpus(tmp_path / "corpus", small_config)
    yield tmp_path / "corpus", manifest
    SUITES.pop("corpus:t", None)


class TestConfig:
    def test_from_mapping_validates_keys(self):
        with pytest.raises(GenerationError, match="unknown corpus config"):
            CorpusConfig.from_mapping({"bogus": 1})

    def test_from_mapping_rejects_bare_string_lists(self):
        with pytest.raises(GenerationError, match="'kinds' must be a list"):
            CorpusConfig.from_mapping({"kinds": "racy"})
        with pytest.raises(GenerationError,
                           match="'schedulers' must be a list"):
            CorpusConfig.from_mapping({"schedulers": "adversarial"})

    def test_from_mapping_rejects_non_mapping_overrides(self):
        with pytest.raises(GenerationError, match="'params' must map"):
            CorpusConfig.from_mapping({"params": {"locked-mix": 5}})
        with pytest.raises(GenerationError, match="'params' must map"):
            CorpusConfig.from_mapping({"params": [1, 2]})

    def test_from_mapping_round_trips_params(self):
        config = CorpusConfig.from_mapping({
            "name": "x", "kinds": ["racy"], "count": 2,
            "params": {"racy": {"write_fraction": 0.9}},
        })
        assert config.overrides_for("racy") == {"write_fraction": 0.9}
        assert config.overrides_for("c11") == {}

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"name": "filecfg", "count": 1,
                                    "kinds": ["racy"]}))
        config = CorpusConfig.from_file(path)
        assert config.name == "filecfg" and config.count == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(GenerationError, match="unknown kinds"):
            CorpusConfig(kinds=("quantum",)).resolved_kinds()

    def test_empty_kinds_means_every_registered_kind(self):
        from repro.trace.generators import GENERATOR_REGISTRY

        assert CorpusConfig().resolved_kinds() == tuple(GENERATOR_REGISTRY)


class TestPlanning:
    def test_plan_is_deterministic(self, small_config):
        assert plan_corpus(small_config) == plan_corpus(small_config)

    def test_scenario_kinds_cycle_schedulers(self, small_config):
        members = plan_corpus(small_config)
        locked = [m for m in members if m["kind"] == "locked-mix"]
        assert [m["params"]["scheduler"] for m in locked] == \
            ["rr", "weighted"]
        racy = [m for m in members if m["kind"] == "racy"]
        assert all("scheduler" not in m["params"] for m in racy)

    def test_history_events_are_capped(self):
        config = CorpusConfig(kinds=("history",), count=2, seed=0,
                              events="const:500")
        members = plan_corpus(config)
        assert all(m["events"] <= 10 for m in members)

    def test_count_must_be_positive(self):
        with pytest.raises(GenerationError, match="count must be"):
            plan_corpus(CorpusConfig(count=0))

    def test_non_integer_shape_sample_is_a_clean_error(self):
        config = CorpusConfig(kinds=("racy",), count=1,
                              threads="choice:four,five")
        with pytest.raises(GenerationError, match="non-integer sample"):
            plan_corpus(config)


class TestBuilding:
    def test_writes_files_and_manifest(self, built):
        out, manifest = built
        assert (out / "manifest.json").exists()
        for member in manifest["traces"]:
            assert (out / member["file"]).exists()
            assert member["event_count"] > 0
        assert manifest["suite"] == "corpus:t"

    def test_rebuild_is_byte_identical(self, built, tmp_path, small_config):
        out, manifest = built
        again = build_corpus(tmp_path / "again", small_config,
                             register=False)
        for member in manifest["traces"]:
            left = (out / member["file"]).read_bytes()
            right = (tmp_path / "again" / member["file"]).read_bytes()
            assert left == right, member["file"]
        left_manifest = (out / "manifest.json").read_bytes()
        right_manifest = (tmp_path / "again" / "manifest.json").read_bytes()
        assert left_manifest == right_manifest

    def test_build_registers_the_sweep_suite(self, built):
        _out, manifest = built
        assert "corpus:t" in SUITES
        suite = SUITES["corpus:t"]
        assert len(suite.specs) == len(manifest["traces"])


class TestSweepIntegration:
    def test_corpus_suite_sweeps_clean(self, built):
        result = run_suite("corpus:t", analyses=["race-prediction"],
                           backends=["st", "vc-flat"])
        assert not result.failures()
        assert len(result.records) == 8  # 4 traces x 2 backends
        # Spec-regenerated traces carry the manifest's trace ids.
        ids = {record.trace_id for record in result.records}
        expected = {m["trace_id"] for m in built[1]["traces"]}
        assert ids == expected


class TestStcCorpus:
    @pytest.fixture
    def stc_built(self, tmp_path):
        config = CorpusConfig(name="b", kinds=("racy", "c11"), count=2,
                              seed=5, format="stc")
        manifest = build_corpus(tmp_path / "corpus", config)
        yield tmp_path / "corpus", manifest, config
        SUITES.pop("corpus:b", None)

    def test_members_are_stc_files(self, stc_built):
        root, manifest, _config = stc_built
        assert manifest["format"] == "stc"
        for member in manifest["traces"]:
            assert member["file"].endswith(".stc")
            blob = (root / member["file"]).read_bytes()
            assert blob[:4] == b"\x89STC"

    def test_members_load_and_match_their_specs(self, stc_built):
        from repro.trace import read_trace
        from repro.trace.generators import build_trace

        root, manifest, _config = stc_built
        for member in manifest["traces"]:
            trace = read_trace(root / member["file"])
            assert len(trace) == member["event_count"]
            rebuilt = build_trace(member["kind"],
                                  num_threads=member["threads"],
                                  events=member["events"],
                                  seed=member["seed"], **member["params"])
            assert list(trace) == list(rebuilt)

    def test_resolve_member_returns_stc_path(self, stc_built):
        root, manifest, _config = stc_built
        wanted = manifest["traces"][0]["trace_id"]
        path, name = resolve_member(f"{root / 'manifest.json'}#{wanted}",
                                    manifest)
        assert path.endswith(".stc")
        assert name == wanted

    def test_stc_corpus_suite_sweeps_clean(self, stc_built):
        result = run_suite("corpus:b", analyses=["race-prediction"],
                           backends=["vc-flat"])
        assert not result.failures()

    def test_stc_rebuild_is_byte_identical(self, stc_built, tmp_path):
        root, manifest, config = stc_built
        again = build_corpus(tmp_path / "again", config)
        SUITES.pop("corpus:b", None)
        for member in manifest["traces"]:
            assert ((root / member["file"]).read_bytes()
                    == (tmp_path / "again" / member["file"]).read_bytes())

    def test_unknown_format_rejected(self):
        with pytest.raises(GenerationError, match="format"):
            CorpusConfig(name="x", format="parquet")


class TestManifestConsumption:
    def test_load_manifest_validates(self, tmp_path):
        bogus = tmp_path / "not.json"
        bogus.write_text(json.dumps({"something": 1}))
        with pytest.raises(GenerationError, match="not a corpus manifest"):
            load_manifest(bogus)

    def test_version_check(self, tmp_path):
        stale = tmp_path / "old.json"
        stale.write_text(json.dumps({"traces": [], "version": 99}))
        with pytest.raises(GenerationError, match="unsupported corpus "
                                                  "manifest version"):
            load_manifest(stale)

    def test_read_manifest_probes_shape(self, built, tmp_path):
        out, _manifest = built
        assert read_manifest(out / "manifest.json") is not None
        other = tmp_path / "plain.json"
        other.write_text("[1, 2]")
        assert read_manifest(other) is None
        unparsable = tmp_path / "broken.json"
        unparsable.write_text("{nope")
        assert read_manifest(unparsable) is None

    def test_suite_from_manifest_round_trips_specs(self, built):
        _out, manifest = built
        suite = suite_from_manifest(manifest)
        assert [spec.trace_id for spec in suite.specs] == \
            [m["trace_id"] for m in manifest["traces"]]

    def test_register_corpus_suite_from_path(self, built):
        out, _manifest = built
        SUITES.pop("corpus:t", None)
        suite = register_corpus_suite(out / "manifest.json")
        assert SUITES[suite.name] is suite

    def test_resolve_member_defaults_to_first(self, built):
        out, manifest = built
        path, name = resolve_member(str(out / "manifest.json"))
        assert name == manifest["traces"][0]["trace_id"]
        assert path.endswith(manifest["traces"][0]["file"])

    def test_resolve_member_by_fragment(self, built):
        out, manifest = built
        wanted = manifest["traces"][2]["trace_id"]
        path, name = resolve_member(f"{out / 'manifest.json'}#{wanted}")
        assert name == wanted

    def test_resolve_member_unknown_fragment(self, built):
        out, _manifest = built
        with pytest.raises(GenerationError, match="no trace 'zzz'"):
            resolve_member(f"{out / 'manifest.json'}#zzz")


class TestWatchIntegration:
    def test_open_source_resolves_manifest_members(self, built):
        from repro.stream.source import FileSource, open_source
        from repro.trace.formats import load_trace

        out, manifest = built
        member = manifest["traces"][1]
        source = open_source(f"{out / 'manifest.json'}#{member['trace_id']}")
        assert isinstance(source, FileSource)
        assert source.name == member["trace_id"]
        events = list(source.events())
        on_disk = load_trace(out / member["file"])
        assert [str(e) for e in events] == [str(e) for e in on_disk]

    def test_open_source_bad_fragment_is_stream_error(self, built):
        from repro.errors import StreamError
        from repro.stream.source import open_source

        out, _manifest = built
        with pytest.raises(StreamError, match="no trace"):
            open_source(f"{out / 'manifest.json'}#nope")
