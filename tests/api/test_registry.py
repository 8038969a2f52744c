"""Registry tests: unified resolution and plugin registration."""

import pytest

from repro.api import Registry, Session, SweepConfig, default_registry
from repro.errors import ReproError


@pytest.fixture
def registry():
    return Registry()


class TestResolution:
    def test_analyses_backends_kinds_suites_resolve(self, registry):
        assert "race-prediction" in registry.analyses()
        assert "incremental-csst" in registry.backends()
        assert "racy" in registry.generators()
        assert "smoke" in registry.suites()

    def test_analysis_name_spellings(self, registry):
        assert registry.resolve_analysis("race-prediction") == "race-prediction"
        assert registry.resolve_analysis("race_prediction") == "race-prediction"
        assert registry.resolve_analysis("deadlock") == "deadlock-prediction"
        assert registry.resolve_analysis("lin") == "linearizability"

    def test_unknown_names_are_clean_errors(self, registry):
        with pytest.raises(ReproError, match="unknown analysis"):
            registry.resolve_analysis("quantum")
        with pytest.raises(ReproError, match="unknown partial-order backend"):
            registry.backend("quantum")

    def test_registries_are_views_over_shared_state(self):
        # Two instances observe the same tables; default_registry pins one.
        assert Registry().analyses() == Registry().analyses()
        assert default_registry() is default_registry()


class TestBackendPlugins:
    def test_registered_backend_joins_every_front_end(self, registry):
        from repro.core import BACKENDS, IncrementalCSST

        class TracingOrder(IncrementalCSST):
            """An IncrementalCSST variant standing in for a plugin."""

        name = "tracing-csst"
        try:
            registry.register_backend(name, TracingOrder)
            # Factory table.
            assert BACKENDS[name] is TracingOrder
            # Family membership inferred from supports_deletion=False.
            from repro.analyses.common.base import Analysis

            cls = Analysis.by_name("race-prediction")
            assert name in cls.applicable_backends()
            lin = Analysis.by_name("linearizability")
            assert name not in lin.applicable_backends()
            # Capabilities reflect it.
            caps = Session().capabilities()
            assert caps["backends"][name]["incremental"]
            # And a sweep can actually run on it.
            result = Session().run(SweepConfig(
                suite="smoke", analyses="race-prediction",
                backends=f"vc-flat,{name}"))
            assert result.exit_code == 0
            assert {record.backend for record in result.records} == \
                {"vc-flat", name}
        finally:
            from repro.core import unregister_backend

            unregister_backend(name)
        assert name not in BACKENDS

    def test_builtin_backends_cannot_be_unregistered(self):
        from repro.core import unregister_backend

        with pytest.raises(ReproError, match="built-in"):
            unregister_backend("vc-flat")

    def test_builtin_backends_cannot_be_shadowed(self, registry):
        from repro.core import BACKENDS, GraphOrder, incremental_backends

        # Shadowing a built-in (even with extra family flags) must be
        # rejected outright -- family membership of built-ins is fixed.
        with pytest.raises(ReproError, match="cannot replace built-in"):
            registry.register_backend("graph", GraphOrder, incremental=True)
        assert "graph" not in incremental_backends()
        assert BACKENDS["graph"] is GraphOrder

    def test_register_backend_rejects_non_partial_orders(self, registry):
        with pytest.raises(ReproError, match="PartialOrder subclass"):
            registry.register_backend("bogus", dict)


class TestAnalysisAndGeneratorPlugins:
    def test_plugin_callable_installs_everything_at_once(self, registry):
        from repro.analyses.common.base import Analysis, _ANALYSIS_REGISTRY
        from repro.analyses.race_prediction import RacePredictionAnalysis
        from repro.trace.generators import GENERATOR_REGISTRY, racy_trace

        class PluginAnalysis(RacePredictionAnalysis):
            name = "plugin-races"

        def plugin(reg):
            reg.register_analysis(PluginAnalysis)
            reg.register_generator(
                "plugin-racy", racy_trace, analyses=("plugin-races",),
                description="plugin-provided workload")

        try:
            registry.install(plugin)
            assert Analysis.by_name("plugin-races") is PluginAnalysis
            entry = GENERATOR_REGISTRY["plugin-racy"]
            assert entry.source == "plugin"
            assert entry.analyses == ("plugin-races",)
            caps = Session().capabilities()
            assert caps["kinds"]["plugin-racy"]["source"] == "plugin"
            assert caps["analyses"]["plugin-races"]["fed_by"] == \
                ["plugin-racy"]
        finally:
            _ANALYSIS_REGISTRY.pop("plugin-races", None)
            GENERATOR_REGISTRY.pop("plugin-racy", None)

    def test_load_plugins_tolerates_missing_group(self, registry):
        # No distribution installs entry points for this group; loading
        # must be a clean no-op, not an error.
        assert registry.load_plugins(group="repro.plugins.nonexistent") == []

    def test_session_keeps_the_plugin_load_report(self):
        assert Session().plugin_report == []
        assert Session(load_plugins=True).plugin_report == []
