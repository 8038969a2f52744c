"""MetricsRegistry and instruments: identity, thread-safety contracts,
conflicts, snapshots, and the active-registry switch."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    METRIC_CATALOG,
    SNAPSHOT_VERSION,
    MetricsRegistry,
    set_registry,
    use_registry,
)


class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_inc_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            counter.inc(-1)

    def test_label_sets_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("c", analysis="a").inc()
        registry.counter("c", analysis="b").inc(2)
        assert registry.counter("c", analysis="a").value == 1
        assert registry.counter("c", analysis="b").value == 2

    def test_get_or_create_returns_the_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("c", x=1) is registry.counter("c", x=1)
        # Label order must not matter.
        assert registry.counter("c", a=1, b=2) is \
            registry.counter("c", b=2, a=1)


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7


class TestHistogram:
    def test_observations_land_in_the_right_bucket(self):
        histogram = MetricsRegistry().histogram(
            "h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.describe()["counts"] == [1, 2, 1, 1]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(56.05)

    def test_boundary_value_falls_in_its_le_bucket(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        histogram.observe(1.0)  # le="1.0" means <= 1.0
        assert histogram.describe()["counts"] == [1, 0, 0]

    def test_default_buckets(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.bounds == DEFAULT_TIME_BUCKETS

    def test_timer_observes_elapsed_seconds(self):
        histogram = MetricsRegistry().histogram("h")
        with histogram.time():
            pass
        assert histogram.count == 1
        assert 0 < histogram.sum < 1.0

    def test_timer_observes_on_exception_too(self):
        histogram = MetricsRegistry().histogram("h")
        with pytest.raises(RuntimeError):
            with histogram.time():
                raise RuntimeError("boom")
        assert histogram.count == 1

    def test_unsorted_bounds_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="strictly increasing"):
            registry.histogram("h", buckets=(1.0, 0.5))
        with pytest.raises(ObservabilityError, match="strictly increasing"):
            registry.histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ObservabilityError, match="strictly increasing"):
            registry.histogram("h", buckets=())


class TestConflicts:
    def test_type_morphing_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.gauge("m")
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.histogram("m")

    def test_histogram_bounds_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ObservabilityError, match="bounds"):
            registry.histogram("h", buckets=(1.0, 3.0))
        # Same bounds: fine, same object.
        assert registry.histogram("h", buckets=(1.0, 2.0)) is \
            registry.histogram("h", buckets=(1.0, 2.0))


class TestSnapshot:
    def test_document_shape_and_jsonability(self):
        registry = MetricsRegistry()
        registry.counter("c", k="v").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        with registry.span("work"):
            pass
        snapshot = registry.snapshot()
        assert snapshot["version"] == SNAPSHOT_VERSION
        assert snapshot["ts_ns"] > 0
        json.dumps(snapshot)
        [counter] = snapshot["counters"]
        assert counter == {"name": "c", "labels": {"k": "v"}, "value": 3}
        [gauge] = snapshot["gauges"]
        assert gauge["value"] == 1.5
        # The span fed the span_seconds histogram plus the span log.
        names = {entry["name"] for entry in snapshot["histograms"]}
        assert names == {"h", "span_seconds"}
        assert [span["name"] for span in snapshot["spans"]] == ["work"]

    def test_instruments_sorted_by_name_then_labels(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a", z=2).inc()
        registry.counter("a", z=1).inc()
        described = [instrument.describe()
                     for instrument in registry.instruments()]
        assert [(d["name"], d["labels"].get("z")) for d in described] == \
            [("a", "1"), ("a", "2"), ("b", None)]


class TestActiveRegistry:
    def test_disabled_by_default(self):
        from repro.obs import metrics

        assert metrics.ACTIVE is None

    def test_use_registry_installs_and_restores(self):
        from repro.obs import metrics

        registry = MetricsRegistry()
        with use_registry(registry) as active:
            assert active is registry
            assert metrics.ACTIVE is registry
        assert metrics.ACTIVE is None

    def test_use_registry_nests(self):
        from repro.obs import metrics

        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            with use_registry(inner):
                assert metrics.ACTIVE is inner
            assert metrics.ACTIVE is outer

    def test_set_registry_returns_previous(self):
        from repro.obs import metrics

        registry = MetricsRegistry()
        assert set_registry(registry) is None
        try:
            assert metrics.ACTIVE is registry
        finally:
            assert set_registry(None) is registry

    def test_use_registry_none_disables_and_yields_none(self):
        from repro.obs import metrics

        with use_registry(MetricsRegistry()):
            with use_registry(None) as active:
                assert active is None
                assert metrics.ACTIVE is None  # hot paths on the fast path
            assert metrics.ACTIVE is not None


class TestCatalog:
    def test_catalog_entries_are_well_formed(self):
        for name, info in METRIC_CATALOG.items():
            assert info["type"] in ("counter", "gauge", "histogram"), name
            assert info["help"], name

    def test_span_seconds_is_catalogued(self):
        assert METRIC_CATALOG["span_seconds"]["type"] == "histogram"
