"""The ``auto`` rule of :func:`repro.tune.choose_backend`."""

from __future__ import annotations

from repro import tune
from repro.analyses.common.base import Analysis
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.trace.generators import build_trace


def features(kind):
    return tune.extract_features(build_trace(kind, num_threads=3, events=30,
                                             seed=1))


class _GraphOnly:
    """An analysis-class stand-in offering none of the rule's picks."""

    @staticmethod
    def applicable_backends():
        return ("graph", "st")

    @staticmethod
    def default_backend():
        return "st"


def test_atomic_heavy_prefers_vector_clocks():
    c11 = features("c11")
    assert c11.atomic_fraction > tune.ATOMIC_THRESHOLD
    cls = Analysis.by_name("race-prediction")
    assert tune.choose_backend(cls, c11) == "vc-flat"


def test_lock_structured_prefers_incremental_csst():
    racy = features("racy")
    assert racy.atomic_fraction <= tune.ATOMIC_THRESHOLD
    cls = Analysis.by_name("race-prediction")
    assert tune.choose_backend(cls, racy) == "incremental-csst"


def test_falls_back_to_the_class_default():
    assert tune.choose_backend(_GraphOnly, features("racy")) == "st"


def test_pick_counter_is_labelled_by_backend_only():
    cls = Analysis.by_name("c11-races")
    with use_registry(MetricsRegistry()) as registry:
        tune.choose_backend(cls, features("c11"))
        counters = registry.snapshot()["counters"]
    picks = [item for item in counters if item["name"] == "tune_pick_total"]
    assert picks == [{"name": "tune_pick_total",
                      "labels": {"backend": "vc-flat"}, "value": 1}]
