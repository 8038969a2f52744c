"""The ``auto`` rule of :func:`repro.tune.choose_backend`: the crossover
table's pick, which is each analysis's default backend."""

from __future__ import annotations

import pytest

from repro import tune
from repro.analyses.common.base import Analysis
from repro.obs.metrics import MetricsRegistry, use_registry


class _GraphOnly:
    """An analysis-class stand-in whose default it does not offer."""

    @staticmethod
    def applicable_backends():
        return ("graph", "st")

    @staticmethod
    def default_backend():
        return "incremental-csst"


@pytest.mark.parametrize("name", sorted(Analysis.registered()))
def test_pick_is_the_default_backend(name):
    cls = Analysis.by_name(name)
    assert tune.choose_backend(cls) == cls.default_backend()
    assert cls.default_backend() in cls.applicable_backends()


def test_falls_back_to_the_first_applicable_backend():
    assert tune.choose_backend(_GraphOnly) == "graph"


def test_pick_counter_is_labelled_by_backend_only():
    cls = Analysis.by_name("c11-races")
    with use_registry(MetricsRegistry()) as registry:
        tune.choose_backend(cls)
        counters = registry.snapshot()["counters"]
    picks = [item for item in counters if item["name"] == "tune_pick_total"]
    assert picks == [{"name": "tune_pick_total",
                      "labels": {"backend": cls.default_backend()},
                      "value": 1}]
