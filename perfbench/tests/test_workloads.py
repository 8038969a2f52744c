"""Tests of the workloads' result checks (``perfbench.workloads``)."""

from __future__ import annotations

import pytest

from perfbench import workloads


class Raw:
    def __init__(self, findings=(), **details) -> None:
        self.findings = list(findings)
        self.details = details


def test_linearizability_answer_tells_unknown_from_linearizable():
    decided = Raw(verdict="linearizable", steps=12)
    gave_up = Raw(verdict="unknown", steps=2001)
    assert workloads._findings(decided) == workloads._findings(gave_up)
    assert workloads._answer("linearizability", decided) != \
        workloads._answer("linearizability", gave_up)
    # Other analyses are judged by their findings alone.
    assert workloads._answer("race-prediction", Raw(["b", "a"], x=1)) == \
        workloads._answer("race-prediction", Raw(["a", "b"], x=2))


def test_figures_come_from_each_operation_median_repeat():
    out = workloads.Measured()
    times = {"a": [1.0, 9.0, 1.0], "b": [2.0, 2.0, 50.0], "c": [4.0]}
    events = {"a": 30, "b": 60, "c": 10}
    # One slow repeat of an operation does not move the figures.
    typical = workloads._typical(out, events, times)
    assert typical == {"a": 1.0, "b": 2.0, "c": 4.0}
    assert out.rate == pytest.approx(100 / 7.0)
    assert out.latency_ms == pytest.approx(2000.0)


def test_times_are_scaled_by_the_local_host_speed(monkeypatch):
    from perfbench import common

    reference = common.REFERENCE_CALIBRATION_S
    # The host runs at full speed for three operations, then at half.
    samples = iter([reference] * 3 + [2 * reference] * 4)
    monkeypatch.setattr(common, "calibration_sample", lambda: next(samples))
    clock = common.ScaledTimes(exponent=1.0, window=1)
    for seconds in (1.0, 1.0, 1.0, 2.0, 2.0, 2.0):
        clock.calibrate()
        clock.record("op", seconds)
    # Each operation is scaled by the samples just before and after it;
    # the slow half's doubled times read as the fast half's.
    assert clock.times() == {"op": [1.0, 1.0, 1.0 / 1.5, 1.0, 1.0, 1.0]}
    assert clock.speed() == 0.5


def test_an_operation_needs_a_calibration_sample_first():
    from perfbench import common

    with pytest.raises(ValueError):
        common.ScaledTimes().record("op", 1.0)


def test_a_run_wide_window_scales_every_operation_alike(monkeypatch):
    from perfbench import common

    reference = common.REFERENCE_CALIBRATION_S
    samples = iter([reference, 4 * reference, 4 * reference, reference])
    monkeypatch.setattr(common, "calibration_sample", lambda: next(samples))
    clock = common.ScaledTimes(exponent=0.5, window=None)
    for seconds in (1.0, 2.0, 3.0):
        clock.calibrate()
        clock.record("replay", seconds)
    # The run's median sample is 2.5x the reference: times / 2.5 ** 0.5.
    assert clock.times()["replay"] == pytest.approx(
        [seconds / 2.5 ** 0.5 for seconds in (1.0, 2.0, 3.0)])
