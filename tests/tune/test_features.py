"""TraceFeatures extraction: determinism and representation-independence.

Two contracts under test, as hypothesis properties:

* **deterministic** -- extracting twice from the same trace yields an
  equal (and equally hashable) feature vector;
* **representation-independent** -- a ``Trace`` built in memory, the
  trace decoded from its ``.stc`` encoding, and an STD text round trip
  all produce identical features.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (
    EventKind,
    MemoryOrder,
    Trace,
    decode_trace,
    dumps_trace,
    encode_trace,
    loads_trace,
)
from repro.trace.generators import GENERATOR_REGISTRY, build_trace
from repro.tune import FEATURE_NAMES, extract_features

#: Event shapes the strategy can emit: (kind, needs_variable_prefix,
#: needs_memory_order).
_SHAPES = [
    (EventKind.READ, "x", None),
    (EventKind.WRITE, "x", None),
    (EventKind.ATOMIC_READ, "a", MemoryOrder.ACQUIRE),
    (EventKind.ATOMIC_WRITE, "a", MemoryOrder.RELEASE),
    (EventKind.ACQUIRE, "lock", None),
    (EventKind.RELEASE, "lock", None),
    (EventKind.FENCE, None, MemoryOrder.SEQ_CST),
]


@st.composite
def traces(draw) -> Trace:
    """Random small traces over a feature-relevant event mix."""
    num_threads = draw(st.integers(min_value=1, max_value=4))
    ops = draw(st.lists(
        st.tuples(st.integers(0, num_threads - 1),
                  st.integers(0, len(_SHAPES) - 1),
                  st.integers(0, 4)),
        min_size=0, max_size=60))
    trace = Trace(name="prop")
    for thread, shape, var in ops:
        kind, prefix, order = _SHAPES[shape]
        kwargs = {}
        if prefix is not None:
            kwargs["variable"] = f"{prefix}{var}"
        if kind in (EventKind.READ, EventKind.WRITE, EventKind.ATOMIC_READ,
                    EventKind.ATOMIC_WRITE):
            kwargs["value"] = var
        if order is not None:
            kwargs["memory_order"] = order
        trace.append(thread, kind, **kwargs)
    return trace


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_extraction_is_deterministic(self, trace):
        first, second = extract_features(trace), extract_features(trace)
        assert first == second
        assert hash(first) == hash(second)
        assert first.vector() == second.vector()

    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_memory_binary_and_text_round_trip_agree(self, trace):
        memory = extract_features(trace)
        binary = extract_features(decode_trace(encode_trace(trace)))
        text = extract_features(loads_trace(dumps_trace(trace)))
        assert memory == binary == text

    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_invariants(self, trace):
        features = extract_features(trace)
        assert features.events == len(trace)
        assert features.threads == trace.num_threads
        atomics = sum(1 for event in trace if event.atomic)
        assert features.atomic_fraction == (
            atomics / len(trace) if len(trace) else 0.0)
        vector = features.vector()
        assert len(vector) == len(FEATURE_NAMES)
        assert all(isinstance(value, float) and not math.isnan(value)
                   for value in vector)


class TestGeneratorKinds:
    @pytest.mark.parametrize("kind", sorted(GENERATOR_REGISTRY))
    def test_every_generator_kind_extracts(self, kind):
        trace = build_trace(kind, num_threads=3, events=20, seed=7)
        features = extract_features(trace)
        assert features.events == len(trace)
        assert features.threads <= trace.num_threads
        assert features == extract_features(
            decode_trace(encode_trace(trace)))

    def test_empty_trace(self):
        features = extract_features(Trace(name="empty"))
        assert features.events == 0
        assert features.atomic_fraction == 0.0
