"""The replay fast paths: differential identity vs the reference.

``engine="auto"`` (the vector kernel for history-free policies, the
inlined scalar loop otherwise) is a pure throughput optimisation, so
its contract is absolute: for every (scheme, trace, policy) it must
emit a canonical record byte-identical to the hand-written reference
loop -- same bucket counts, same exact float aggregates, same retained
quantile samples.  These tests enforce that with a hypothesis
differential gate over every policy preset (so both fast paths run),
plus unit pins for engine selection and the empty trace.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.resources import ResourceVector
from repro.core.partitioner import partition
from repro.obs import RecordingTracer
from repro.obs.metrics import Histogram
from repro.replay import (
    POLICY_PRESETS,
    REPLAY_ENGINES,
    ReplayError,
    TraceSpec,
    generator_matrix,
    iter_trace,
    replay_record,
    replay_trace,
)
from repro.replay.kernel import tables_for, vector_eligible
from repro.replay.trace import config_names

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def example_scheme():
    from repro.eval.example_design import example_design

    return partition(example_design(), ResourceVector(520, 16, 16)).scheme


def _canonical(scheme, spec, policy, engine="auto"):
    names = config_names(scheme.design)
    matrix = generator_matrix(names, spec)
    result = replay_trace(scheme, iter_trace(names, spec), policy,
                          matrix=matrix, engine=engine)
    return json.dumps(replay_record(result), sort_keys=True)


@st.composite
def trace_specs(draw):
    return TraceSpec(
        environment=draw(st.sampled_from(["uniform", "markov", "bursty"])),
        length=draw(st.sampled_from([0, 1, 2, 17, 48])),
        seed=draw(st.integers(min_value=0, max_value=50)),
        dwell=draw(st.sampled_from([0.5, 0.85])),
    )


class TestDifferentialGate:
    @SETTINGS
    @given(spec=trace_specs())
    def test_every_engine_matches_the_reference(self, example_scheme, spec):
        # Every preset per drawn trace: the history-free ones run the
        # vector kernel, the stateful ones the scalar loop.
        for preset in POLICY_PRESETS.values():
            assert _canonical(example_scheme, spec, preset) == \
                _canonical(example_scheme, spec, preset, "reference")

    @SETTINGS
    @given(spec=trace_specs(), policy=st.sampled_from(sorted(POLICY_PRESETS)))
    def test_default_engine_is_the_reference(self, example_scheme, spec,
                                             policy):
        # The dispatcher default (auto) is what every caller gets: no
        # engine argument at all must still match the reference.
        preset = POLICY_PRESETS[policy]
        names = config_names(example_scheme.design)
        matrix = generator_matrix(names, spec)
        result = replay_trace(example_scheme, iter_trace(names, spec), preset,
                              matrix=matrix)
        assert json.dumps(replay_record(result), sort_keys=True) == \
            _canonical(example_scheme, spec, preset, "reference")


class TestEngineSelection:
    def test_engine_names_are_published(self):
        assert REPLAY_ENGINES == ("auto", "reference")

    def test_unknown_engine_rejected(self, example_scheme):
        with pytest.raises(ReplayError):
            replay_trace(example_scheme, [], engine="warp")

    def test_vector_eligibility_tracks_policy_state(self):
        assert vector_eligible(POLICY_PRESETS["no-prefetch"])
        assert vector_eligible(POLICY_PRESETS["evict-static"])
        # Prefetching managers and dynamic stores carry per-event state
        # the array kernel does not model.
        assert not vector_eligible(POLICY_PRESETS["prefetch-oracle"])
        assert not vector_eligible(POLICY_PRESETS["evict-lru"])

    @pytest.mark.parametrize("policy", sorted(POLICY_PRESETS))
    def test_auto_runs_the_vector_kernel_exactly_when_eligible(
            self, example_scheme, policy):
        preset = POLICY_PRESETS[policy]
        names = config_names(example_scheme.design)
        spec = TraceSpec(environment="uniform", length=16, seed=1)
        tracer = RecordingTracer()
        replay_trace(example_scheme, iter_trace(names, spec), preset,
                     matrix=generator_matrix(names, spec), tracer=tracer)
        vector_events = tracer.counters.get("replay.vector_events", 0)
        assert vector_events == (16 if vector_eligible(preset) else 0)

    def test_tables_are_cached_per_scheme(self, example_scheme):
        assert tables_for(example_scheme) is tables_for(example_scheme)

    def test_empty_trace_matches_reference_with_static_store(
            self, example_scheme):
        spec = TraceSpec(environment="uniform", length=0, seed=0)
        preset = POLICY_PRESETS["evict-static"]
        assert vector_eligible(preset)
        assert _canonical(example_scheme, spec, preset) == \
            _canonical(example_scheme, spec, preset, "reference")


class TestObserveMany:
    @SETTINGS
    @given(values=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        max_size=200))
    def test_bit_identical_to_repeated_observe(self, values):
        one = Histogram()
        for v in values:
            one.observe(v)
        many = Histogram()
        many.observe_many(values)
        assert json.dumps(one.to_dict(), sort_keys=True) == \
            json.dumps(many.to_dict(), sort_keys=True)

    def test_sample_thinning_matches_across_the_cap(self):
        # Push past the reservoir cap so stride doubling kicks in.
        values = [i * 1e-3 for i in range(3000)]
        one, many = Histogram(), Histogram()
        for v in values:
            one.observe(v)
        many.observe_many(values)
        assert one.to_dict() == many.to_dict()
