"""Trace specs, streaming generators and the workload suite.

The load-bearing guarantee is trace identity: the block-drawn
generators of :mod:`repro.runtime.adaptive` -- streamed by
:func:`repro.replay.iter_trace` and wrapped by the eager environment
classes -- must yield, element for element, what one rng call per event
yields.  The per-event loops below are that oracle; cached replay
results are keyed by trace, so any drift would silently alias them.

``REPRO_DIFF_DESIGNS`` scales the oracle gate's example count (at
least 50; the CI differential gate runs 200).
"""

from __future__ import annotations

import hashlib
import os
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eval.example_design import example_design
from repro.replay import (
    ENVIRONMENTS,
    TraceSpec,
    WorkloadSuite,
    generator_matrix,
    iter_trace,
    ring_matrix,
    trace_key,
)
from repro.replay.trace import TraceSpecError, config_names, resolved_matrix
from repro.runtime import adaptive
from repro.runtime.adaptive import (
    BurstyEnvironment,
    MarkovEnvironment,
    UniformEnvironment,
)
from repro.synth.generator import generate_design
from repro.synth.profiles import CircuitClass

from ..conftest import make_design

GATE_EXAMPLES = max(50, int(os.environ.get("REPRO_DIFF_DESIGNS", "12")))

GATE_SETTINGS = settings(
    max_examples=GATE_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- the per-event oracle: one rng call per event --------------------------


def oracle_uniform(names, length, seed):
    if len(names) == 1:
        return names * min(length, 1)
    rng = np.random.default_rng(seed)
    out = []
    current = None
    for _ in range(length):
        candidates = [n for n in names if n != current]
        current = candidates[int(rng.integers(len(candidates)))]
        out.append(current)
    return out


def oracle_markov(rows, start, length, seed):
    matrix = {src: dict(row) for src, row in rows}
    rng = np.random.default_rng(seed)
    current = start
    out = [current]
    while len(out) < length:
        row = matrix[current]
        dsts = list(row)
        probs = np.array([row[d] for d in dsts], dtype=float)
        probs = probs / probs.sum()
        current = dsts[int(rng.choice(len(dsts), p=probs))]
        out.append(current)
    return out[:length]


def oracle_bursty(names, length, seed, dwell):
    rng = np.random.default_rng(seed)
    current = names[int(rng.integers(len(names)))]
    out = []
    for _ in range(length):
        if len(names) > 1 and rng.random() >= dwell:
            candidates = [n for n in names if n != current]
            current = candidates[int(rng.integers(len(candidates)))]
        out.append(current)
    return out


def random_matrix(rng, names):
    """A row-stochastic matrix with self-loops and zero-probability cells."""
    matrix = {}
    for src in names:
        weights = rng.random(len(names)) * (rng.random(len(names)) < 0.6)
        if not weights.any():
            weights[rng.integers(len(names))] = 1.0
        probs = weights / weights.sum()
        matrix[src] = {dst: float(p) for dst, p in zip(names, probs)}
    return matrix


@st.composite
def gate_designs(draw):
    kind = draw(st.sampled_from(["paper", "single", "synthetic"]))
    if kind == "paper":
        return example_design()
    if kind == "single":
        return make_design({"A": {"A1": (10, 0, 0)}}, [("A1",)], name="one")
    seed = draw(st.integers(0, 2**32 - 1))
    cls = draw(st.sampled_from(list(CircuitClass)))
    return generate_design(
        np.random.default_rng(seed), cls, name=f"gate-{seed}"
    )


@st.composite
def gate_cases(draw):
    """(design, spec): every environment, explicit and ring matrices."""
    design = draw(gate_designs())
    names = config_names(design)
    environment = draw(st.sampled_from(ENVIRONMENTS))
    length = draw(
        st.one_of(
            st.sampled_from([0, 1, 2]),
            st.integers(3, 40),
            st.integers(200, 700),
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    if environment != "markov":
        dwell = draw(st.sampled_from([0.0, 0.5, 0.9]))
        return design, TraceSpec(environment, length, seed=seed, dwell=dwell)
    matrix = None
    if len(names) < 2 or draw(st.booleans()):
        matrix = random_matrix(np.random.default_rng(seed), names)
    start = draw(st.one_of(st.none(), st.sampled_from(names)))
    spec = TraceSpec(
        "markov", length, seed=seed, matrix=matrix, start=start
    )
    return design, spec


def eager_and_oracle(design, spec):
    """The eager class's trace and the oracle's, reversed matrix order."""
    names = list(config_names(design))
    if spec.environment == "uniform":
        return (
            UniformEnvironment(design).trace(spec.length, spec.seed),
            oracle_uniform(names, spec.length, spec.seed),
        )
    if spec.environment == "bursty":
        return (
            BurstyEnvironment(design, dwell=spec.dwell).trace(
                spec.length, spec.seed
            ),
            oracle_bursty(names, spec.length, spec.seed, spec.dwell),
        )
    # Not the canonical (sorted) order: the eager class walks the
    # caller's destination order, so the oracle must see the same.
    rows = [
        (src, list(reversed(row)))
        for src, row in reversed(resolved_matrix(names, spec))
    ]
    env = MarkovEnvironment(design, {src: dict(row) for src, row in rows})
    start = spec.start or names[0]
    return (
        env.trace(spec.length, spec.seed, start=spec.start),
        oracle_markov(rows, start, spec.length, spec.seed),
    )


class TestOracleGate:
    """Block-drawn generators equal the per-event oracle, draw for draw."""

    @GATE_SETTINGS
    @given(gate_cases(), st.sampled_from([1, 3, 7, adaptive._BLOCK]))
    def test_generators_match_oracle(self, case, block):
        design, spec = case
        names = list(config_names(design))
        if spec.environment == "uniform":
            expected = oracle_uniform(names, spec.length, spec.seed)
        elif spec.environment == "bursty":
            expected = oracle_bursty(
                names, spec.length, spec.seed, spec.dwell
            )
        else:
            expected = oracle_markov(
                resolved_matrix(names, spec),
                spec.start or names[0],
                spec.length,
                spec.seed,
            )
        # A small block makes every long trace cross many boundaries.
        with mock.patch.object(adaptive, "_BLOCK", block):
            assert list(iter_trace(names, spec)) == expected
            eager, oracle = eager_and_oracle(design, spec)
        assert eager == oracle
        assert len(expected) == (
            min(spec.length, 1)
            if len(names) == 1 and spec.environment == "uniform"
            else spec.length
        )

    def test_suite_traces_and_keys_are_pinned(self):
        # Digests of a small fleet's trace keys and events, taken from the
        # per-event generators: cached replay results stay addressable.
        suite = WorkloadSuite(designs=4, traces_per_design=6, length=300,
                              seed=7)
        keys = hashlib.sha256()
        events = hashlib.sha256()
        for design, spec in suite.iter_workloads():
            names = config_names(design)
            keys.update(trace_key(names, spec).encode())
            events.update(
                "\n".join(iter_trace(names, spec)).encode() + b"\0"
            )
        assert keys.hexdigest() == (
            "fe39fa85d89d54061685061fb1b3385593b3f31d24fe2e5bba368d8a185888b1"
        )
        assert events.hexdigest() == (
            "664d8065ec76218be6c1520a0778a33910abc6e8464bcc2227d2ef8be8fcf46f"
        )


class TestStreamEquivalence:
    """iter_trace streams exactly what the eager classes list."""

    def test_uniform_matches_environment(self, paper_example):
        names = config_names(paper_example)
        spec = TraceSpec(environment="uniform", length=300, seed=7)
        assert list(iter_trace(names, spec)) == UniformEnvironment(
            paper_example
        ).trace(300, seed=7)

    def test_bursty_matches_environment(self, paper_example):
        names = config_names(paper_example)
        spec = TraceSpec(environment="bursty", length=300, seed=42, dwell=0.85)
        assert list(iter_trace(names, spec)) == BurstyEnvironment(
            paper_example, dwell=0.85
        ).trace(300, seed=42)

    def test_markov_matches_environment(self, paper_example):
        names = config_names(paper_example)
        matrix = ring_matrix(names, bias=0.6)
        # Destination order matters to the rng walk: the stream consumes
        # rows in canonical (sorted) order, so prime the eager class
        # with the same ordering.
        nested = {src: dict(row) for src, row in matrix}
        spec = TraceSpec(environment="markov", length=300, seed=9, matrix=matrix)
        assert list(iter_trace(names, spec)) == MarkovEnvironment(
            paper_example, nested
        ).trace(300, seed=9)

    def test_markov_default_matrix_is_the_ring(self, paper_example):
        names = config_names(paper_example)
        spec = TraceSpec(environment="markov", length=50, seed=3)
        assert resolved_matrix(names, spec) == ring_matrix(names)

    def test_single_configuration_uniform(self):
        spec = TraceSpec(environment="uniform", length=5)
        # Mirrors UniformEnvironment: one event, then nothing to switch to.
        assert list(iter_trace(["only"], spec)) == ["only"]
        assert list(iter_trace(["only"], TraceSpec("uniform", 0))) == []

    def test_empty_names_rejected(self):
        with pytest.raises(TraceSpecError):
            list(iter_trace([], TraceSpec(environment="uniform", length=1)))

    def test_stream_is_lazy(self, paper_example):
        names = config_names(paper_example)
        spec = TraceSpec(environment="bursty", length=10**9, seed=1)
        head = list(islice(iter_trace(names, spec), 8))
        assert len(head) == 8
        assert all(h in names for h in head)

    @pytest.mark.parametrize("environment", ["uniform", "markov"])
    def test_block_drawn_stream_is_lazy(self, paper_example, environment):
        names = config_names(paper_example)
        spec = TraceSpec(environment=environment, length=10**9, seed=1)
        head = list(islice(iter_trace(names, spec), 8))
        assert len(head) == 8
        assert all(h in names for h in head)


class TestTraceKey:
    def test_stable_across_equal_specs(self, paper_example):
        names = config_names(paper_example)
        a = trace_key(names, TraceSpec("uniform", 100, seed=4))
        b = trace_key(names, TraceSpec("uniform", 100, seed=4))
        assert a == b and len(a) == 64

    @pytest.mark.parametrize(
        "other",
        [
            TraceSpec("uniform", 100, seed=5),
            TraceSpec("uniform", 101, seed=4),
            TraceSpec("bursty", 100, seed=4),
            TraceSpec("bursty", 100, seed=4, dwell=0.5),
        ],
    )
    def test_sensitive_to_spec_fields(self, paper_example, other):
        names = config_names(paper_example)
        assert trace_key(names, TraceSpec("uniform", 100, seed=4)) != trace_key(
            names, other
        )

    def test_sensitive_to_name_order(self):
        spec = TraceSpec("uniform", 10)
        assert trace_key(["a", "b"], spec) != trace_key(["b", "a"], spec)

    def test_round_trips_through_dict(self, paper_example):
        names = config_names(paper_example)
        spec = TraceSpec(
            environment="markov", length=64, seed=11, matrix=ring_matrix(names)
        )
        again = TraceSpec.from_dict(spec.to_dict())
        assert again == spec
        assert trace_key(names, again) == trace_key(names, spec)


class TestSpecValidation:
    def test_unknown_environment(self):
        with pytest.raises(TraceSpecError):
            TraceSpec(environment="lunar", length=1)

    def test_negative_length(self):
        with pytest.raises(TraceSpecError):
            TraceSpec(environment="uniform", length=-1)

    def test_dwell_out_of_range(self):
        with pytest.raises(TraceSpecError):
            TraceSpec(environment="bursty", length=1, dwell=1.0)

    def test_matrix_only_for_markov(self):
        with pytest.raises(TraceSpecError):
            TraceSpec(
                environment="uniform", length=1, matrix=ring_matrix(["a", "b"])
            )

    def test_start_only_for_markov(self):
        with pytest.raises(TraceSpecError):
            TraceSpec(environment="bursty", length=1, start="a")

    def test_matrix_rows_must_sum_to_one(self):
        with pytest.raises(TraceSpecError):
            TraceSpec(
                environment="markov",
                length=1,
                matrix={"a": {"b": 0.5}, "b": {"a": 1.0}},
            )

    def test_markov_matrix_unknown_names_rejected_at_stream_time(self):
        spec = TraceSpec(
            environment="markov",
            length=4,
            matrix={"a": {"x": 1.0}, "b": {"a": 1.0}},
        )
        with pytest.raises(TraceSpecError):
            list(iter_trace(["a", "b"], spec))

    def test_markov_unknown_start_rejected(self):
        spec = TraceSpec(environment="markov", length=4, start="zz")
        with pytest.raises(TraceSpecError):
            list(iter_trace(["a", "b"], spec))


class TestRingMatrix:
    def test_rows_are_stochastic_and_biased(self):
        rows = dict(ring_matrix(["a", "b", "c"], bias=0.7))
        assert set(rows) == {"a", "b", "c"}
        for src, row in rows.items():
            probs = dict(row)
            assert src not in probs
            assert sum(probs.values()) == pytest.approx(1.0)
        assert dict(rows["a"])["b"] == pytest.approx(0.7)

    def test_two_names_degenerates_to_certainty(self):
        rows = dict(ring_matrix(["a", "b"]))
        assert dict(rows["a"]) == {"b": 1.0}

    def test_needs_two_names(self):
        with pytest.raises(TraceSpecError):
            ring_matrix(["solo"])

    def test_bias_must_be_open_interval(self):
        with pytest.raises(TraceSpecError):
            ring_matrix(["a", "b"], bias=1.0)


class TestGeneratorMatrix:
    def test_markov_returns_resolved_matrix(self, paper_example):
        names = config_names(paper_example)
        spec = TraceSpec(environment="markov", length=1)
        nested = generator_matrix(names, spec)
        assert nested == {src: dict(row) for src, row in ring_matrix(names)}

    def test_uniform_and_bursty_return_jump_distribution(self):
        for env in ("uniform", "bursty"):
            nested = generator_matrix(
                ["a", "b", "c"], TraceSpec(environment=env, length=1)
            )
            assert nested["a"] == {"b": 0.5, "c": 0.5}

    def test_single_configuration_has_no_distribution(self):
        assert generator_matrix(["a"], TraceSpec("uniform", 1)) is None


class TestWorkloadSuite:
    def test_deterministic_fleet(self):
        a = WorkloadSuite(designs=3, traces_per_design=2, length=32, seed=5)
        b = WorkloadSuite(designs=3, traces_per_design=2, length=32, seed=5)
        wa = [(d.name, spec) for d, spec in a.iter_workloads()]
        wb = [(d.name, spec) for d, spec in b.iter_workloads()]
        assert wa == wb
        assert len(wa) == a.trace_count == 6

    def test_environments_round_robin(self):
        suite = WorkloadSuite(designs=1, traces_per_design=4, length=8)
        envs = [suite.spec_for(0, t).environment for t in range(4)]
        assert envs == ["uniform", "markov", "bursty", "uniform"]
        assert set(envs) <= set(ENVIRONMENTS)

    def test_slot_seeds_are_distinct(self):
        suite = WorkloadSuite(designs=4, traces_per_design=3, length=8, seed=1)
        seeds = {
            suite.spec_for(d, t).seed
            for d in range(suite.designs)
            for t in range(suite.traces_per_design)
        }
        assert len(seeds) == suite.trace_count

    def test_iteration_is_lazy(self):
        # A fleet far too large to materialise: islice must return fast.
        suite = WorkloadSuite(designs=10_000, traces_per_design=10, length=16)
        head = list(islice(suite.iter_workloads(), 3))
        assert len(head) == 3
        design, spec = head[0]
        assert spec.length == 16
        assert design.configurations

    def test_validation(self):
        with pytest.raises(TraceSpecError):
            WorkloadSuite(designs=0)
        with pytest.raises(TraceSpecError):
            WorkloadSuite(designs=1, traces_per_design=0)
        with pytest.raises(TraceSpecError):
            WorkloadSuite(designs=1, environments=())
        with pytest.raises(TraceSpecError):
            WorkloadSuite(designs=1, environments=("lunar",))
