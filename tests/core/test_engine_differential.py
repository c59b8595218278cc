"""Differential gate: incremental engine bit-identical to the reference.

The ``"incremental"`` engine (heap-driven pair selection, peeked pair
stats) must reproduce the ``"reference"`` engine bit-for-bit: same best
cost (exact float equality), same winning arrangement (region member
order included), same states-explored and feasible-states counters --
under both transition policies, with and without pair weights (on
designs below and above the weighted kernel's 12-configuration
threshold), with and without a restart cap, and across
the shared-merge-cache coupling of a full ``partition()`` run (searches
later in a run read merged groups cached by earlier ones, so cache
*contents* are part of the contract).  The engines code seen states
differently (the reference keeps frozensets of member masks, the
incremental engine one int per partition of the base slots), so the
seen-state sets are compared only through the states they let each
engine explore.

``REPRO_DIFF_DESIGNS`` scales the random-design sweeps (default 12 for
the tier-1 suite; the CI differential gate runs 200).
"""

from __future__ import annotations

import itertools
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.resources import ResourceVector
from repro.arch.tiles import quantised_footprint
from repro.core.allocation import (
    AllocationOptions,
    _MergeCache,
    _initial_groups,
    _mergeable,
    search_candidate_set,
)
from repro.core.baselines import single_region_scheme
from repro.core.clustering import enumerate_base_partitions
from repro.core.cost import TransitionPolicy
from repro.core.covering import candidate_partition_sets
from repro.core.matrix import ConnectivityMatrix
from repro.core.partitioner import PartitionerOptions, partition
from repro.eval.casestudy import CASESTUDY_BUDGET, casestudy_design
from repro.obs import RecordingTracer
from repro.synth.generator import GeneratorConfig, generate_design
from repro.synth.profiles import CIRCUIT_CLASSES, CircuitClass

from .test_wide_golden import WIDE

DIFF_DESIGNS = int(os.environ.get("REPRO_DIFF_DESIGNS", "12"))

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def synthetic_designs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    cls = draw(st.sampled_from(list(CircuitClass)))
    rng = np.random.default_rng(seed)
    cfg = GeneratorConfig(max_modules=4, max_modes=3)
    return generate_design(rng, cls, name=f"diff-{seed}", config=cfg)


def budget_for(design, scale=1.4):
    need = single_region_scheme(design).resource_usage()
    return ResourceVector(
        int(need.clb * scale) + 20,
        int(need.bram * scale) + 4,
        int(need.dsp * scale) + 8,
    )


def weight_matrix(design, seed=0):
    n = len(design.configurations)
    rng = np.random.default_rng(seed)
    W = rng.random((n, n))
    return W + W.T


def search_fingerprint(design, capacity, engine, policy, weights=None,
                       alloc_kwargs=None):
    """Run every candidate set through one shared cache, like partition()."""
    opts = AllocationOptions(
        policy=policy,
        engine=engine,
        pair_weights=weights,
        **(alloc_kwargs or {}),
    )
    cache = _MergeCache(weights)
    out = []
    cm = ConnectivityMatrix.from_design(design)
    bps = enumerate_base_partitions(design, cm)
    for cps in candidate_partition_sets(bps, cm, max_sets=4):
        res = search_candidate_set(design, cps, capacity, opts, cache)
        groups = None
        if res.best_groups is not None:
            groups = tuple(
                tuple(p.label for p in g.members) for g in res.best_groups
            )
        out.append(
            (groups, res.best_cost, res.states_explored, res.feasible_states)
        )
    # Cache contents feed later searches; key set and member order are
    # part of the bit-identical contract.
    out.append(
        sorted(
            tuple(sorted(p.label for p in g.members))
            for g in cache._cache.values()
        )
    )
    return out


def partition_fingerprint(design, capacity, engine, policy, weights=None):
    opts = PartitionerOptions(
        policy=policy,
        allocation=AllocationOptions(policy=policy, engine=engine),
        pair_probabilities=weights,
    )
    tracer = RecordingTracer()
    result = partition(design, capacity, opts, tracer)
    # Engine-machinery counters (heap traffic, cache effectiveness)
    # legitimately differ between engines; the contract covers the result
    # and the search-shape counters.
    counters = {
        k: v
        for k, v in sorted(tracer.counters.items())
        if not k.startswith("merge.heap")
        and not k.startswith("merge.cache")
    }
    regions = tuple(
        (r.name, r.labels, r.frames) for r in result.scheme.regions
    )
    return (
        regions,
        result.total_frames,
        result.worst_frames,
        result.objective,
        counters,
    )


class TestSearchLevelDifferential:
    @SETTINGS
    @given(synthetic_designs(), st.sampled_from(list(TransitionPolicy)),
           st.booleans())
    def test_hypothesis_search_identical(self, design, policy, weighted):
        capacity = budget_for(design)
        weights = weight_matrix(design) if weighted else None
        ref = search_fingerprint(design, capacity, "reference", policy, weights)
        inc = search_fingerprint(design, capacity, "incremental", policy,
                                 weights)
        assert ref == inc

    @pytest.mark.parametrize("policy", list(TransitionPolicy))
    @pytest.mark.parametrize(
        "caps",
        [{"max_initial_pairs": 1}, {"max_initial_pairs": 3}],
    )
    def test_capped_options_identical(self, policy, caps):
        for k in range(6):
            rng = np.random.default_rng(900 + k)
            design = generate_design(
                rng, CIRCUIT_CLASSES[k % len(CIRCUIT_CLASSES)], f"cap{k}",
                GeneratorConfig(max_modules=4, max_modes=3),
            )
            capacity = budget_for(design)
            ref = search_fingerprint(
                design, capacity, "reference", policy, alloc_kwargs=caps
            )
            inc = search_fingerprint(
                design, capacity, "incremental", policy, alloc_kwargs=caps
            )
            assert ref == inc, f"design {k} caps {caps}"

    @pytest.mark.parametrize("policy", list(TransitionPolicy))
    def test_wide_candidate_set_identical(self, policy):
        """Base-slot masks, list-position masks and state codes wider
        than one machine word: >= 33 base groups and > 64 base-list
        entries (one per compatible base pair)."""
        rng = np.random.default_rng(5003)
        design = generate_design(
            rng, CIRCUIT_CLASSES[3 % len(CIRCUIT_CLASSES)], "wide",
            GeneratorConfig(min_modules=8, max_modules=10, min_modes=4,
                            max_modes=5),
        )
        cm = ConnectivityMatrix.from_design(design)
        cps = next(
            candidate_partition_sets(
                enumerate_base_partitions(design, cm), cm, max_sets=1
            )
        )
        base = _initial_groups(design, cps, _MergeCache())
        compatible = sum(
            _mergeable(a, b) for a, b in itertools.combinations(base, 2)
        )
        assert len(base) >= 33
        assert compatible > 64
        capacity = budget_for(design)
        caps = {"max_initial_pairs": 8}
        ref = search_fingerprint(
            design, capacity, "reference", policy, alloc_kwargs=caps
        )
        inc = search_fingerprint(
            design, capacity, "incremental", policy, alloc_kwargs=caps
        )
        assert ref == inc
        # Some descents reach the budget, so the mode-flip path runs too.
        assert any(feasible for *_, feasible in ref[:-1])

    def test_random_design_sweep(self):
        """The scaled version of the committed 200-design gate."""
        for k in range(DIFF_DESIGNS):
            rng = np.random.default_rng(3000 + k)
            design = generate_design(
                rng, CIRCUIT_CLASSES[k % len(CIRCUIT_CLASSES)], f"sweep{k}",
                GeneratorConfig(max_modules=5, max_modes=3),
            )
            capacity = budget_for(design)
            for policy in TransitionPolicy:
                ref = search_fingerprint(design, capacity, "reference", policy)
                inc = search_fingerprint(
                    design, capacity, "incremental", policy
                )
                assert ref == inc, f"design {k} policy {policy}"

    def test_wide_design_sweep(self):
        """Designs with >= 12 configurations, where weighted switch sums
        come from the numpy kernel; every other design is weighted."""
        seed = 7000
        for k in range(DIFF_DESIGNS):
            while True:
                seed += 1
                design = generate_design(
                    np.random.default_rng(seed),
                    CIRCUIT_CLASSES[seed % len(CIRCUIT_CLASSES)],
                    f"wide{seed}", WIDE,
                )
                if len(design.configurations) >= 12:
                    break
            capacity = budget_for(design, scale=2.0)
            weights = weight_matrix(design, seed) if k % 2 else None
            for policy in TransitionPolicy:
                ref = search_fingerprint(
                    design, capacity, "reference", policy, weights
                )
                inc = search_fingerprint(
                    design, capacity, "incremental", policy, weights
                )
                assert ref == inc, f"seed {seed} policy {policy}"


class TestPartitionLevelDifferential:
    @pytest.mark.parametrize("policy", list(TransitionPolicy))
    def test_case_study_identical(self, policy):
        design = casestudy_design()
        ref = partition_fingerprint(design, CASESTUDY_BUDGET, "reference",
                                    policy)
        inc = partition_fingerprint(design, CASESTUDY_BUDGET, "incremental",
                                    policy)
        assert ref == inc

    def test_case_study_weighted_identical(self):
        design = casestudy_design()
        names = [c.name for c in design.configurations]
        weights = {(names[0], names[1]): 0.6, (names[-1], names[0]): 1.7}
        ref = partition_fingerprint(
            design, CASESTUDY_BUDGET, "reference", TransitionPolicy.LENIENT,
            weights,
        )
        inc = partition_fingerprint(
            design, CASESTUDY_BUDGET, "incremental", TransitionPolicy.LENIENT,
            weights,
        )
        assert ref == inc

    def test_random_partitions_identical(self):
        for k in range(max(2, DIFF_DESIGNS // 3)):
            rng = np.random.default_rng(5000 + k)
            design = generate_design(
                rng, CIRCUIT_CLASSES[k % len(CIRCUIT_CLASSES)], f"part{k}",
                GeneratorConfig(max_modules=4, max_modes=3),
            )
            capacity = budget_for(design)
            ref = partition_fingerprint(
                design, capacity, "reference", TransitionPolicy.LENIENT
            )
            inc = partition_fingerprint(
                design, capacity, "incremental", TransitionPolicy.LENIENT
            )
            assert ref == inc, f"design {k}"
