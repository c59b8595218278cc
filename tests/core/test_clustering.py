"""Clustering tests: Table I reproduction plus structural properties.

The clique differential gate (``TestCliqueOracleGate``) checks the
clique enumerator against a brute-force walk over every vertex subset.
``REPRO_DIFF_DESIGNS`` scales its example count (at least 50; the CI
differential gate runs 200).
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.resources import ResourceVector
from repro.core.clustering import (
    BasePartition,
    agglomerate,
    enumerate_base_partitions,
    partitions_by_label,
    verify_agglomeration_matches,
)
from repro.core.matrix import ConnectivityMatrix
from repro.eval.example_design import (
    TABLE1_EXPECTED,
    example_design,
    single_mode_mix_design,
)
from repro.obs import RecordingTracer
from repro.synth.generator import (
    MAX_MODES,
    MAX_MODULES,
    MIN_MODULES,
    GeneratorConfig,
    generate_design,
)
from repro.synth.profiles import CircuitClass

from ..conftest import make_design


class TestTable1:
    """The paper's Table I, exactly."""

    def test_labels_and_weights(self, paper_example):
        got = {
            bp.label: bp.frequency_weight
            for bp in enumerate_base_partitions(paper_example)
        }
        assert got == TABLE1_EXPECTED

    def test_count(self, paper_example):
        assert len(enumerate_base_partitions(paper_example)) == 26

    def test_non_joint_clique_excluded_by_default(self, paper_example):
        labels = {bp.label for bp in enumerate_base_partitions(paper_example)}
        assert "{A1, B2, C1}" not in labels

    def test_non_joint_clique_included_on_request(self, paper_example):
        labels = {
            bp.label
            for bp in enumerate_base_partitions(
                paper_example, include_non_joint_cliques=True
            )
        }
        assert "{A1, B2, C1}" in labels

    def test_full_configurations_present_with_weight_1(self, paper_example):
        by_label = partitions_by_label(enumerate_base_partitions(paper_example))
        for label in ("{A3, B2, C3}", "{A1, B1, C1}", "{A2, B2, C3}"):
            assert by_label[label].frequency_weight == 1


class TestBasePartition:
    def _bp(self, modes, weight=1, clb=10):
        return BasePartition(
            modes=frozenset(modes),
            frequency_weight=weight,
            resources=ResourceVector(clb, 0, 0),
            modules=frozenset(m[0] for m in modes),
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            self._bp([])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            self._bp(["A1"], weight=-1)

    def test_label_sorted(self):
        assert self._bp(["B1", "A1"]).label == "{A1, B1}"

    def test_size(self):
        assert self._bp(["A1", "B1"]).size == 2

    def test_frames_quantised(self):
        assert self._bp(["A1"], clb=21).frames == 2 * 36

    def test_overlaps(self):
        assert self._bp(["A1", "B1"]).overlaps(self._bp(["B1"]))
        assert not self._bp(["A1"]).overlaps(self._bp(["B1"]))

    def test_sort_key_orders_by_size_then_weight_then_area(self):
        small = self._bp(["A1"], weight=5, clb=100)
        pair_light = self._bp(["A1", "B1"], weight=1, clb=10)
        pair_heavy = self._bp(["A2", "B2"], weight=1, clb=500)
        pair_frequent = self._bp(["A3", "B3"], weight=2, clb=10)
        ordered = sorted(
            [pair_frequent, pair_heavy, small, pair_light],
            key=BasePartition.sort_key,
        )
        assert ordered[0] is small
        assert ordered[1] is pair_light
        assert ordered[2] is pair_heavy
        assert ordered[3] is pair_frequent


class TestLabelCache:
    """``label`` is computed once per instance and never leaks into identity."""

    def _bp(self, modes):
        return BasePartition(
            modes=frozenset(modes),
            frequency_weight=1,
            resources=ResourceVector(10, 0, 0),
            modules=frozenset(m[0] for m in modes),
        )

    def test_computed_once(self):
        bp = self._bp(["B1", "A1"])
        assert bp.label is bp.label
        assert bp.__dict__["label"] == "{A1, B1}"

    def test_survives_pickle(self):
        bp = self._bp(["B1", "A1"])
        assert bp.label == "{A1, B1}"
        clone = pickle.loads(pickle.dumps(bp))
        assert clone == bp and hash(clone) == hash(bp)
        assert clone.label == "{A1, B1}"

    def test_replace_relabels(self):
        bp = self._bp(["A1"])
        assert bp.label == "{A1}"
        wider = dataclasses.replace(bp, modes=frozenset({"A1", "B1"}))
        assert wider.label == "{A1, B1}"
        assert bp.label == "{A1}"
        same = dataclasses.replace(bp, frequency_weight=2)
        assert same.label == "{A1}"

    def test_equality_and_hash_ignore_cache(self):
        warm, cold = self._bp(["B1", "A1"]), self._bp(["A1", "B1"])
        assert warm.label == "{A1, B1}"
        assert "label" in warm.__dict__ and "label" not in cold.__dict__
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert len({warm, cold}) == 1

    def test_still_frozen(self):
        bp = self._bp(["A1"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            bp.modes = frozenset({"B1"})


class TestPartitionSemantics:
    def test_resources_are_summed_over_members(self, paper_example):
        by_label = partitions_by_label(enumerate_base_partitions(paper_example))
        a3 = paper_example.mode("A3").resources
        b2 = paper_example.mode("B2").resources
        assert by_label["{A3, B2}"].resources == a3 + b2

    def test_modules_recorded(self, paper_example):
        by_label = partitions_by_label(enumerate_base_partitions(paper_example))
        assert by_label["{A3, B2, C3}"].modules == frozenset("ABC")

    def test_at_most_one_mode_per_module(self, paper_example):
        for bp in enumerate_base_partitions(
            paper_example, include_non_joint_cliques=True
        ):
            assert len(bp.modules) == bp.size

    def test_singletons_present_for_every_active_mode(self, paper_example):
        labels = {bp.label for bp in enumerate_base_partitions(paper_example)}
        for m in ("A1", "A2", "A3", "B1", "B2", "C1", "C2", "C3"):
            assert "{" + m + "}" in labels


class TestAgglomeration:
    def test_events_in_descending_weight(self, paper_example):
        events = list(agglomerate(paper_example))
        weights = [e.edge_weight for e in events]
        assert weights == sorted(weights, reverse=True)

    def test_first_edge_is_heaviest(self, paper_example):
        # Paper walks through linking A3-B2 first (weight 2).
        first = next(iter(agglomerate(paper_example)))
        assert first.edge_weight == 2
        assert first.edge in (frozenset(("A3", "B2")), frozenset(("B2", "C3")))

    def test_every_event_contains_its_edge_as_clique(self, paper_example):
        for event in agglomerate(paper_example):
            assert event.edge in event.new_cliques

    def test_incremental_matches_direct(self, paper_example):
        incremental, direct = verify_agglomeration_matches(paper_example)
        assert incremental == direct

    def test_incremental_matches_direct_single_mode_mix(self, single_mode_mix):
        incremental, direct = verify_agglomeration_matches(single_mode_mix)
        assert incremental == direct


class TestSingleModeMix:
    """Sec. IV-D: single-mode modules with absent-module configurations."""

    def test_configurations_become_partitions(self, single_mode_mix):
        labels = {bp.label for bp in enumerate_base_partitions(single_mode_mix)}
        assert "{C1, F1}" in labels
        assert "{E1, P1, R1}" in labels

    def test_no_cross_configuration_cliques(self, single_mode_mix):
        # Modes of different configurations never co-occur.
        labels = {bp.label for bp in enumerate_base_partitions(single_mode_mix)}
        assert "{C1, E1}" not in labels


@st.composite
def small_designs(draw):
    """Random 2-4 module designs with 1-6 random configurations."""
    n_modules = draw(st.integers(2, 4))
    modules = {}
    for i in range(n_modules):
        n_modes = draw(st.integers(1, 3))
        modules[f"M{i}"] = {
            f"M{i}.{k}": (draw(st.integers(1, 200)), draw(st.integers(0, 8)),
                          draw(st.integers(0, 8)))
            for k in range(n_modes)
        }
    mode_names = {m: list(modes) for m, modes in modules.items()}
    n_configs = draw(st.integers(1, 6))
    configs = []
    seen = set()
    for _ in range(n_configs):
        present = [
            m for m in modules if draw(st.booleans())
        ] or [next(iter(modules))]
        choice = tuple(
            draw(st.sampled_from(mode_names[m])) for m in present
        )
        if frozenset(choice) not in seen:
            seen.add(frozenset(choice))
            configs.append(choice)
    return make_design(modules, configs)


class TestClusteringProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_designs())
    def test_every_partition_is_subset_of_some_configuration(self, design):
        cm = ConnectivityMatrix.from_design(design)
        for bp in enumerate_base_partitions(design, cm):
            assert any(
                bp.modes <= frozenset(c.modes) for c in design.configurations
            )

    @settings(max_examples=40, deadline=None)
    @given(small_designs())
    def test_frequency_weight_positive_and_bounded(self, design):
        for bp in enumerate_base_partitions(design):
            assert 1 <= bp.frequency_weight <= design.configuration_count

    @settings(max_examples=40, deadline=None)
    @given(small_designs())
    def test_sorted_by_covering_order(self, design):
        bps = enumerate_base_partitions(design)
        keys = [bp.sort_key() for bp in bps]
        assert keys == sorted(keys)

    @settings(max_examples=40, deadline=None)
    @given(small_designs())
    def test_singleton_weight_equals_node_weight(self, design):
        cm = ConnectivityMatrix.from_design(design)
        for bp in enumerate_base_partitions(design, cm):
            if bp.size == 1:
                (mode,) = bp.modes
                assert bp.frequency_weight == cm.node_weight(mode)


# -- differential gate: brute-force clique oracle ---------------------------

GATE_EXAMPLES = max(50, int(os.environ.get("REPRO_DIFF_DESIGNS", "12")))


def shuffled(design, rng):
    """The same design with modules, modes and configurations reordered."""
    modules = [
        dataclasses.replace(m, modes=tuple(rng.sample(m.modes, len(m.modes))))
        for m in rng.sample(design.modules, len(design.modules))
    ]
    configurations = rng.sample(design.configurations, len(design.configurations))
    return dataclasses.replace(
        design, modules=tuple(modules), configurations=tuple(configurations)
    )


@st.composite
def gate_designs(draw):
    """Designs of at most 12 modes, in a drawn declaration order."""
    kind = draw(st.sampled_from(["paper", "single", "synthetic"]))
    if kind == "paper":
        design = example_design()
    elif kind == "single":
        design = single_mode_mix_design()
    else:
        n_modules = draw(st.integers(MIN_MODULES, MAX_MODULES))
        max_modes = min(MAX_MODES, 12 // n_modules)
        config = GeneratorConfig(
            min_modules=n_modules, max_modules=n_modules,
            min_modes=draw(st.integers(1, max_modes)), max_modes=max_modes,
        )
        seed = draw(st.integers(0, 2**32 - 1))
        design = generate_design(
            np.random.default_rng(seed), draw(st.sampled_from(list(CircuitClass))),
            name=f"gate-{seed}", config=config,
        )
    return shuffled(design, random.Random(draw(st.integers(0, 2**32 - 1))))


def oracle_cliques(modes, edges):
    """Every vertex subset of ``modes`` whose pairs are all in ``edges``."""
    return [
        frozenset(subset)
        for size in range(1, len(modes) + 1)
        for subset in itertools.combinations(modes, size)
        if all(frozenset(pair) in edges for pair in itertools.combinations(subset, 2))
    ]


def oracle_partitions(design, include_non_joint_cliques):
    """(partitions in covering order, cliques enumerated, cliques filtered)."""
    cm = ConnectivityMatrix.from_design(design)
    edges = cm.edges()
    cliques = oracle_cliques(cm.mode_names, edges)
    out, filtered = [], 0
    for clique in cliques:
        joint = any(clique <= frozenset(c.modes) for c in design.configurations)
        if len(clique) >= 3 and not joint and not include_non_joint_cliques:
            filtered += 1
            continue
        if len(clique) == 1:
            weight = cm.node_weight(next(iter(clique)))
        else:
            weight = min(edges[frozenset(p)] for p in itertools.combinations(clique, 2))
        out.append(BasePartition(
            modes=clique,
            frequency_weight=weight,
            resources=ResourceVector.sum(design.mode(m).resources for m in clique),
            modules=frozenset(design.module_of(m).name for m in clique),
        ))
    return sorted(out, key=BasePartition.sort_key), len(cliques), filtered


def oracle_events(design):
    """(step, edge, weight, new cliques) of the incremental clustering."""
    cm = ConnectivityMatrix.from_design(design)
    ordered = sorted(
        cm.edges().items(), key=lambda kv: (-kv[1], tuple(sorted(kv[0])))
    )
    events, present = [], set()
    for step, (edge, weight) in enumerate(ordered, start=1):
        present.add(edge)
        new = [c for c in oracle_cliques(cm.mode_names, present) if edge <= c]
        events.append((
            step, edge, weight,
            tuple(sorted(new, key=lambda c: (len(c), tuple(sorted(c))))),
        ))
    return events


class TestCliqueOracleGate:
    """The clique enumerator against every vertex subset, on <= 12 modes."""

    @settings(
        max_examples=GATE_EXAMPLES, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(gate_designs(), st.booleans())
    def test_partitions_and_counters_match_oracle(self, design, include):
        assert len(design.all_modes) <= 12
        tracer = RecordingTracer()
        got = enumerate_base_partitions(
            design, include_non_joint_cliques=include, tracer=tracer
        )
        want, enumerated, filtered = oracle_partitions(design, include)
        assert got == want
        assert [bp.label for bp in got] == [bp.label for bp in want]
        counters = tracer.trace().counters
        assert counters["clustering.cliques_enumerated"] == enumerated
        assert counters["clustering.cliques_filtered"] == filtered

    @settings(
        max_examples=GATE_EXAMPLES, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(gate_designs())
    def test_agglomerate_events_match_oracle(self, design):
        got = [
            (e.step, e.edge, e.edge_weight, e.new_cliques)
            for e in agglomerate(design)
        ]
        assert got == oracle_events(design)
