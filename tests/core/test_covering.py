"""Covering-algorithm tests: candidate partition sets and the outer loop.

The differential gate at the end pins the bitmask covering to a numpy
oracle (the matrix-slicing formulation it replaced): same candidate sets,
same cover assignment, same ``covering.*`` counters, spans and histogram.
``REPRO_DIFF_DESIGNS`` scales its example count (the CI differential
gate runs 200).
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.resources import ResourceVector
from repro.core.clustering import BasePartition, enumerate_base_partitions
from repro.core.covering import (
    _COUNT_BOUNDS,
    CandidatePartitionSet,
    CoveringError,
    candidate_partition_sets,
    cover,
)
from repro.core.matrix import ConnectivityMatrix
from repro.eval.example_design import example_design, single_mode_mix_design
from repro.obs import NULL_TRACER, RecordingTracer
from repro.synth.generator import generate_design
from repro.synth.profiles import CircuitClass


@pytest.fixture
def setup(paper_example):
    cm = ConnectivityMatrix.from_design(paper_example)
    bps = enumerate_base_partitions(paper_example, cm)
    return paper_example, cm, bps


class TestFirstCover:
    def test_first_cps_is_all_singletons(self, setup):
        # Paper: "the first candidate partition set is {{A2}, {B1}, {C2},
        # {A1}, {C1}, {C3}, {A3}, and {B2}} ... actually all the modes".
        design, cm, bps = setup
        cps = cover(bps, cm)
        assert cps is not None
        assert set(cps.labels) == {
            "{A1}", "{A2}", "{A3}", "{B1}", "{B2}", "{C1}", "{C2}", "{C3}"
        }

    def test_cover_assignment_valid(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        cps.validate(design)

    def test_cover_assignment_per_configuration(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        # Conf.1 = A3, B2, C3 covered by those three singletons.
        assert set(cps.cover["Conf.1"]) == {"{A3}", "{B2}", "{C3}"}

    def test_useless_partition_skipped(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        # After all singletons, larger partitions cover nothing new.
        assert all(lbl.count(",") == 0 for lbl in cps.labels)


class TestCoverFailure:
    def test_returns_none_when_matrix_not_reducible(self, setup):
        design, cm, bps = setup
        # Remove every partition containing B2: Conf.1 can't be covered.
        pruned = [bp for bp in bps if "B2" not in bp.modes]
        assert cover(pruned, cm) is None

    def test_empty_list(self, setup):
        design, cm, bps = setup
        assert cover([], cm) is None


class TestOuterLoop:
    def test_head_removal_produces_new_sets(self, setup):
        design, cm, bps = setup
        sets = list(candidate_partition_sets(bps, cm))
        assert len(sets) >= 2
        # First set is the all-singleton one.
        assert all(lbl.count(",") == 0 for lbl in sets[0].labels)
        # Later sets use at least one multi-mode partition (paper: after
        # removing {A2}, "{A2, B2} is added to the new candidate set").
        multi = [s for s in sets[1:] if any("," in lbl for lbl in s.labels)]
        assert multi

    def test_a2_removal_introduces_a2_b2(self, setup):
        design, cm, bps = setup
        sets = list(candidate_partition_sets(bps, cm))
        # The head of the covering list is {A2} (size 1, weight 1, area
        # min among weight-1 singletons depends on resources); find the
        # first set lacking singleton {A2}: it must cover A2 via a pair.
        for cps in sets:
            if "{A2}" not in cps.labels:
                assert any(
                    "A2" in lbl and "," in lbl for lbl in cps.labels
                )
                break
        else:
            pytest.fail("head removal never dropped {A2}")

    def test_all_sets_valid(self, setup):
        design, cm, bps = setup
        for cps in candidate_partition_sets(bps, cm):
            cps.validate(design)

    def test_max_sets_cap(self, setup):
        design, cm, bps = setup
        sets = list(candidate_partition_sets(bps, cm, max_sets=3))
        assert len(sets) == 3

    def test_terminates(self, setup):
        design, cm, bps = setup
        sets = list(candidate_partition_sets(bps, cm))
        assert len(sets) <= len(bps)

    def test_consecutive_duplicates_skipped(self, setup):
        design, cm, bps = setup
        sets = list(candidate_partition_sets(bps, cm))
        for a, b in zip(sets, sets[1:]):
            assert a.labels != b.labels


class TestCandidatePartitionSet:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CandidatePartitionSet(partitions=(), cover={})

    def test_partition_lookup(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        assert cps.partition("{B2}").label == "{B2}"
        with pytest.raises(KeyError):
            cps.partition("{ZZ}")

    def test_covering_partitions(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        covering = cps.covering_partitions("Conf.4")
        assert {p.label for p in covering} == {"{A1}", "{B2}", "{C2}"}

    def test_validate_detects_missing_configuration(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        broken = CandidatePartitionSet(
            partitions=cps.partitions,
            cover={k: v for k, v in cps.cover.items() if k != "Conf.1"},
        )
        with pytest.raises(CoveringError, match="missing"):
            broken.validate(design)

    def test_validate_detects_incomplete_cover(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        broken_cover = dict(cps.cover)
        broken_cover["Conf.1"] = tuple(
            lbl for lbl in broken_cover["Conf.1"] if lbl != "{B2}"
        )
        broken = CandidatePartitionSet(
            partitions=cps.partitions, cover=broken_cover
        )
        with pytest.raises(CoveringError, match="not fully covered"):
            broken.validate(design)

    def test_validate_detects_non_subset(self, setup):
        design, cm, bps = setup
        cps = cover(bps, cm)
        broken_cover = dict(cps.cover)
        # {A1} is not a subset of Conf.1 (= A3, B2, C3).
        broken_cover["Conf.1"] = broken_cover["Conf.1"] + ("{A1}",)
        broken = CandidatePartitionSet(
            partitions=cps.partitions, cover=broken_cover
        )
        with pytest.raises(CoveringError, match="not a"):
            broken.validate(design)


class TestSingleModeMixCovering:
    def test_covers_with_singletons(self, single_mode_mix):
        cm = ConnectivityMatrix.from_design(single_mode_mix)
        bps = enumerate_base_partitions(single_mode_mix, cm)
        cps = cover(bps, cm)
        assert cps is not None
        cps.validate(single_mode_mix)

    def test_eventually_covers_with_full_configs(self, single_mode_mix):
        cm = ConnectivityMatrix.from_design(single_mode_mix)
        bps = enumerate_base_partitions(single_mode_mix, cm)
        sets = list(candidate_partition_sets(bps, cm))
        # With all singletons removed, the pairs/triples must take over.
        last = sets[-1]
        assert any("," in lbl for lbl in last.labels)


# ----------------------------------------------------------------------
# differential gate: bitmask covering vs the numpy oracle
# ----------------------------------------------------------------------
DIFF_DESIGNS = int(os.environ.get("REPRO_DIFF_DESIGNS", "12"))


def oracle_cover(ordered_partitions, cmatrix, tracer=None):
    """Covering on the boolean matrix: column slices, ``all``/``any``."""
    tracer = tracer or NULL_TRACER
    remaining = cmatrix.matrix.astype(bool).copy()
    col = {name: j for j, name in enumerate(cmatrix.mode_names)}
    selected = []
    cover_map = {name: [] for name in cmatrix.configuration_names}

    considered = 0
    for bp in ordered_partitions:
        considered += 1
        cols = [col[m] for m in bp.modes if m in col]
        if len(cols) != len(bp.modes):
            continue
        block = cmatrix.matrix[:, cols].astype(bool)
        rows_all_present = block.all(axis=1)
        newly = remaining[:, cols] & rows_all_present[:, None]
        if not newly.any():
            continue
        selected.append(bp)
        for i in np.flatnonzero(rows_all_present):
            if remaining[i, cols].any():
                remaining[i, cols] = False
                cover_map[cmatrix.configuration_names[i]].append(bp.label)
        if not remaining.any():
            tracer.count("covering.partitions_considered", considered)
            tracer.count("covering.partitions_selected", len(selected))
            tracer.observe(
                "covering.iterations", considered, bounds=_COUNT_BOUNDS
            )
            return CandidatePartitionSet(
                partitions=tuple(selected),
                cover={k: tuple(v) for k, v in cover_map.items()},
            )

    tracer.count("covering.partitions_considered", considered)
    tracer.count("covering.failures", 1)
    tracer.observe("covering.iterations", considered, bounds=_COUNT_BOUNDS)
    return None


def oracle_candidate_partition_sets(partitions, cmatrix, max_sets=None,
                                    tracer=None):
    """The head-removal outer loop, re-covering a shrinking list copy."""
    tracer = tracer or NULL_TRACER
    working = list(partitions)
    produced = 0
    last_labels = None
    while working:
        with tracer.span("covering", pool=len(working)):
            tracer.count("covering.passes", 1)
            cps = oracle_cover(working, cmatrix, tracer)
        if cps is None:
            return
        if cps.labels != last_labels:
            tracer.count("covering.sets_produced", 1)
            if tracer.enabled:
                tracer.progress(
                    "covering.set_produced",
                    index=produced,
                    partitions=len(cps.partitions),
                )
            yield cps
            last_labels = cps.labels
            produced += 1
            if max_sets is not None and produced >= max_sets:
                return
        else:
            tracer.count("covering.duplicate_sets", 1)
        working.pop(0)


def ghost_partition(modes):
    """A partition naming at least one mode the matrix has no column for."""
    return BasePartition(
        modes=frozenset(modes),
        frequency_weight=1,
        resources=ResourceVector(10, 0, 0),
        modules=frozenset(m.split(".")[0] for m in modes),
    )


def trace_view(tracer):
    """Everything a tracer recorded except timings."""
    def span_view(span):
        return (
            span.name,
            dict(span.attrs),
            dict(span.counters),
            [span_view(c) for c in span.children],
        )

    return (
        dict(tracer.counters),
        {
            name: (h.bounds, list(h.bucket_counts))
            for name, h in tracer.histograms.items()
        },
        [span_view(s) for s in tracer.spans],
        [(e.name, dict(e.payload)) for e in tracer.events],
    )


@st.composite
def covering_problems(draw):
    """A design's matrix plus a (possibly shuffled, salted) partition list."""
    source = draw(st.sampled_from(["synthetic", "example", "mix"]))
    if source == "synthetic":
        seed = draw(st.integers(0, 2**32 - 1))
        cls = draw(st.sampled_from(list(CircuitClass)))
        design = generate_design(
            np.random.default_rng(seed), cls, name=f"cover-{seed}"
        )
    elif source == "example":
        design = example_design()
    else:
        design = single_mode_mix_design()
    cm = ConnectivityMatrix.from_design(design)
    bps = list(enumerate_base_partitions(design, cm))
    if draw(st.booleans()):
        random.Random(draw(st.integers(0, 2**32 - 1))).shuffle(bps)
    modes = sorted(cm.mode_names)
    for _ in range(draw(st.integers(0, 3))):
        ghost = ["ghost.0"]
        if modes and draw(st.booleans()):
            ghost.append(draw(st.sampled_from(modes)))
        bps.insert(draw(st.integers(0, len(bps))), ghost_partition(ghost))
    return design, cm, bps


GATE_SETTINGS = settings(
    max_examples=max(50, DIFF_DESIGNS),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCoveringDifferential:
    @GATE_SETTINGS
    @given(covering_problems())
    def test_cover_matches_oracle(self, problem):
        design, cm, bps = problem
        got_tracer, want_tracer = RecordingTracer(), RecordingTracer()
        got = cover(bps, cm, got_tracer)
        want = oracle_cover(bps, cm, want_tracer)
        assert got == want
        assert trace_view(got_tracer) == trace_view(want_tracer)
        if got is not None:
            got.validate(design)

    @GATE_SETTINGS
    @given(covering_problems(), st.sampled_from([None, 1, 3]))
    def test_candidate_sets_match_oracle(self, problem, max_sets):
        design, cm, bps = problem
        got_tracer, want_tracer = RecordingTracer(), RecordingTracer()
        got = list(candidate_partition_sets(bps, cm, max_sets, got_tracer))
        want = list(
            oracle_candidate_partition_sets(bps, cm, max_sets, want_tracer)
        )
        assert got == want
        assert trace_view(got_tracer) == trace_view(want_tracer)

    def test_every_head_removal_pass_matches_oracle(self):
        # The plan is built once and each pass reads a suffix of it; every
        # suffix must cover exactly like a fresh oracle pass over it.
        design = example_design()
        cm = ConnectivityMatrix.from_design(design)
        bps = list(enumerate_base_partitions(design, cm))
        bps.insert(3, ghost_partition(["ghost.0", "A1"]))
        for head in range(len(bps) + 1):
            assert cover(bps[head:], cm) == oracle_cover(bps[head:], cm)

    def test_unreducible_matrix_matches_oracle(self):
        design = example_design()
        cm = ConnectivityMatrix.from_design(design)
        bps = [bp for bp in enumerate_base_partitions(design, cm)
               if "B2" not in bp.modes]
        got_tracer, want_tracer = RecordingTracer(), RecordingTracer()
        assert cover(bps, cm, got_tracer) is None
        assert oracle_cover(bps, cm, want_tracer) is None
        assert trace_view(got_tracer) == trace_view(want_tracer)
        assert got_tracer.counters["covering.failures"] == 1
