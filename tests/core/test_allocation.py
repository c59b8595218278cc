"""Merge-search tests: internal counts, cache, and end-to-end optimality."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.resources import ResourceVector
from repro.core.allocation import (
    AllocationOptions,
    _merged_code,
    _MergeCache,
    _initial_groups,
    _mergeable,
    _quantise,
    _state_code,
    _switch_counts,
    groups_to_scheme,
    search_candidate_set,
)
from repro.core.clustering import enumerate_base_partitions
from repro.core.cost import (
    DEFAULT_POLICY,
    TransitionPolicy,
    total_reconfiguration_frames,
)
from repro.core.covering import cover
from repro.core.matrix import ConnectivityMatrix
from repro.core.result import PartitioningScheme, regions_from_partitions

from ..conftest import make_design


def first_cps(design):
    cm = ConnectivityMatrix.from_design(design)
    return cover(enumerate_base_partitions(design, cm), cm)


def brute_pair_counts(activity):
    """(strict, lenient) switch pairs of an activity vector, by pairs."""
    strict = lenient = 0
    for a, b in itertools.combinations(activity, 2):
        if a != b:
            strict += 1
            if a is not None and b is not None:
                lenient += 1
    return strict, lenient


def count_summary(activity):
    """(active mask, same-label pairs) of an activity vector."""
    active = same = 0
    counts: dict[str, int] = {}
    for i, label in enumerate(activity):
        if label is not None:
            active |= 1 << i
            same += counts.get(label, 0)
            counts[label] = counts.get(label, 0) + 1
    return active, same


def summary_counts(activity):
    return _switch_counts(*count_summary(activity), len(activity))


class TestSwitchPairCounts:
    """A group's count summary -- active mask and same-label pairs --
    gives the pair counts of its activity vector."""

    @pytest.mark.parametrize(
        "activity",
        [
            (),
            ("x",),
            (None, None),
            ("x", "x", "x"),
            ("x", "y", None),
            ("x", None, "x", "y", None, "y", "z"),
            (None,) * 5 + ("a",) * 3 + ("b",) * 2,
        ],
    )
    def test_matches_brute_force(self, activity):
        assert summary_counts(activity) == brute_pair_counts(activity)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([None, "a", "b", "c", "d"]), max_size=24))
    def test_random_activity_matches_brute_force(self, activity):
        strict, lenient = summary_counts(activity)
        assert (strict, lenient) == brute_pair_counts(activity)
        assert type(strict) is int and type(lenient) is int

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 24).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-1, 3), min_size=n, max_size=n),
                st.lists(st.sampled_from("abcd"), min_size=n, max_size=n),
            )
        )
    )
    def test_overlay_of_disjoint_groups_adds(self, case):
        """Group ``g`` serves the configurations ``owner`` gives it with
        its own labels (-1: idle); the overlay's counts follow from the
        OR of the groups' active masks and the sum of their same-label
        pairs."""
        owner, labels = case
        overlay = [f"{g}{x}" if g >= 0 else None for g, x in zip(owner, labels)]
        active = same = 0
        for g in range(4):
            a, s = count_summary(
                [x if o == g else None for o, x in zip(owner, overlay)]
            )
            assert not active & a
            active |= a
            same += s
        assert _switch_counts(active, same, len(owner)) == brute_pair_counts(
            overlay
        )


class TestQuantise:
    def test_matches_tiles_module(self):
        from repro.arch.tiles import frames_for, quantised_footprint

        for req in [(0, 0, 0), (1, 1, 1), (818, 0, 28), (4700, 40, 65)]:
            footprint, frames = _quantise(req)
            v = ResourceVector(*req)
            assert footprint == quantised_footprint(v).as_tuple()
            assert frames == frames_for(v)


class TestInitialGroups:
    def test_one_group_per_partition(self, paper_example):
        cps = first_cps(paper_example)
        groups = _initial_groups(paper_example, cps, _MergeCache())
        assert len(groups) == len(cps.partitions)

    def test_activity_matches_cover(self, paper_example):
        cps = first_cps(paper_example)
        groups = _initial_groups(paper_example, cps, _MergeCache())
        names = [c.name for c in paper_example.configurations]
        for bp, group in zip(cps.partitions, groups):
            for i, cname in enumerate(names):
                active = bool(group.active >> i & 1)
                assert active == (bp.label in cps.cover[cname])
            k = group.active.bit_count()
            assert group.same == k * (k - 1) // 2

    def test_usage_mask(self, paper_example):
        cps = first_cps(paper_example)
        groups = _initial_groups(paper_example, cps, _MergeCache())
        b2 = next(g for g in groups if g.members[0].label == "{B2}")
        # B2 occurs in Conf.1, 3, 4, 5 -> bits 0, 2, 3, 4.
        assert b2.usage == 0b11101

    def test_mergeable_iff_disjoint_usage(self, paper_example):
        cps = first_cps(paper_example)
        groups = _initial_groups(paper_example, cps, _MergeCache())
        by_label = {g.members[0].label: g for g in groups}
        assert _mergeable(by_label["{A1}"], by_label["{A2}"])
        assert not _mergeable(by_label["{A1}"], by_label["{B1}"])

    def test_base_groups_memoised_per_cache(self, paper_example):
        cps = first_cps(paper_example)
        cache = _MergeCache()
        first = _initial_groups(paper_example, cps, cache)
        again = _initial_groups(paper_example, cps, cache)
        assert all(a is b for a, b in zip(first, again))
        assert len(cache.base_groups) == len(first)
        fresh = _initial_groups(paper_example, cps, _MergeCache())
        assert [(g.key, g.cost_strict, g.cost_lenient) for g in fresh] == [
            (g.key, g.cost_strict, g.cost_lenient) for g in first
        ]

    def test_activity_only_in_weighted_searches(self, paper_example):
        cps = first_cps(paper_example)
        plain = _initial_groups(paper_example, cps, _MergeCache())
        assert all(g.activity is None for g in plain)
        n = len(paper_example.configurations)
        weighted = _initial_groups(
            paper_example, cps, _MergeCache(np.ones((n, n)))
        )
        for g in weighted:
            label = g.members[0].label
            assert g.activity == tuple(
                label if g.active >> i & 1 else None for i in range(n)
            )


def partition_of(roots):
    """The blocks of the partition whose slot ``s`` lies in block
    ``roots[s]``."""
    blocks: dict[int, set[int]] = {}
    for s, root in enumerate(roots):
        blocks.setdefault(root, set()).add(s)
    return frozenset(frozenset(b) for b in blocks.values())


class TestStateCode:
    """The incremental engine's seen-state code: one int per partition
    of the base slots, updated by one multiply-add per merge."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 64).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=2 * n,
                ),
            )
        )
    )
    def test_incremental_code_matches_scratch(self, case):
        n, merges = case
        width = n.bit_length()
        roots = list(range(n))  # slot -> lowest slot of its group
        spread = {s: 1 << (width * s) for s in range(n)}  # by root
        code = _state_code(roots, width)
        seen = {code}
        for x, y in merges:
            a, b = roots[x], roots[y]
            if a == b:
                continue
            code = _merged_code(code, a, spread[a], b, spread[b])
            keep, gone = min(a, b), max(a, b)
            spread[keep] += spread.pop(gone)
            roots = [keep if r == gone else r for r in roots]
            assert code == _state_code(roots, width)
            # Every merge makes a coarser partition, never seen before.
            assert code not in seen
            seen.add(code)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 64).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
            )
        )
    )
    def test_codes_equal_only_for_equal_partitions(self, labels):
        width = len(labels[0]).bit_length()
        codes, partitions = [], []
        for side in labels:
            first: dict[int, int] = {}
            roots = [first.setdefault(lbl, s) for s, lbl in enumerate(side)]
            codes.append(_state_code(roots, width))
            partitions.append(partition_of(roots))
        assert (codes[0] == codes[1]) == (partitions[0] == partitions[1])


class TestMergeCache:
    def test_same_object_returned(self, paper_example):
        cps = first_cps(paper_example)
        cache = _MergeCache()
        groups = _initial_groups(paper_example, cps, cache)
        a, b = groups[0], groups[1]
        if not _mergeable(a, b):
            a, b = next(
                (x, y)
                for x, y in itertools.combinations(groups, 2)
                if _mergeable(x, y)
            )
        m1 = cache.merge(a, b)
        m2 = cache.merge(b, a)
        assert m1 is m2

    def test_key_is_member_mask(self, paper_example):
        cps = first_cps(paper_example)
        cache = _MergeCache()
        groups = _initial_groups(paper_example, cps, cache)
        keys = [g.key for g in groups]
        # One distinct bit per base-partition label, from the cache.
        assert all(k and not k & (k - 1) for k in keys)
        assert len(set(keys)) == len(keys)
        assert keys == [cache.bit(g.members[0].label) for g in groups]
        a, b = next(
            (x, y)
            for x, y in itertools.combinations(groups, 2)
            if _mergeable(x, y)
        )
        merged = cache.merge(a, b)
        assert merged.key == a.key | b.key
        assert cache._cache[merged.key] is merged

    def test_merged_activity_combines(self, paper_example):
        cps = first_cps(paper_example)
        cache = _MergeCache()
        groups = _initial_groups(paper_example, cps, cache)
        a, b = next(
            (x, y)
            for x, y in itertools.combinations(groups, 2)
            if _mergeable(x, y)
        )
        merged = cache.merge(a, b)
        assert merged.active == a.active | b.active
        assert merged.same == a.same + b.same
        assert merged.usage == a.usage | b.usage
        assert merged.activity is None

    def test_merged_frames_is_envelope_quantised(self, paper_example):
        cps = first_cps(paper_example)
        cache = _MergeCache()
        groups = _initial_groups(paper_example, cps, cache)
        a, b = next(
            (x, y)
            for x, y in itertools.combinations(groups, 2)
            if _mergeable(x, y)
        )
        merged = cache.merge(a, b)
        req = tuple(max(x, y) for x, y in zip(a.requirement, b.requirement))
        assert merged.requirement == req
        assert merged.frames == _quantise(req)[1]


class TestSearch:
    def test_search_result_cost_matches_scheme_cost(self, paper_example):
        cps = first_cps(paper_example)
        capacity = ResourceVector(10_000, 100, 100)
        outcome = search_candidate_set(paper_example, cps, capacity)
        assert outcome.found
        scheme = groups_to_scheme(paper_example, cps, outcome.best_groups)
        assert outcome.best_cost == total_reconfiguration_frames(scheme)

    def test_unconstrained_budget_keeps_everything_separate(self, paper_example):
        # With infinite area the all-separate start (cost 0 under LENIENT:
        # every singleton region has a single activity value) is optimal.
        cps = first_cps(paper_example)
        capacity = ResourceVector(10**6, 10**4, 10**4)
        outcome = search_candidate_set(paper_example, cps, capacity)
        assert outcome.best_cost == 0
        assert len(outcome.best_groups) == len(cps.partitions)

    def test_infeasible_budget_returns_nothing(self, paper_example):
        cps = first_cps(paper_example)
        outcome = search_candidate_set(
            paper_example, cps, ResourceVector(1, 0, 0)
        )
        assert not outcome.found
        assert outcome.feasible_states == 0

    def test_tight_budget_forces_merging(self, tiny_design):
        cps = first_cps(tiny_design)
        # all-separate: A1(40->2 tiles) + A2(200->10) + B1(220->11) +
        # B2(50->3) = 26 tiles = 520 CLBs.  The only compatible merges are
        # {A2,B1}, {A2,A1} and {B1,B2} (A1/B2 co-occur with the others),
        # so the smallest reachable footprint is {A2,B1}+{A1}+{B2} =
        # 220+40+60 = 320 CLBs.
        outcome = search_candidate_set(
            tiny_design, cps, ResourceVector(340, 0, 0)
        )
        assert outcome.found
        assert len(outcome.best_groups) < len(cps.partitions)

    def test_matches_brute_force_on_tiny_design(self, tiny_design):
        """Exhaustive check over all compatible group partitions."""
        cps = first_cps(tiny_design)
        capacity = ResourceVector(340, 0, 0)
        cache = _MergeCache()
        groups = _initial_groups(tiny_design, cps, cache)
        names = [c.name for c in tiny_design.configurations]

        def cover_activity(group):
            """The member serving each configuration, from the cover."""
            labels = [p.label for p in group.members]
            return [
                next((lbl for lbl in labels if lbl in cps.cover[n]), None)
                for n in names
            ]

        best = None

        def partitions_of(items):
            if not items:
                yield []
                return
            head, *rest = items
            for sub in partitions_of(rest):
                # head alone
                yield [[head]] + sub
                # head joined to an existing block
                for i in range(len(sub)):
                    yield sub[:i] + [sub[i] + [head]] + sub[i + 1 :]

        for blocks in partitions_of(list(range(len(groups)))):
            merged = []
            ok = True
            for block in blocks:
                g = groups[block[0]]
                for idx in block[1:]:
                    if not _mergeable(g, groups[idx]):
                        ok = False
                        break
                    g = cache.merge(g, groups[idx])
                if not ok:
                    break
                merged.append(g)
            if not ok:
                continue
            usage = [sum(g.footprint[i] for g in merged) for i in range(3)]
            if usage[0] > capacity.clb:
                continue
            cost = sum(
                g.frames * brute_pair_counts(cover_activity(g))[1]
                for g in merged
            )
            if best is None or cost < best:
                best = cost

        outcome = search_candidate_set(tiny_design, cps, capacity)
        assert outcome.found
        assert outcome.best_cost == best

    def test_max_initial_pairs_cap(self, paper_example):
        cps = first_cps(paper_example)
        capacity = ResourceVector(10_000, 100, 100)
        capped = search_candidate_set(
            paper_example,
            cps,
            capacity,
            AllocationOptions(max_initial_pairs=1),
        )
        full = search_candidate_set(paper_example, cps, capacity)
        assert capped.states_explored <= full.states_explored

    def test_policy_option_respected(self, tiny_design):
        cps = first_cps(tiny_design)
        capacity = ResourceVector(340, 0, 0)
        strict = search_candidate_set(
            tiny_design,
            cps,
            capacity,
            AllocationOptions(policy=TransitionPolicy.STRICT),
        )
        lenient = search_candidate_set(tiny_design, cps, capacity)
        assert strict.found and lenient.found
        assert lenient.best_cost <= strict.best_cost

    def test_options_validation(self):
        with pytest.raises(ValueError):
            AllocationOptions(max_initial_pairs=0)

    def test_engine_validation(self):
        with pytest.raises(ValueError):
            AllocationOptions(engine="quantum")
        # Both engines are accepted.
        AllocationOptions(engine="reference")
        AllocationOptions(engine="incremental")

    def test_search_counters_emitted(self, tiny_design):
        from repro.obs import RecordingTracer

        cps = first_cps(tiny_design)
        tracer = RecordingTracer()
        # A tight budget forces descent through merge candidates so the
        # heap counters actually accumulate.
        search_candidate_set(
            tiny_design,
            cps,
            ResourceVector(340, 0, 0),
            tracer=tracer,
        )
        assert tracer.counters["merge.heap_pushes"] > 0

    def test_heap_counters_emitted(self, paper_example):
        from repro.obs import RecordingTracer

        cps = first_cps(paper_example)
        capacity = ResourceVector(10_000, 100, 100)
        tracer = RecordingTracer()
        search_candidate_set(
            paper_example, cps, capacity, tracer=tracer
        )
        assert tracer.counters["merge.heap_pushes"] > 0
        assert tracer.counters["merge.heap_pops"] > 0
        assert "merge.heap_stale_drops" in tracer.counters
        assert "merge.heap_rebuilds" in tracer.counters

    def test_reference_engine_emits_no_heap_counters(self, paper_example):
        from repro.obs import RecordingTracer

        cps = first_cps(paper_example)
        tracer = RecordingTracer()
        search_candidate_set(
            paper_example,
            cps,
            ResourceVector(10_000, 100, 100),
            AllocationOptions(engine="reference"),
            tracer=tracer,
        )
        assert "merge.heap_pushes" not in tracer.counters


def seed_order(design, cps, policy=DEFAULT_POLICY):
    """Base groups and their compatible pairs in restart order."""
    cache = _MergeCache()
    base = _initial_groups(design, cps, cache)

    def delta(pair):
        a, b = base[pair[0]], base[pair[1]]
        return cache.merge(a, b).cost(policy) - a.cost(policy) - b.cost(policy)

    pairs = [
        (x, y)
        for x, y in itertools.combinations(range(len(base)), 2)
        if _mergeable(base[x], base[y])
    ]
    return base, sorted(pairs, key=delta)


def starts_fitting(base, pair, capacity):
    """Whether the restart merging ``pair`` first fits ``capacity``."""
    merged = _MergeCache().merge(base[pair[0]], base[pair[1]])
    rest = [g for k, g in enumerate(base) if k not in pair]
    return all(
        sum(g.footprint[r] for g in rest) + merged.footprint[r] <= cap
        for r, cap in enumerate(capacity.as_tuple())
    )


def cached_sets(cache):
    """The member label sets a merge cache holds groups for."""
    return {
        frozenset(p.label for p in g.members) for g in cache._cache.values()
    }


def both_engines(design, cps, capacity, **kwargs):
    """(outcome, cache, tracer) of the reference, then the incremental
    engine, each on a fresh merge cache."""
    from repro.obs import RecordingTracer

    runs = []
    for engine in ("reference", "incremental"):
        cache = _MergeCache()
        tracer = RecordingTracer()
        outcome = search_candidate_set(
            design, cps, capacity,
            AllocationOptions(engine=engine, **kwargs), cache, tracer,
        )
        runs.append((outcome, cache, tracer))
    return runs


def same_outcome(a, b):
    def labels(o):
        if o.best_groups is None:
            return None
        return [[p.label for p in g.members] for g in o.best_groups]

    return (labels(a), a.best_cost, a.states_explored, a.feasible_states) == (
        labels(b), b.best_cost, b.states_explored, b.feasible_states
    )


class TestBasePairSeeding:
    """Base pairs are keyed once per set but materialised only when the
    reference rescan would: a version that filled the merge cache with
    every base pair up front fails both tests."""

    def test_single_restart_materialises_only_rescanned_pairs(
        self, paper_example
    ):
        cps = first_cps(paper_example)
        base, pairs = seed_order(paper_example, cps)
        assert len(base) >= 4
        i, j = pairs[0]
        li, lj = base[i].members[0].label, base[j].members[0].label
        # Precondition: some other base pair touches the restart's pair.
        assert any(len({x, y} & {i, j}) == 1 for x, y in pairs)

        (ref, ref_cache, _), (inc, inc_cache, _) = both_engines(
            paper_example, cps, ResourceVector(10_000, 100, 100),
            max_initial_pairs=1,
        )
        assert same_outcome(ref, inc)
        assert cached_sets(inc_cache) == cached_sets(ref_cache)
        # Every group of the one descent holds both i and j or neither.
        assert all((li in k) == (lj in k) for k in cached_sets(inc_cache))

    def test_mode_flip_with_cost_first_start(self, receiver):
        cps = first_cps(receiver)
        base, pairs = seed_order(receiver, cps)
        # 100 CLBs below the all-separate footprint: one of the first two
        # restarts fits at once (cost-first base keys), the other has to
        # merge its way into the budget (one footprint-first -> cost-first
        # rebuild).
        c, b, d = (sum(g.footprint[r] for g in base) for r in range(3))
        capacity = ResourceVector(c - 100, b, d)
        assert [starts_fitting(base, p, capacity) for p in pairs[:2]].count(
            True
        ) == 1

        (ref, ref_cache, _), (inc, inc_cache, tracer) = both_engines(
            receiver, cps, capacity, max_initial_pairs=2
        )
        assert tracer.counters["merge.heap_rebuilds"] > 0
        assert same_outcome(ref, inc)
        assert cached_sets(inc_cache) == cached_sets(ref_cache)
        # Precondition: the rescans leave some base pair unmaterialised.
        assert any(
            {base[x].members[0].label, base[y].members[0].label}
            not in cached_sets(ref_cache)
            for x, y in pairs
        )

class TestGroupsToScheme:
    def test_materialised_scheme_valid_and_deterministic(self, paper_example):
        cps = first_cps(paper_example)
        capacity = ResourceVector(10_000, 100, 100)
        outcome = search_candidate_set(paper_example, cps, capacity)
        s1 = groups_to_scheme(paper_example, cps, outcome.best_groups)
        s2 = groups_to_scheme(paper_example, cps, outcome.best_groups)
        assert isinstance(s1, PartitioningScheme)
        assert [r.labels for r in s1.regions] == [r.labels for r in s2.regions]

    def test_strategy_tag(self, paper_example):
        cps = first_cps(paper_example)
        outcome = search_candidate_set(
            paper_example, cps, ResourceVector(10_000, 100, 100)
        )
        scheme = groups_to_scheme(
            paper_example, cps, outcome.best_groups, strategy="custom"
        )
        assert scheme.strategy == "custom"
