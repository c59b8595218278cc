"""Top-level partitioner tests: Fig. 6 loop and device selection."""

from __future__ import annotations

import pytest

from repro.arch.library import virtex5_ladder
from repro.arch.resources import ResourceVector
from repro.core.allocation import AllocationOptions
from repro.core.baselines import (
    one_module_per_region_scheme,
    single_region_scheme,
)
from repro.core.cost import (
    TransitionPolicy,
    total_reconfiguration_frames,
    worst_case_frames,
)
from repro.core.partitioner import (
    InfeasibleError,
    PartitionerOptions,
    minimum_footprint,
    partition,
    partition_with_device_selection,
    select_device,
    smallest_device_for_scheme,
)

from ..conftest import make_design


class TestPartition:
    def test_infeasible_budget_raises(self, paper_example):
        with pytest.raises(InfeasibleError):
            partition(paper_example, ResourceVector(10, 0, 0))

    def test_result_scheme_is_valid_and_fits(self, paper_example):
        budget = ResourceVector(2000, 50, 50)
        result = partition(paper_example, budget)
        assert result.scheme.fits(budget)
        assert result.total_frames == total_reconfiguration_frames(result.scheme)
        assert result.worst_frames == worst_case_frames(result.scheme)

    def test_never_worse_than_single_region(self, paper_example):
        budget = ResourceVector(2000, 50, 50)
        result = partition(paper_example, budget)
        single = single_region_scheme(paper_example)
        assert result.total_frames <= total_reconfiguration_frames(single)

    def test_single_region_fallback_when_budget_is_minimum(self, tiny_design):
        # Budget exactly the largest configuration: only the single
        # region arrangement fits.
        budget = ResourceVector(260, 0, 0)
        result = partition(tiny_design, budget)
        assert result.scheme.strategy == "single-region"
        assert result.only_single_region_feasible

    def test_generous_budget_zero_cost(self, paper_example):
        budget = ResourceVector(10**6, 10**4, 10**4)
        result = partition(paper_example, budget)
        assert result.total_frames == 0
        assert not result.only_single_region_feasible

    def test_exploration_counters(self, paper_example):
        result = partition(paper_example, ResourceVector(2000, 50, 50))
        assert result.candidate_sets_explored >= 1
        assert result.states_explored >= result.feasible_states >= 1

    def test_max_candidate_sets(self, paper_example):
        budget = ResourceVector(2000, 50, 50)
        opts = PartitionerOptions(max_candidate_sets=1)
        capped = partition(paper_example, budget, opts)
        full = partition(paper_example, budget)
        assert capped.candidate_sets_explored == 1
        assert full.total_frames <= capped.total_frames

    def test_policy_propagates_to_allocation(self, paper_example):
        budget = ResourceVector(2000, 50, 50)
        opts = PartitionerOptions(policy=TransitionPolicy.STRICT)
        result = partition(paper_example, budget, opts)
        assert result.total_frames == total_reconfiguration_frames(
            result.scheme, TransitionPolicy.STRICT
        )

    def test_shared_allocation_options_not_aliased(self):
        shared = AllocationOptions()
        strict = PartitionerOptions(
            policy=TransitionPolicy.STRICT, allocation=shared
        )
        PartitionerOptions(policy=TransitionPolicy.LENIENT, allocation=shared)
        assert strict.allocation.policy is TransitionPolicy.STRICT

    def test_partition_leaves_caller_options_unchanged(self, paper_example):
        weights = object()
        allocation = AllocationOptions(pair_weights=weights)
        opts = PartitionerOptions(allocation=allocation)
        partition(paper_example, ResourceVector(2000, 50, 50), opts)
        assert opts.allocation.pair_weights is weights
        assert allocation.pair_weights is weights

    def test_usage_property(self, paper_example):
        result = partition(paper_example, ResourceVector(2000, 50, 50))
        assert result.usage == result.scheme.resource_usage()


class TestCaseStudyShape:
    """The Sec. V narrative, as structural assertions."""

    def test_proposed_beats_modular_original(self, receiver, budget):
        result = partition(receiver, budget)
        modular = one_module_per_region_scheme(receiver)
        assert result.total_frames < total_reconfiguration_frames(modular)

    def test_proposed_beats_modular_modified(self, receiver_modified, budget):
        result = partition(receiver_modified, budget)
        modular = one_module_per_region_scheme(receiver_modified)
        assert result.total_frames < total_reconfiguration_frames(modular)

    def test_modified_configs_have_effectively_static_region(
        self, receiver_modified, budget
    ):
        # Table V: M1 moves to static (its region never reconfigures).
        result = partition(receiver_modified, budget)
        static_modes = set()
        for region in result.scheme.effectively_static_regions():
            static_modes |= set(region.mode_names)
        assert "M1" in static_modes

    def test_video_modes_share_a_region(self, receiver, budget):
        # Table III PRR5: V1, V2, V3 always end up together (they are the
        # dominant area and mutually exclusive).
        result = partition(receiver, budget)
        v_regions = {
            region.name
            for region in result.scheme.regions
            for label in region.labels
            if "V" in label
        }
        assert len(v_regions) == 1


class TestDeviceSelection:
    def test_minimum_footprint_includes_static(self):
        d = make_design(
            {"A": {"a": (100, 0, 0)}}, [("a",)], static=(90, 8, 0)
        )
        assert minimum_footprint(d) == single_region_scheme(d).resource_usage() + ResourceVector(90, 8, 0)

    def test_select_device_smallest_fit(self, ladder):
        d = make_design({"A": {"a": (100, 0, 0)}}, [("a",)])
        assert select_device(d, ladder).name == "LX20T"

    def test_select_device_raises_when_too_big(self, ladder):
        d = make_design({"A": {"a": (100_000, 0, 0)}}, [("a",)])
        with pytest.raises(InfeasibleError):
            select_device(d, ladder)

    def test_partition_with_device_selection(self, ladder, paper_example):
        dres = partition_with_device_selection(paper_example, ladder)
        assert dres.device.name == dres.initial_device.name or dres.escalated
        assert dres.scheme.fits(
            dres.device.usable_capacity(paper_example.static_resources)
        )

    def test_escalation_when_smallest_device_is_tight(self, ladder):
        # A design whose single-region footprint just fits LX20T (3120
        # CLBs) but where every multi-region arrangement exceeds it:
        # {a1,a2}+{b1,b2} needs 2900+300 = 3200 CLBs.
        d = make_design(
            {
                "A": {"a1": (2900, 0, 0), "a2": (2800, 0, 0)},
                "B": {"b1": (100, 0, 0), "b2": (300, 0, 0)},
            },
            [("a1", "b1"), ("a2", "b2")],
        )
        dres = partition_with_device_selection(d, ladder)
        assert dres.initial_device.name == "LX20T"
        assert dres.escalated
        assert not dres.result.only_single_region_feasible

    def test_top_of_ladder_stops(self, ladder):
        # Single-region fits only the largest device; nothing else does.
        d = make_design(
            {
                "A": {"a1": (15000, 0, 0), "a2": (14000, 0, 0)},
                "B": {"b1": (8000, 0, 0), "b2": (9000, 0, 0)},
            },
            [("a1", "b1"), ("a2", "b2")],
        )
        dres = partition_with_device_selection(d, ladder)
        assert dres.device.name == "FX200T"

    def test_smallest_device_for_scheme(self, ladder, paper_example):
        single = single_region_scheme(paper_example)
        device = smallest_device_for_scheme(single, ladder)
        assert device is not None
        assert single.resource_usage().fits_in(device.capacity)
