"""Top-level partitioning algorithm (paper Fig. 6) and device selection.

``partition`` runs the full pipeline for a fixed PR budget:

1. feasibility -- the largest configuration (single-region footprint)
   must fit, otherwise the device is rejected (``InfeasibleError``);
2. connectivity matrix, weights, base-partition clustering;
3. the outer loop over candidate partition sets (covering with head
   removal) with the restarted merge search per set;
4. the single-region arrangement competes as the minimum-area fallback;
5. the feasible scheme with minimum total reconfiguration frames wins.

``partition_with_device_selection`` wraps this in the synthetic-benchmark
protocol of Sec. V: pick the smallest device whose capacity (minus the
static reservation) fits the single-region footprint; if the search finds
nothing better than the single-region arrangement, escalate to the next
larger device and re-partition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from ..arch.device import Device
from ..arch.library import DeviceLibrary
from ..arch.resources import ResourceVector
from ..obs import NULL_TRACER, Tracer
from .allocation import (
    AllocationOptions,
    _MergeCache,
    groups_to_scheme,
    search_candidate_set,
)
from .baselines import single_region_scheme
from .clustering import enumerate_base_partitions
from .cost import (
    DEFAULT_POLICY,
    TransitionPolicy,
    total_reconfiguration_frames,
    worst_case_frames,
)
from .covering import candidate_partition_sets
from .matrix import ConnectivityMatrix
from .model import PRDesign
from .result import PartitioningScheme


class InfeasibleError(RuntimeError):
    """The design cannot fit the given budget even as a single region."""


@dataclass
class PartitionerOptions:
    """Configuration of the full algorithm.

    ``max_candidate_sets`` bounds the outer covering loop (None follows
    the paper: iterate until covering fails).  ``allocation`` tunes the
    inner merge search.  The minimum-area single-region arrangement is
    always in the candidate pool (the paper's fallback).
    """

    policy: TransitionPolicy = DEFAULT_POLICY
    max_candidate_sets: int | None = None
    allocation: AllocationOptions = field(default_factory=AllocationOptions)
    #: Optional transition probabilities keyed by (config_a, config_b)
    #: pairs (either order).  When given, the search minimises the
    #: probability-weighted total (the paper's Sec. V "if some
    #: statistical information ... is known" extension) instead of the
    #: unweighted all-pairs sum.  Missing pairs weigh 0.
    pair_probabilities: Mapping[tuple[str, str], float] | None = None

    def __post_init__(self) -> None:
        # The inner search must score with the same policy as the outer
        # selection, otherwise the reported optimum is not the search's.
        # A copy, so options sharing one AllocationOptions stay independent.
        self.allocation = replace(self.allocation, policy=self.policy)

    def weight_matrix(self, design: PRDesign) -> "np.ndarray | None":
        """Pair probabilities as a symmetric matrix in config order."""
        if self.pair_probabilities is None:
            return None
        names = [c.name for c in design.configurations]
        index = {n: i for i, n in enumerate(names)}
        W = np.zeros((len(names), len(names)))
        for (a, b), w in self.pair_probabilities.items():
            if a not in index or b not in index:
                raise KeyError(f"unknown configuration in pair {(a, b)}")
            if w < 0:
                raise ValueError(f"negative weight for pair {(a, b)}")
            i, j = index[a], index[b]
            W[i, j] += w
            W[j, i] += w
        return W


@dataclass
class PartitionResult:
    """Outcome of one fixed-budget partitioning run.

    ``total_frames``/``worst_frames`` are always the unweighted Eq. 7/11
    values of the selected scheme; ``objective`` is the value the search
    minimised -- identical to ``total_frames`` unless
    :attr:`PartitionerOptions.pair_probabilities` switched the objective
    to the probability-weighted variant.
    """

    scheme: PartitioningScheme
    total_frames: int
    worst_frames: int
    capacity: ResourceVector
    candidate_sets_explored: int
    states_explored: int
    feasible_states: int
    only_single_region_feasible: bool
    objective: float = 0.0

    @property
    def usage(self) -> ResourceVector:
        return self.scheme.resource_usage()


def partition(
    design: PRDesign,
    capacity: ResourceVector,
    options: PartitionerOptions | None = None,
    tracer: Tracer | None = None,
) -> PartitionResult:
    """Find the minimum-total-reconfiguration-time scheme for a PR budget.

    ``capacity`` is the budget available to reconfigurable logic *and*
    modes the scheme keeps permanently loaded -- i.e. the device capacity
    net of the design's fixed static region (processor, ICAP, ...).
    Raises :class:`InfeasibleError` when even the single-region
    arrangement cannot fit.  Pass a :class:`repro.obs.RecordingTracer` as
    ``tracer`` to record per-stage spans, counters and progress events
    (docs/OBSERVABILITY.md); the default no-op tracer costs nothing.
    """
    options = options or PartitionerOptions()
    tracer = tracer or NULL_TRACER
    policy = options.policy
    weights = options.weight_matrix(design)
    allocation = replace(options.allocation, pair_weights=weights)

    with tracer.span(
        "partition",
        design=design.name,
        modes=design.mode_count,
        configurations=design.configuration_count,
    ) as root:
        single = single_region_scheme(design)
        if not single.fits(capacity):
            raise InfeasibleError(
                f"design {design.name!r} needs at least "
                f"{single.resource_usage()} but the budget is {capacity}"
            )

        with tracer.span("connectivity_matrix"):
            cmatrix = ConnectivityMatrix.from_design(design)
        with tracer.span("clustering"):
            base_partitions = enumerate_base_partitions(
                design, cmatrix, tracer=tracer
            )

        best_scheme: PartitioningScheme | None = None
        best_cost: float | None = None
        multi_region_feasible = False
        sets_explored = 0
        states = 0
        feasible = 0

        merge_cache = _MergeCache(weights)
        for cps in candidate_partition_sets(
            base_partitions,
            cmatrix,
            max_sets=options.max_candidate_sets,
            tracer=tracer,
        ):
            sets_explored += 1
            step_started = time.perf_counter()
            with tracer.span(
                "merge_search",
                candidate_set=sets_explored,
                partitions=len(cps.partitions),
            ):
                outcome = search_candidate_set(
                    design,
                    cps,
                    capacity,
                    allocation,
                    merge_cache=merge_cache,
                    tracer=tracer,
                )
            tracer.observe("merge.search_s", time.perf_counter() - step_started)
            states += outcome.states_explored
            feasible += outcome.feasible_states
            if tracer.enabled:
                tracer.progress(
                    "partition.candidate_set_searched",
                    index=sets_explored,
                    found=outcome.found,
                    states=outcome.states_explored,
                    best_cost=outcome.best_cost,
                )
            if not outcome.found:
                continue
            assert outcome.best_groups is not None and outcome.best_cost is not None
            if len(outcome.best_groups) > 1:
                multi_region_feasible = True
            if best_cost is None or outcome.best_cost < best_cost:
                best_cost = outcome.best_cost
                best_scheme = groups_to_scheme(design, cps, outcome.best_groups)

        def scheme_objective(scheme: PartitioningScheme) -> float:
            if options.pair_probabilities is None:
                return float(total_reconfiguration_frames(scheme, policy))
            from .cost import weighted_total_frames

            return weighted_total_frames(scheme, options.pair_probabilities, policy)

        single_cost = scheme_objective(single)
        states += 1
        feasible += 1
        if best_cost is None or single_cost < best_cost:
            best_cost = single_cost
            best_scheme = single

        total = total_reconfiguration_frames(best_scheme, policy)
        tracer.count("partition.candidate_sets", sets_explored)
        tracer.gauge("partition.total_frames", total)
        tracer.gauge("partition.regions", len(best_scheme.regions))
        root.annotate(strategy=best_scheme.strategy)

        return PartitionResult(
            scheme=best_scheme,
            total_frames=total,
            worst_frames=worst_case_frames(best_scheme, policy),
            capacity=capacity,
            candidate_sets_explored=sets_explored,
            states_explored=states,
            feasible_states=feasible,
            only_single_region_feasible=not multi_region_feasible,
            objective=float(best_cost),
        )


# ----------------------------------------------------------------------
# device selection (Sec. V synthetic-benchmark protocol)
# ----------------------------------------------------------------------


@dataclass
class DevicePartitionResult:
    """Partitioning outcome together with the device it landed on."""

    result: PartitionResult
    device: Device
    initial_device: Device
    escalations: int

    @property
    def scheme(self) -> PartitioningScheme:
        return self.result.scheme

    @property
    def escalated(self) -> bool:
        return self.escalations > 0


def minimum_footprint(design: PRDesign) -> ResourceVector:
    """Smallest capacity any implementation needs: single-region footprint
    plus the design's static reservation."""
    return single_region_scheme(design).resource_usage() + design.static_resources


def select_device(design: PRDesign, library: DeviceLibrary) -> Device:
    """Smallest library device that can hold the design at all."""
    need = minimum_footprint(design)
    device = library.smallest_fitting(need)
    if device is None:
        raise InfeasibleError(
            f"no device in the library can hold design {design.name!r} "
            f"(needs {need})"
        )
    return device


def partition_with_device_selection(
    design: PRDesign,
    library: DeviceLibrary,
    options: PartitionerOptions | None = None,
    tracer: Tracer | None = None,
) -> DevicePartitionResult:
    """The Sec. V protocol: smallest-fit device, escalate while stuck.

    A device is "stuck" when no arrangement other than the single-region
    one is feasible on it; the paper then retries on the next larger
    device.  Escalation stops at the top of the library (the last result
    is returned).  Each attempt shows up in the ``tracer`` as one
    ``partition`` span under a shared ``device_selection`` root.
    """
    options = options or PartitionerOptions()
    tracer = tracer or NULL_TRACER
    device = select_device(design, library)
    initial = device
    escalations = 0
    with tracer.span(
        "device_selection", design=design.name, initial_device=device.name
    ) as root:
        while True:
            capacity = device.usable_capacity(design.static_resources)
            result = partition(design, capacity, options, tracer=tracer)
            if not result.only_single_region_feasible:
                break
            bigger = library.next_larger(device)
            if bigger is None:
                break
            if tracer.enabled:
                tracer.progress(
                    "partition.device_escalated",
                    from_device=device.name,
                    to_device=bigger.name,
                    escalations=escalations + 1,
                )
            device = bigger
            escalations += 1
        tracer.count("partition.device_escalations", escalations)
        root.annotate(device=device.name, escalations=escalations)
        return DevicePartitionResult(
            result=result,
            device=device,
            initial_device=initial,
            escalations=escalations,
        )


def smallest_device_for_scheme(
    scheme: PartitioningScheme, library: DeviceLibrary
) -> Device | None:
    """Smallest device holding a given scheme (plus the static reservation).

    Used for the paper's "in 13 cases the proposed algorithm was able to
    fit the design in a smaller FPGA than ... one module per region".
    """
    need = scheme.resource_usage() + scheme.design.static_resources
    return library.smallest_fitting(need)
