"""Exact (exhaustive) region allocation — a reference oracle.

The paper's search is a restarted greedy heuristic; this module computes
the *provably optimal* allocation for a candidate partition set by
enumerating every partition of the base partitions into pairwise
compatible groups (restricted growth, with compatibility pruning and a
running lower bound).  Exponential in the partition count -- practical
up to roughly a dozen base partitions -- so it is used for:

* tests that certify the heuristic finds the optimum on small designs;
* the search-quality ablation bench (heuristic-vs-optimal gap);
* one-off optimal runs on small real designs.

The enumeration walks items in order, assigning each to an existing
compatible block or a new block; states whose cost already exceeds the
incumbent are cut (group costs only grow under merging *of a fixed
candidate set's activity*, which does not hold in general for the
footprint -- so only the cost bound prunes, feasibility is checked at
the leaves).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.resources import ResourceVector
from ..obs import NULL_TRACER, Tracer
from .allocation import _Group, _initial_groups, _MergeCache, groups_to_scheme
from .cost import DEFAULT_POLICY, TransitionPolicy
from .covering import CandidatePartitionSet
from .matrix import ConnectivityMatrix
from .model import PRDesign
from .partitioner import InfeasibleError
from .result import PartitioningScheme

#: Enumeration guard: Bell(13) is ~27.6e6 -- above this, refuse.
MAX_EXACT_PARTITIONS = 13


@dataclass
class ExactOutcome:
    """Provably optimal allocation for one candidate partition set."""

    best_groups: list[_Group] | None
    best_cost: float | None
    states_enumerated: int

    @property
    def found(self) -> bool:
        return self.best_groups is not None


def exact_candidate_set(
    design: PRDesign,
    cps: CandidatePartitionSet,
    capacity: ResourceVector,
    policy: TransitionPolicy = DEFAULT_POLICY,
    max_partitions: int = MAX_EXACT_PARTITIONS,
    tracer: Tracer | None = None,
) -> ExactOutcome:
    """Exhaustively find the optimal grouping of one CPS."""
    tracer = tracer or NULL_TRACER
    if len(cps.partitions) > max_partitions:
        raise ValueError(
            f"candidate set has {len(cps.partitions)} partitions; exact "
            f"enumeration is limited to {max_partitions}"
        )
    cache = _MergeCache()
    base = _initial_groups(design, cps, cache)
    cap = capacity.as_tuple()

    best_cost: float | None = None
    best_groups: list[_Group] | None = None
    states = 0

    def feasible(groups: list[_Group]) -> bool:
        c = b = d = 0
        for g in groups:
            fc, fb, fd = g.footprint
            c += fc
            b += fb
            d += fd
        return c <= cap[0] and b <= cap[1] and d <= cap[2]

    def recurse(index: int, blocks: list[_Group], cost_so_far: float) -> None:
        nonlocal best_cost, best_groups, states
        if best_cost is not None and cost_so_far > best_cost:
            return  # block costs only grow as members join
        if index == len(base):
            states += 1
            if feasible(blocks) and (best_cost is None or cost_so_far < best_cost):
                best_cost = cost_so_far
                best_groups = list(blocks)
            return
        item = base[index]
        # join an existing block
        for i, block in enumerate(blocks):
            if block.usage & item.usage:
                continue
            merged = cache.merge(block, item)
            delta = merged.cost(policy) - block.cost(policy)
            old = blocks[i]
            blocks[i] = merged
            recurse(index + 1, blocks, cost_so_far + delta)
            blocks[i] = old
        # open a new block
        blocks.append(item)
        recurse(index + 1, blocks, cost_so_far + item.cost(policy))
        blocks.pop()

    recurse(0, [], 0.0)
    tracer.count("exact.states_enumerated", states)
    tracer.count("exact.cache_hits", cache.hits)
    tracer.count("exact.cache_misses", cache.misses)
    return ExactOutcome(
        best_groups=best_groups, best_cost=best_cost, states_enumerated=states
    )


def partition_exact(
    design: PRDesign,
    capacity: ResourceVector,
    policy: TransitionPolicy = DEFAULT_POLICY,
    max_candidate_sets: int | None = None,
    max_partitions: int = MAX_EXACT_PARTITIONS,
    tracer: Tracer | None = None,
) -> PartitioningScheme:
    """Optimal scheme over all candidate partition sets (small designs).

    Candidate sets larger than ``max_partitions`` are skipped (with the
    all-singleton first set within limits this still covers the space
    the heuristic searches on small designs).  The single-region
    arrangement competes as usual.  Raises :class:`InfeasibleError` when
    nothing fits.
    """
    from .baselines import single_region_scheme
    from .clustering import enumerate_base_partitions
    from .cost import total_reconfiguration_frames
    from .covering import candidate_partition_sets

    tracer = tracer or NULL_TRACER
    single = single_region_scheme(design)
    if not single.fits(capacity):
        raise InfeasibleError(
            f"design {design.name!r} does not fit {capacity} even as a "
            "single region"
        )

    with tracer.span("partition_exact", design=design.name):
        with tracer.span("connectivity_matrix"):
            cmatrix = ConnectivityMatrix.from_design(design)
        with tracer.span("clustering"):
            bps = enumerate_base_partitions(design, cmatrix, tracer=tracer)

        best_scheme = single
        best_cost = float(total_reconfiguration_frames(single, policy))
        sets_explored = 0
        for cps in candidate_partition_sets(
            bps, cmatrix, max_sets=max_candidate_sets, tracer=tracer
        ):
            if len(cps.partitions) > max_partitions:
                tracer.count("exact.sets_skipped", 1)
                continue
            sets_explored += 1
            with tracer.span(
                "exact_search",
                candidate_set=sets_explored,
                partitions=len(cps.partitions),
            ):
                outcome = exact_candidate_set(
                    design, cps, capacity, policy, max_partitions, tracer=tracer
                )
            if outcome.found and outcome.best_cost < best_cost:
                best_cost = outcome.best_cost
                best_scheme = groups_to_scheme(
                    design, cps, outcome.best_groups, strategy="exact"
                )
        tracer.count("exact.candidate_sets", sets_explored)
    return best_scheme
