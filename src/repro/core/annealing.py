"""Simulated-annealing region allocation (a ref. [7]-style comparator).

The paper's closest related work (Montone et al., TRETS 2010) drives PR
partitioning with simulated annealing.  Their objective (area-variance
over a scheduled task graph) does not transfer to adaptive systems, but
the *search strategy* does -- so this module provides an SA backend over
exactly the same state space and objective as the paper's greedy merge
search, for head-to-head comparison:

* a state is a partition of the candidate base partitions into pairwise
  compatible groups;
* moves: move one partition to another (compatible) group, move it to a
  new singleton group, or swap two partitions between groups;
* energy: total reconfiguration frames (Eq. 10) plus a linear penalty
  for exceeding the area budget (so the walk can traverse infeasible
  states but converges into the feasible region as temperature drops).

`benchmarks/test_bench_search_strategies.py` races it against the
restarted greedy search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..arch.resources import ResourceVector
from ..obs import NULL_TRACER, Tracer
from .allocation import _Group, _initial_groups, _MergeCache
from .baselines import single_region_scheme
from .clustering import enumerate_base_partitions
from .cost import DEFAULT_POLICY, TransitionPolicy, total_reconfiguration_frames
from .covering import candidate_partition_sets
from .matrix import ConnectivityMatrix
from .model import PRDesign
from .partitioner import InfeasibleError
from .result import PartitioningScheme


@dataclass
class AnnealingOptions:
    """SA schedule parameters (geometric cooling)."""

    initial_temperature: float = 2.0
    cooling: float = 0.995
    steps: int = 4000
    seed: int = 0
    area_penalty: float = 50.0  # energy per CLB-equivalent of overflow

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0:
            raise ValueError("initial temperature must be positive")
        if not (0 < self.cooling < 1):
            raise ValueError("cooling must lie in (0, 1)")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.area_penalty <= 0:
            raise ValueError("area penalty must be positive")


class _State:
    """Mutable grouping with incremental rebuild of touched groups."""

    def __init__(self, base: list[_Group], cache: _MergeCache):
        self.base = base  # singleton groups, index == partition id
        self.cache = cache
        # assignment[i] = group id of partition i; groups maintained lazily
        self.assignment = list(range(len(base)))

    def groups(self) -> list[_Group]:
        by_gid: dict[int, list[int]] = {}
        for pid, gid in enumerate(self.assignment):
            by_gid.setdefault(gid, []).append(pid)
        out = []
        for members in by_gid.values():
            g = self.base[members[0]]
            for pid in members[1:]:
                g = self.cache.merge(g, self.base[pid])
            out.append(g)
        return out

    def can_join(self, pid: int, gid: int) -> bool:
        usage = self.base[pid].usage
        for other, g in enumerate(self.assignment):
            if g == gid and other != pid and (self.base[other].usage & usage):
                return False
        return True


def _energy(
    groups: list[_Group],
    capacity: tuple[int, int, int],
    policy: TransitionPolicy,
    penalty: float,
) -> float:
    cost = sum(g.cost(policy) for g in groups)
    over = [0, 0, 0]
    totals = [0, 0, 0]
    for g in groups:
        for k in range(3):
            totals[k] += g.footprint[k]
    for k in range(3):
        over[k] = max(0, totals[k] - capacity[k])
    # Scale BRAM/DSP overflow to CLB-equivalents via tile frame weight.
    overflow = over[0] + 5 * over[1] + 3 * over[2]
    return cost + penalty * overflow


def _feasible(groups: list[_Group], capacity: tuple[int, int, int]) -> bool:
    totals = [0, 0, 0]
    for g in groups:
        for k in range(3):
            totals[k] += g.footprint[k]
    return all(totals[k] <= capacity[k] for k in range(3))


def anneal_candidate_set(
    design: PRDesign,
    cps,
    capacity: ResourceVector,
    policy: TransitionPolicy = DEFAULT_POLICY,
    options: AnnealingOptions | None = None,
    tracer: Tracer | None = None,
) -> tuple[list[_Group] | None, float | None]:
    """SA over one candidate partition set; returns (groups, cost)."""
    options = options or AnnealingOptions()
    tracer = tracer or NULL_TRACER
    rng = np.random.default_rng(options.seed)
    cache = _MergeCache()
    base = _initial_groups(design, cps, cache)
    if len(base) < 2:
        g = base
        return (g, sum(x.cost(policy) for x in g)) if _feasible(
            g, capacity.as_tuple()
        ) else (None, None)
    state = _State(base, cache)
    cap = capacity.as_tuple()

    current_groups = state.groups()
    current_e = _energy(current_groups, cap, policy, options.area_penalty)
    best: tuple[list[_Group], float] | None = None
    if _feasible(current_groups, cap):
        best = (current_groups, sum(g.cost(policy) for g in current_groups))

    temperature = options.initial_temperature * max(
        1.0, current_e / max(1, len(base))
    )
    n = len(base)
    accepted = rejected = blocked = 0
    for step in range(options.steps):
        pid = int(rng.integers(n))
        old_gid = state.assignment[pid]
        # Candidate destination: an existing group id or a fresh one.
        gids = sorted(set(state.assignment))
        target = int(rng.integers(len(gids) + 1))
        new_gid = gids[target] if target < len(gids) else max(gids) + 1
        if new_gid == old_gid or not state.can_join(pid, new_gid):
            blocked += 1
            temperature *= options.cooling
            continue
        state.assignment[pid] = new_gid
        new_groups = state.groups()
        new_e = _energy(new_groups, cap, policy, options.area_penalty)
        accept = new_e <= current_e or rng.random() < math.exp(
            (current_e - new_e) / max(temperature, 1e-9)
        )
        if accept:
            accepted += 1
            current_e = new_e
            if _feasible(new_groups, cap):
                cost = sum(g.cost(policy) for g in new_groups)
                if best is None or cost < best[1]:
                    best = (new_groups, cost)
        else:
            rejected += 1
            state.assignment[pid] = old_gid
        temperature *= options.cooling
        if tracer.enabled and (step + 1) % 1000 == 0:
            tracer.progress(
                "anneal.progress",
                step=step + 1,
                steps=options.steps,
                temperature=temperature,
                energy=current_e,
                best_cost=None if best is None else best[1],
            )

    tracer.count("anneal.steps", options.steps)
    tracer.count("anneal.moves_accepted", accepted)
    tracer.count("anneal.moves_rejected", rejected)
    tracer.count("anneal.moves_blocked", blocked)
    if best is None:
        return None, None
    return best[0], best[1]


def partition_annealing(
    design: PRDesign,
    capacity: ResourceVector,
    policy: TransitionPolicy = DEFAULT_POLICY,
    options: AnnealingOptions | None = None,
    max_candidate_sets: int | None = 4,
    tracer: Tracer | None = None,
) -> PartitioningScheme:
    """Full SA partitioner (same outer loop and fallback as the paper's).

    Provided as a search-strategy comparator; the default partitioner
    remains the paper-faithful restarted greedy search.
    """
    from .allocation import groups_to_scheme

    tracer = tracer or NULL_TRACER
    single = single_region_scheme(design)
    if not single.fits(capacity):
        raise InfeasibleError(
            f"design {design.name!r} does not fit {capacity} even as a "
            "single region"
        )
    with tracer.span("partition_annealing", design=design.name):
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
            sets_explored += 1
            with tracer.span(
                "anneal",
                candidate_set=sets_explored,
                partitions=len(cps.partitions),
            ):
                groups, cost = anneal_candidate_set(
                    design, cps, capacity, policy, options, tracer=tracer
                )
            if groups is not None and cost is not None and cost < best_cost:
                best_cost = cost
                best_scheme = groups_to_scheme(
                    design, cps, groups, strategy="annealing"
                )
        tracer.count("anneal.candidate_sets", sets_explored)
    return best_scheme
