"""Area / reconfiguration-time Pareto exploration.

The paper optimises total reconfiguration time at a fixed budget; a
designer choosing between devices wants the whole trade-off curve.  This
module re-runs the merge search while *collecting* every feasible
arrangement it visits and keeps the Pareto-optimal set over

    (quantised CLB+BRAM+DSP usage, total reconfiguration frames).

Because the search already visits the interesting states (every restart
and every descent step), collection is a byproduct -- no extra search.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.resources import ResourceVector
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


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated design point."""

    scheme: PartitioningScheme
    usage: ResourceVector
    total_frames: int
    worst_frames: int

    @property
    def usage_key(self) -> tuple[int, int, int]:
        return self.usage.as_tuple()


def _dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    """a dominates b: no worse on usage (component-wise), total time AND
    worst-case time, strictly better somewhere.  Keeping worst-case as a
    third objective lets :func:`best_by_worst_case` find its optimum on
    the same frontier."""
    if not a.usage.fits_in(b.usage):
        return False
    if a.total_frames > b.total_frames or a.worst_frames > b.worst_frames:
        return False
    return (
        a.usage != b.usage
        or a.total_frames < b.total_frames
        or a.worst_frames < b.worst_frames
    )


def pareto_front(
    design: PRDesign,
    capacity: ResourceVector,
    policy: TransitionPolicy = DEFAULT_POLICY,
    max_candidate_sets: int | None = 8,
    max_points: int = 64,
) -> list[ParetoPoint]:
    """Non-dominated (usage, total frames) schemes within a budget.

    Runs the standard search over the first ``max_candidate_sets``
    candidate sets, materialising each feasible arrangement the search
    visits, plus the single-region fallback.  Points are returned sorted
    by ascending CLB usage.  ``max_points`` caps memory on large designs
    (the frontier is pruned incrementally).
    """
    cmatrix = ConnectivityMatrix.from_design(design)
    bps = enumerate_base_partitions(design, cmatrix)
    options = AllocationOptions(policy=policy)

    front: list[ParetoPoint] = []

    def offer(point: ParetoPoint) -> None:
        nonlocal front
        if any(
            p.usage_key == point.usage_key
            and p.total_frames == point.total_frames
            and p.worst_frames == point.worst_frames
            for p in front
        ):
            return  # an equivalent point is already on the front
        if any(_dominates(p, point) for p in front):
            return
        front = [p for p in front if not _dominates(point, p)]
        front.append(point)
        if len(front) > max_points:
            # Keep the best-by-time half plus extremes; deterministic.
            front.sort(key=lambda p: (p.total_frames, p.usage_key))
            front = front[:max_points]

    for cps in candidate_partition_sets(bps, cmatrix, max_sets=max_candidate_sets):
        cache = _MergeCache()
        seen: set[frozenset[int]] = set()

        # The search API reports only its best state, so drive the same
        # restart + descent machinery directly with a collecting callback.
        from .allocation import _greedy_descent, _initial_groups, _mergeable
        import itertools

        base = _initial_groups(design, cps, cache)

        def collect(groups) -> None:
            usage = ResourceVector.zero()
            ok = True
            for g in groups:
                usage = usage + ResourceVector(*g.footprint)
            if not usage.fits_in(capacity):
                return
            scheme = groups_to_scheme(design, cps, groups, strategy="pareto")
            offer(
                ParetoPoint(
                    scheme=scheme,
                    usage=usage,
                    total_frames=total_reconfiguration_frames(scheme, policy),
                    worst_frames=worst_case_frames(scheme, policy),
                )
            )

        collect(base)
        pairs = [
            (i, j)
            for i, j in itertools.combinations(range(len(base)), 2)
            if _mergeable(base[i], base[j])
        ]
        for i, j in pairs:
            groups = [g for k, g in enumerate(base) if k not in (i, j)]
            groups.append(cache.merge(base[i], base[j]))
            collect(groups)
            _greedy_descent(
                groups, capacity.as_tuple(), options, collect, seen, cache
            )

    single = single_region_scheme(design)
    if single.fits(capacity):
        offer(
            ParetoPoint(
                scheme=single,
                usage=single.resource_usage(),
                total_frames=total_reconfiguration_frames(single, policy),
                worst_frames=worst_case_frames(single, policy),
            )
        )

    front.sort(key=lambda p: (p.usage.clb, p.usage.bram, p.usage.dsp))
    return front


def best_by_worst_case(
    design: PRDesign,
    capacity: ResourceVector,
    policy: TransitionPolicy = DEFAULT_POLICY,
    max_candidate_sets: int | None = 8,
) -> ParetoPoint:
    """The feasible arrangement minimising *worst-case* reconfiguration.

    The paper motivates the worst-case metric for real-time and
    safety-critical systems (Sec. IV-C) but optimises total time; this
    selector re-scores the states the search machinery visits by Eq. 11
    instead (ties broken by total frames, then smaller usage).  Raises
    :class:`ValueError` when nothing fits -- callers should fall back to
    device escalation like the main partitioner.
    """
    candidates = pareto_front(
        design,
        capacity,
        policy=policy,
        max_candidate_sets=max_candidate_sets,
        max_points=256,
    )
    if not candidates:
        raise ValueError(
            f"no feasible arrangement for {design.name!r} within {capacity}"
        )
    return min(
        candidates,
        key=lambda p: (p.worst_frames, p.total_frames, p.usage_key),
    )


def render_front(front: list[ParetoPoint]) -> str:
    """ASCII table of a Pareto front (reports/examples)."""
    from ..eval.report import render_table

    rows = [
        (
            i + 1,
            p.usage.clb,
            p.usage.bram,
            p.usage.dsp,
            p.total_frames,
            p.worst_frames,
            p.scheme.region_count,
        )
        for i, p in enumerate(front)
    ]
    return render_table(
        ("#", "CLBs", "BRAMs", "DSPs", "total frames", "worst", "regions"),
        rows,
        title="area / reconfiguration-time Pareto front",
    )
