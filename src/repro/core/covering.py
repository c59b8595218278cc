"""The covering algorithm: base partitions -> candidate partition sets.

Base partitions are walked in covering-list order (ascending size, then
frequency weight, then area -- :meth:`BasePartition.sort_key`).  A
partition *covers* its modes in every configuration that contains **all**
of them; it is kept only if it covers at least one still-uncovered
(configuration, mode) matrix element.  When the matrix reaches all-zero,
the kept partitions form a **candidate partition set** (CPS) together with
the per-configuration cover assignment the search and the cost model need.

Successive CPSs are generated by repeatedly removing the head of the
covering list (the smallest / least frequent partition) and re-covering,
until covering fails -- the paper's outer loop termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

from ..obs import NULL_TRACER, Tracer
from .clustering import BasePartition
from .matrix import ConnectivityMatrix
from .model import PRDesign


#: Histogram bucket bounds for per-pass iteration counts (these are
#: counts, not seconds, so the default time-oriented layout is wrong).
_COUNT_BOUNDS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


class CoveringError(RuntimeError):
    """Raised when covering cannot complete (matrix not reducible to zero)."""


@dataclass(frozen=True)
class CandidatePartitionSet:
    """A set of base partitions whose modes cover all configurations.

    ``cover`` maps each configuration name to the labels of the partitions
    that supply its modes; together those partitions' mode sets union to
    exactly the configuration's mode set (possibly with overlaps when a
    mode is supplied by more than one selected partition -- harmless, the
    first supplier wins during region activation).
    """

    partitions: tuple[BasePartition, ...]
    cover: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        if not self.partitions:
            raise ValueError("a candidate partition set cannot be empty")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.partitions)

    def partition(self, label: str) -> BasePartition:
        for p in self.partitions:
            if p.label == label:
                return p
        raise KeyError(f"no partition {label!r} in candidate set")

    def covering_partitions(self, configuration_name: str) -> tuple[BasePartition, ...]:
        """The partitions whose modes supply a configuration."""
        return tuple(self.partition(lbl) for lbl in self.cover[configuration_name])

    def validate(self, design: PRDesign) -> None:
        """Re-check the covering invariant (used by tests and the search).

        Every configuration's modes must be exactly the union of its
        covering partitions' modes, and each covering partition must be a
        subset of the configuration.
        """
        for config in design.configurations:
            assigned = self.cover.get(config.name)
            if assigned is None:
                raise CoveringError(f"configuration {config.name!r} missing from cover")
            union: set[str] = set()
            for label in assigned:
                bp = self.partition(label)
                if not bp.modes <= config.modes:
                    raise CoveringError(
                        f"partition {label} assigned to {config.name!r} but not a "
                        "subset of its modes"
                    )
                union |= bp.modes
            if union != set(config.modes):
                missing = set(config.modes) - union
                raise CoveringError(
                    f"configuration {config.name!r} not fully covered; missing {sorted(missing)}"
                )


#: One covering-list entry: the partition, its mode mask, and the rows
#: (configurations) that contain all of its modes -- ``None`` when one of
#: its modes has no matrix column, so it can never legally cover anything.
_PlanEntry = tuple[BasePartition, int, tuple[int, ...] | None]


def _plan(
    partitions: Sequence[BasePartition], cmatrix: ConnectivityMatrix
) -> tuple[list[int], list[_PlanEntry]]:
    """The matrix rows as mode masks, and each partition's plan entry.

    Row ``i`` is configuration ``i``'s mask (bit ``j`` = column ``j``).
    The entries follow list order and depend only on the partition and
    the matrix, so one plan serves every head-removal pass over a list.
    """
    rows = [
        sum(1 << j for j, v in enumerate(row) if v)
        for row in cmatrix.matrix.tolist()
    ]
    bit = {name: 1 << j for j, name in enumerate(cmatrix.mode_names)}
    plan: list[_PlanEntry] = []
    for bp in partitions:
        if any(m not in bit for m in bp.modes):
            plan.append((bp, 0, None))
            continue
        pmask = sum(bit[m] for m in bp.modes)
        fits = tuple(i for i, row in enumerate(rows) if row & pmask == pmask)
        plan.append((bp, pmask, fits))
    return rows, plan


def _cover_pass(
    plan: Sequence[_PlanEntry],
    start: int,
    rows: list[int],
    configuration_names: Sequence[str],
    tracer: Tracer,
) -> CandidatePartitionSet | None:
    """One covering pass over ``plan[start:]`` (see :func:`cover`)."""
    remaining = list(rows)
    live = sum(1 for r in remaining if r)
    selected: list[BasePartition] = []
    cover_map: dict[str, list[str]] = {name: [] for name in configuration_names}

    considered = 0
    for bp, pmask, fits in islice(plan, start, None):
        considered += 1
        if fits is None:
            continue
        # "covers a new mode": a row the whole partition fits in still
        # has one of the partition's modes uncovered.
        hit = [i for i in fits if remaining[i] & pmask]
        if not hit:
            continue
        selected.append(bp)
        label = bp.label
        for i in hit:
            left = remaining[i] & ~pmask
            remaining[i] = left
            cover_map[configuration_names[i]].append(label)
            if not left:
                live -= 1
        if not live:
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


def cover(
    ordered_partitions: Sequence[BasePartition],
    cmatrix: ConnectivityMatrix,
    tracer: Tracer | None = None,
) -> CandidatePartitionSet | None:
    """Run one covering pass over an ordered partition list.

    Returns ``None`` when the list cannot reduce the matrix to zero (which
    terminates the outer CPS loop).  The input order *is* the priority
    order; callers pass a list already in covering-list order.
    """
    rows, plan = _plan(ordered_partitions, cmatrix)
    return _cover_pass(
        plan, 0, rows, cmatrix.configuration_names, tracer or NULL_TRACER
    )


def candidate_partition_sets(
    partitions: Sequence[BasePartition],
    cmatrix: ConnectivityMatrix,
    max_sets: int | None = None,
    tracer: Tracer | None = None,
) -> Iterator[CandidatePartitionSet]:
    """Generate successive CPSs by head removal (the paper's outer loop).

    ``partitions`` must already be in covering-list order.  After each
    successful cover, the head of the list is removed and covering is
    re-applied; iteration stops at the first failure or after ``max_sets``
    sets.  Consecutive duplicate sets (head removal of a partition the
    cover never used) are skipped.
    """
    tracer = tracer or NULL_TRACER
    rows, plan = _plan(partitions, cmatrix)
    produced = 0
    last_labels: tuple[str, ...] | None = None
    for head in range(len(plan)):
        with tracer.span("covering", pool=len(plan) - head):
            tracer.count("covering.passes", 1)
            cps = _cover_pass(
                plan, head, rows, cmatrix.configuration_names, tracer
            )
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
