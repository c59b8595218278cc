"""Region-allocation merge search (paper Sec. IV-C, Fig. 6 inner loops).

Starting from a candidate partition set with every base partition in its
own region (the minimum-reconfiguration-time arrangement), the search
repeatedly assigns two *compatible* partitions (or partition groups) to a
shared region.  Merging shrinks the total footprint -- a shared region is
sized for the larger member instead of both -- at the price of extra
reconfigurations whenever consecutive configurations need different
members.  Every feasible arrangement encountered is scored by total
reconfiguration frames (Eq. 10); the best one wins.

Following the paper, the greedy descent is restarted once from every
possible *initial* compatible pair ("assigns two compatible base
partitions to the same region, which are distinct from those used to
begin the previous iterations"), so a locally bad first merge cannot trap
the search.  Restart count and step counts are configurable to keep large
synthetic designs within the paper's seconds-to-a-minute runtime.

Two engines produce bit-identical results (see docs/PERFORMANCE.md):

* ``engine="reference"`` -- the straightforward implementation: each
  descent step rescans all O(n^2) group pairs for the best merge;
* ``engine="incremental"`` (default) -- lazily invalidated sorted
  streams of merge candidates.  The compatible base-group pairs are
  keyed once per candidate set (and per mode) from the non-materialising
  pair-stat peek into one sorted list that every restart reads with its
  own cursor; a per-restart heap holds only the pairs involving merged
  groups, and each step only evaluates the pairs of the newly merged
  group.  Entries naming dead groups are dropped when reached.  Keys
  carry monotone *slot* numbers so ties come out in the reference
  engine's positional scan order, and per-pair merge stats are memoised
  so repeated restarts never recompute them.  A pending list of base
  pairs keeps the merge cache's contents equal to the reference's.
  Running footprint totals replace the per-state ``_fits`` rescan.

Implementation note: this is the hot loop of the whole library (the
Fig. 7-9 sweep runs it hundreds of thousands of times), so the internal
:class:`_Group` works on plain int tuples -- (clb, bram, dsp) -- instead
of :class:`ResourceVector`, quantisation is inlined, and merged groups
are memoised by member signature.  The public surface still speaks
``ResourceVector``/:class:`PartitioningScheme`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from ..arch.resources import ResourceVector
from ..obs import NULL_TRACER, Tracer
from .clustering import BasePartition
from .cost import DEFAULT_POLICY, TransitionPolicy
from .covering import CandidatePartitionSet
from .kernels import (
    encode_activity,
    merge_encoded,
    switch_pair_counts_encoded,
    weighted_switch_sums_encoded,
)
from .model import PRDesign
from .result import PartitioningScheme, Region

# Tile constants inlined from repro.arch.tiles (kept in sync by tests).
_CLB_PER_TILE, _BRAM_PER_TILE, _DSP_PER_TILE = 20, 4, 8
_CLB_FRAMES, _BRAM_FRAMES, _DSP_FRAMES = 36, 30, 28

#: Below this many configurations the scalar pair loops beat the numpy
#: kernels (array setup dominates).  The dispatch depends only on the
#: design's configuration count, so every group of one search -- and both
#: engines -- use the same implementation and produce identical floats.
_VECTORIZE_MIN_CONFIGS = 12

Vec = tuple[int, int, int]


def _quantise(req: Vec) -> tuple[Vec, int]:
    """(footprint, frames) of a region sized for ``req`` (Eqs. 3-6)."""
    c, b, d = req
    tc = -(-c // _CLB_PER_TILE)
    tb = -(-b // _BRAM_PER_TILE)
    td = -(-d // _DSP_PER_TILE)
    footprint = (tc * _CLB_PER_TILE, tb * _BRAM_PER_TILE, td * _DSP_PER_TILE)
    frames = tc * _CLB_FRAMES + tb * _BRAM_FRAMES + td * _DSP_FRAMES
    return footprint, frames


@dataclass(frozen=True, slots=True)
class _Group:
    """One (tentative) region during the search.

    ``activity`` has one entry per configuration: the label of the member
    partition serving that configuration, or ``None``.  ``usage`` is the
    bitmask of configuration indices touching any member's modes -- two
    groups may merge iff their usage masks are disjoint (the paper's
    compatibility relation lifted to groups).  ``ids`` is the
    numpy-encoded activity vector (shared label codec, -1 for ``None``)
    when the group was built inside a search; ``None`` otherwise.
    """

    members: tuple[BasePartition, ...]
    activity: tuple[str | None, ...]
    usage: int  # bitmask over configuration indices
    requirement: Vec
    frames: int
    footprint: Vec
    switch_pairs_strict: float
    switch_pairs_lenient: float
    signature: frozenset[str]
    ids: "np.ndarray | None" = field(default=None, repr=False, compare=False)

    def switch_pairs(self, policy: TransitionPolicy) -> float:
        if policy is TransitionPolicy.STRICT:
            return self.switch_pairs_strict
        return self.switch_pairs_lenient

    def cost(self, policy: TransitionPolicy) -> float:
        """This group's contribution to Eq. 10 (weighted when the search
        carries pair weights; then a float, otherwise an integral count
        times the frame footprint)."""
        return self.frames * self.switch_pairs(policy)


def _switch_pair_counts(activity: Sequence[str | None]) -> tuple[int, int]:
    """(strict, lenient) pair counts for an activity vector.

    strict:  unordered pairs with differing entries (None is a value);
    lenient: unordered pairs with differing entries, both non-None.
    """
    counts: dict[str | None, int] = {}
    for label in activity:
        counts[label] = counts.get(label, 0) + 1
    n = len(activity)

    def c2(k: int) -> int:
        return k * (k - 1) // 2

    same = sum(c2(k) for k in counts.values())
    strict = c2(n) - same
    non_none = n - counts.get(None, 0)
    same_non_none = sum(c2(k) for lbl, k in counts.items() if lbl is not None)
    lenient = c2(non_none) - same_non_none
    return strict, lenient


def _weighted_switch_sums(
    activity: Sequence[str | None], weights
) -> tuple[float, float]:
    """(strict, lenient) switch sums under a symmetric pair-weight matrix.

    ``weights[i, j]`` is the importance of the (configuration i,
    configuration j) transition -- the paper's "statistical information
    about the probabilities of different configurations" extension.
    O(C^2); only used when weights are supplied.
    """
    strict = lenient = 0.0
    n = len(activity)
    for i in range(n):
        ai = activity[i]
        for j in range(i + 1, n):
            aj = activity[j]
            if ai == aj:
                continue
            w = float(weights[i, j])
            strict += w
            if ai is not None and aj is not None:
                lenient += w
    return strict, lenient


def _switch_stats(
    activity: Sequence[str | None], ids, weights
) -> tuple[float, float]:
    """(strict, lenient) switch stats with a size-based kernel dispatch.

    The choice depends only on the configuration count and the presence
    of encoded ids, both fixed for one search, so every group -- and the
    pair-stat peeks in :class:`_PairStats` -- computes with the same
    implementation and gets bit-identical values.
    """
    vectorize = ids is not None and len(activity) >= _VECTORIZE_MIN_CONFIGS
    if weights is None:
        if vectorize:
            return switch_pair_counts_encoded(ids)
        return _switch_pair_counts(activity)
    if vectorize:
        return weighted_switch_sums_encoded(ids, weights)
    return _weighted_switch_sums(activity, weights)


def _make_group(
    members: tuple[BasePartition, ...],
    activity: tuple[str | None, ...],
    usage: int,
    weights=None,
    ids=None,
) -> _Group:
    rc = rb = rd = 0
    for p in members:
        r = p.resources
        if r.clb > rc:
            rc = r.clb
        if r.bram > rb:
            rb = r.bram
        if r.dsp > rd:
            rd = r.dsp
    requirement = (rc, rb, rd)
    footprint, frames = _quantise(requirement)
    strict, lenient = _switch_stats(activity, ids, weights)
    return _Group(
        members=members,
        activity=activity,
        usage=usage,
        requirement=requirement,
        frames=frames,
        footprint=footprint,
        switch_pairs_strict=strict,
        switch_pairs_lenient=lenient,
        signature=frozenset(p.label for p in members),
        ids=ids,
    )


def _initial_groups(
    design: PRDesign,
    cps: CandidatePartitionSet,
    weights=None,
    codec: dict[str, int] | None = None,
) -> list[_Group]:
    """Each candidate partition in its own region.

    Passing a label ``codec`` (normally the merge cache's) additionally
    encodes every activity vector for the vectorized kernels; groups of
    one search must share one codec.
    """
    config_modes = [frozenset(c.modes) for c in design.configurations]
    config_names = [c.name for c in design.configurations]
    groups: list[_Group] = []
    for bp in cps.partitions:
        activity = tuple(
            bp.label if bp.label in cps.cover[name] else None
            for name in config_names
        )
        usage = 0
        for i, modes in enumerate(config_modes):
            if bp.modes & modes:
                usage |= 1 << i
        ids = encode_activity(activity, codec) if codec is not None else None
        groups.append(_make_group((bp,), activity, usage, weights, ids))
    return groups


class _MergeCache:
    """Memoises merged groups by member-signature pair.

    A cache is bound to one pair-weight matrix (or none); mixing weighted
    and unweighted searches requires separate caches.  ``hits``/``misses``
    are plain ints maintained unconditionally (two integer adds per merge
    -- negligible next to group construction) so tracers can report cache
    effectiveness without touching the hot path.  ``codec`` is the shared
    label-id mapping for the vectorized kernels; merged ids are derived
    by overlaying the parents' encodings.
    """

    def __init__(self, weights=None) -> None:
        self._cache: dict[frozenset[str], _Group] = {}
        self.weights = weights
        self.codec: dict[str, int] = {}
        self.hits = 0
        self.misses = 0

    def merge(self, a: _Group, b: _Group) -> _Group:
        key = a.signature | b.signature
        merged = self._cache.get(key)
        if merged is None:
            self.misses += 1
            activity = tuple(
                x if x is not None else y for x, y in zip(a.activity, b.activity)
            )
            ids = None
            if a.ids is not None and b.ids is not None:
                ids = merge_encoded(a.ids, b.ids)
            merged = _make_group(
                a.members + b.members,
                activity,
                a.usage | b.usage,
                self.weights,
                ids,
            )
            self._cache[key] = merged
        else:
            self.hits += 1
        return merged


def _mergeable(a: _Group, b: _Group) -> bool:
    return not (a.usage & b.usage)


def _fits(groups: Sequence[_Group], capacity: Vec) -> bool:
    c = b = d = 0
    for g in groups:
        fc, fb, fd = g.footprint
        c += fc
        b += fb
        d += fd
    return c <= capacity[0] and b <= capacity[1] and d <= capacity[2]


def _total_cost(groups: Sequence[_Group], policy: TransitionPolicy) -> float:
    return sum(g.cost(policy) for g in groups)


class _PairStats:
    """Memoised (merged cost, merged footprint) of compatible pairs.

    Two access paths, both reporting exactly what ``cache.merge(a, b)``
    would (an existing cache entry is consulted first -- a cache shared
    across the candidate sets of one design may hold a group whose
    activity was derived under an earlier set's cover, and the reference
    engine scores with that entry):

    * :meth:`peek` never allocates the merged :class:`_Group` or touches
      the cache's hit/miss books -- used to rank ``initial_pairs`` and to
      key the incremental engine's base-pair lists (absent a cache entry
      it derives the value from the overlay directly);
    * :meth:`evaluate` materialises the pair through ``cache.merge`` the
      first time -- the incremental engine uses it for every pair a
      reference descent would itself evaluate, so both engines leave the
      shared cache with identical contents (on which *later* searches'
      values depend).

    Callers derive the reference engine's scan values in the reference's
    operand order (``merged - lower - upper``), keeping weighted floats
    bit-identical.  Memos are keyed by object identity: every group of a
    search is kept alive by the base list or the merge cache, and the
    overlay of a *compatible* pair is symmetric, so one entry serves
    both orders.
    """

    __slots__ = ("_strict", "_cache", "_memo", "_materialised")

    def __init__(self, policy: TransitionPolicy, cache: _MergeCache) -> None:
        self._strict = policy is TransitionPolicy.STRICT
        self._cache = cache
        self._memo: dict[tuple[int, int], tuple[float, Vec]] = {}
        self._materialised: set[tuple[int, int]] = set()

    def _value_of(self, merged: _Group) -> tuple[float, Vec]:
        sw = (
            merged.switch_pairs_strict
            if self._strict
            else merged.switch_pairs_lenient
        )
        return (merged.frames * sw, merged.footprint)

    def peek(self, a: _Group, b: _Group) -> tuple[float, Vec]:
        ka, kb = id(a), id(b)
        key = (ka, kb) if ka < kb else (kb, ka)
        val = self._memo.get(key)
        if val is None:
            cached = self._cache._cache.get(a.signature | b.signature)
            if cached is not None:
                val = self._value_of(cached)
            else:
                ra, rb = a.requirement, b.requirement
                req = (
                    ra[0] if ra[0] >= rb[0] else rb[0],
                    ra[1] if ra[1] >= rb[1] else rb[1],
                    ra[2] if ra[2] >= rb[2] else rb[2],
                )
                footprint, frames = _quantise(req)
                activity = tuple(
                    x if x is not None else y
                    for x, y in zip(a.activity, b.activity)
                )
                ids = None
                if a.ids is not None and b.ids is not None:
                    ids = merge_encoded(a.ids, b.ids)
                sw_strict, sw_lenient = _switch_stats(
                    activity, ids, self._cache.weights
                )
                val = (
                    frames * (sw_strict if self._strict else sw_lenient),
                    footprint,
                )
            self._memo[key] = val
        return val

    def evaluate(self, a: _Group, b: _Group) -> tuple[float, Vec]:
        ka, kb = id(a), id(b)
        key = (ka, kb) if ka < kb else (kb, ka)
        if key in self._materialised:
            return self._memo[key]
        self._materialised.add(key)
        val = self._value_of(self._cache.merge(a, b))
        self._memo[key] = val
        return val


class _HeapStats:
    """Counters of the incremental engine's heap traffic (``merge.heap_*``)."""

    __slots__ = ("pushes", "pops", "stale_drops", "rebuilds")

    def __init__(self) -> None:
        self.pushes = 0
        self.pops = 0
        self.stale_drops = 0
        self.rebuilds = 0


_ENGINES = ("incremental", "reference")


@dataclass
class AllocationOptions:
    """Tuning knobs for the merge search.

    Defaults follow the paper's exhaustive-restart description; the caps
    exist so very large synthetic designs stay within the paper's
    seconds-to-a-minute runtime envelope.  ``max_initial_pairs=None``
    means every compatible pair seeds one descent.  ``engine`` selects
    the search implementation -- the heap-driven ``"incremental"``
    engine (default) is bit-identical to ``"reference"`` and 8.6-9.2x
    faster end to end on the four large bench designs of
    docs/PERFORMANCE.md (2-core host).
    """

    policy: TransitionPolicy = DEFAULT_POLICY
    max_initial_pairs: int | None = None
    max_descent_steps: int | None = None
    #: Optional symmetric (C x C) transition-importance matrix in
    #: configuration declaration order; switches the objective from the
    #: all-pairs count (Eq. 7) to the probability-weighted variant the
    #: paper proposes as future work.
    pair_weights: "object | None" = None
    engine: str = "incremental"

    def __post_init__(self) -> None:
        if self.max_initial_pairs is not None and self.max_initial_pairs < 1:
            raise ValueError("max_initial_pairs must be positive or None")
        if self.max_descent_steps is not None and self.max_descent_steps < 1:
            raise ValueError("max_descent_steps must be positive or None")
        if self.engine not in _ENGINES:
            raise ValueError(
                f"engine must be one of {_ENGINES}, got {self.engine!r}"
            )


@dataclass
class AllocationOutcome:
    """Result of searching one candidate partition set."""

    best_groups: list[_Group] | None
    best_cost: float | None
    states_explored: int
    feasible_states: int

    @property
    def found(self) -> bool:
        return self.best_groups is not None


def search_candidate_set(
    design: PRDesign,
    cps: CandidatePartitionSet,
    capacity: ResourceVector,
    options: AllocationOptions | None = None,
    merge_cache: _MergeCache | None = None,
    tracer: Tracer | None = None,
) -> AllocationOutcome:
    """Run the restarted greedy merge search for one CPS.

    Every feasible state encountered (including the all-separate start)
    competes; the arrangement with minimum total reconfiguration frames is
    returned as raw groups (convert with :func:`groups_to_scheme`).
    A shared ``merge_cache`` may be passed when several candidate sets of
    one design are searched in sequence.  Metric totals are batched into
    the ``tracer`` once per call, so the inner loops stay tracer-free.
    """
    options = options or AllocationOptions()
    tracer = tracer or NULL_TRACER
    policy = options.policy
    cap: Vec = capacity.as_tuple()
    cache = merge_cache or _MergeCache(options.pair_weights)
    cache_hits0, cache_misses0 = cache.hits, cache.misses

    base = _initial_groups(design, cps, options.pair_weights, cache.codec)
    best_groups: list[_Group] | None = None
    best_cost: float | None = None
    states = 0
    feasible = 0
    seen_states: set[frozenset[frozenset[str]]] = set()

    def consider(groups: Collection[_Group], fits: bool | None = None) -> None:
        nonlocal best_groups, best_cost, states, feasible
        states += 1
        if fits is None:
            fits = _fits(groups, cap)
        if fits:
            feasible += 1
            cost = _total_cost(groups, policy)
            if best_cost is None or cost < best_cost or (
                cost == best_cost
                and best_groups is not None
                and len(groups) < len(best_groups)
            ):
                best_cost = cost
                best_groups = list(groups)

    consider(base)

    # All compatible pairs at the start, ordered by the cost delta of the
    # merge so capped runs try the most promising seeds first.  The delta
    # comes from the pair-stat peek -- identical to materialising the
    # merged group, but without seeding the merge cache for pairs that
    # max_initial_pairs would discard anyway.
    pair_stats = _PairStats(policy, cache)

    def seed_delta(ij: tuple[int, int]) -> float:
        a, b = base[ij[0]], base[ij[1]]
        merged_cost, _ = pair_stats.peek(a, b)
        return merged_cost - a.cost(policy) - b.cost(policy)

    compatible_pairs = [
        (i, j)
        for i, j in itertools.combinations(range(len(base)), 2)
        if _mergeable(base[i], base[j])
    ]
    initial_pairs = sorted(compatible_pairs, key=seed_delta)
    if options.max_initial_pairs is not None:
        initial_pairs = initial_pairs[: options.max_initial_pairs]

    descent_steps = 0
    heap_stats = _HeapStats()

    progress = None
    if tracer.enabled:

        def progress(restart: int) -> None:
            tracer.progress(
                "merge.restart",
                restart=restart + 1,
                restarts=len(initial_pairs),
                states=states,
                best_cost=best_cost,
            )

    if options.engine == "reference":
        for restart, (i, j) in enumerate(initial_pairs):
            groups = [g for k, g in enumerate(base) if k not in (i, j)]
            groups.append(cache.merge(base[i], base[j]))
            consider(groups)
            descent_steps += _greedy_descent(
                groups, cap, options, consider, seen_states, cache
            )
            if progress is not None:
                progress(restart)
    else:
        descent_steps = _run_restarts_incremental(
            base,
            compatible_pairs,
            initial_pairs,
            cap,
            options,
            consider,
            seen_states,
            cache,
            pair_stats,
            heap_stats,
            progress,
        )

    tracer.count("merge.states_explored", states)
    tracer.count("merge.feasible_states", feasible)
    tracer.count("merge.initial_pairs", len(initial_pairs))
    tracer.count("merge.descent_steps", descent_steps)
    tracer.count("merge.cache_hits", cache.hits - cache_hits0)
    tracer.count("merge.cache_misses", cache.misses - cache_misses0)
    if options.engine != "reference":
        tracer.count("merge.heap_pushes", heap_stats.pushes)
        tracer.count("merge.heap_pops", heap_stats.pops)
        tracer.count("merge.heap_stale_drops", heap_stats.stale_drops)
        tracer.count("merge.heap_rebuilds", heap_stats.rebuilds)
    return AllocationOutcome(
        best_groups=best_groups,
        best_cost=best_cost,
        states_explored=states,
        feasible_states=feasible,
    )


def _run_restarts_incremental(
    base: list[_Group],
    base_pairs: list[tuple[int, int]],
    initial_pairs: list[tuple[int, int]],
    capacity: Vec,
    options: AllocationOptions,
    consider: Callable[..., None],
    seen_states: set[frozenset[frozenset[str]]],
    cache: _MergeCache,
    pair_stats: _PairStats,
    heap_stats: _HeapStats,
    progress: Callable[[int], None] | None = None,
) -> int:
    """Heap-driven restart loop, bit-identical to the reference engine.

    Groups carry monotone *slot* numbers: base groups take 0..n-1, every
    merged group a fresh higher slot.  The live arrangement is a dict in
    slot (== reference list position) order, so entries
    ``(key1, key2, slot_lo, slot_hi)`` break key ties exactly like the
    reference's positional first-seen-minimum scan.  The pre-fit phase
    keys by (-footprint saved, cost delta) and the post-fit phase by
    (cost delta, -footprint saved); within one descent the quantised
    footprint sum never increases under merging, so the mode flips at
    most once (one full heap rebuild).

    Every compatible base pair (``base_pairs``; ``initial_pairs`` is the
    ordered, possibly capped subset that starts a restart) is keyed once
    per candidate set and mode, lazily, from :meth:`_PairStats.peek` into
    a sorted list.  A restart ``(i, j)`` walks that list with a cursor
    next to its own heap, which starts with the pairs of its merged group
    (slot ``n``); the next candidate is the smaller head of the two.
    Entries naming dead slots -- among them the base entries naming ``i``
    or ``j`` -- are dropped when reached; per-pair merge stats are
    memoised across restarts, so re-seeding never recomputes a merge.

    Pair *materialisation* is deliberately kept congruent with the
    reference scan: the entries for a state are only built after that
    state passes the step-cap and seen-state gates -- exactly when the
    reference engine would rescan it -- and go through
    :meth:`_PairStats.evaluate`, which materialises the merged group in
    the shared cache.  Base pairs are the exception, since ``peek`` adds
    nothing to the cache: a pending list holds the ones not yet
    materialised, and each gated restart ``(i, j)`` evaluates the pending
    pairs touching neither ``i`` nor ``j`` -- exactly the base pairs the
    reference rescan of its start state evaluates.  Searches later in a
    ``partition()`` run read values out of that cache, so matching its
    *contents* (not just this search's result) is part of the
    bit-identical contract.
    """
    policy = options.policy
    if policy is TransitionPolicy.STRICT:

        def gcost(g: _Group) -> float:
            return g.frames * g.switch_pairs_strict

    else:

        def gcost(g: _Group) -> float:
            return g.frames * g.switch_pairs_lenient

    cap_c, cap_b, cap_d = capacity
    max_steps = options.max_descent_steps
    n = len(base)
    base_c = base_b = base_d = 0
    for g in base:
        fc, fb, fd = g.footprint
        base_c += fc
        base_b += fb
        base_d += fd

    def entry_for(slot_lo, slot_hi, lo, hi, mode_fits,
                  stats=pair_stats.evaluate):
        merged_cost, merged_fp = stats(lo, hi)
        lo_fp = lo.footprint
        hi_fp = hi.footprint
        # Same operand order as the reference scan: (merged - lo) - hi.
        delta = merged_cost - gcost(lo) - gcost(hi)
        saved = (
            (lo_fp[0] + hi_fp[0] - merged_fp[0])
            + (lo_fp[1] + hi_fp[1] - merged_fp[1])
            + (lo_fp[2] + hi_fp[2] - merged_fp[2])
        )
        if mode_fits:
            return (delta, -saved, slot_lo, slot_hi)
        return (-saved, delta, slot_lo, slot_hi)

    def build_entries(items, mode_fits):
        entries = []
        m = len(items)
        for x in range(m):
            sx, gx = items[x]
            ux = gx.usage
            for y in range(x + 1, m):
                sy, gy = items[y]
                if ux & gy.usage:
                    continue
                entries.append(entry_for(sx, sy, gx, gy, mode_fits))
        entries.sort()
        return entries

    # One sorted list of base-pair entries per mode, shared by every
    # restart of this candidate set and built on first use.
    base_sorted: list[list | None] = [None, None]

    def base_entries(mode_fits):
        entries = base_sorted[mode_fits]
        if entries is None:
            entries = sorted(
                entry_for(x, y, base[x], base[y], mode_fits, pair_stats.peek)
                for x, y in base_pairs
            )
            base_sorted[mode_fits] = entries
        return entries

    # Base pairs not yet materialised in the merge cache.
    pending = base_pairs
    evaluate = pair_stats.evaluate
    base_slots = dict(enumerate(base))
    base_sigs = frozenset(g.signature for g in base)

    total_steps = 0
    pushes = pops = stale_drops = rebuilds = 0
    push = heapq.heappush
    pop = heapq.heappop

    for restart, (i, j) in enumerate(initial_pairs):
        gi, gj = base[i], base[j]
        merged = cache.merge(gi, gj)
        alive: dict[int, _Group] = base_slots.copy()
        del alive[i]
        del alive[j]
        slot = n
        alive[slot] = merged

        mc, mb, md = merged.footprint
        run_c = base_c - gi.footprint[0] - gj.footprint[0] + mc
        run_b = base_b - gi.footprint[1] - gj.footprint[1] + mb
        run_d = base_d - gi.footprint[2] - gj.footprint[2] + md
        fits_now = run_c <= cap_c and run_b <= cap_b and run_d <= cap_d

        consider(alive.values(), fits_now)

        steps = 0
        state_sig = base_sigs - {gi.signature, gj.signature} | {
            merged.signature
        }
        # max_descent_steps is validated positive, so the reference's
        # step-cap check never fires before the first step.
        if len(alive) > 1 and state_sig not in seen_states:
            seen_states.add(state_sig)
            if pending:
                keep = []
                for pair in pending:
                    x, y = pair
                    if x == i or x == j or y == i or y == j:
                        keep.append(pair)
                    else:
                        evaluate(base[x], base[y])
                pending = keep
            sig_set = set(state_sig)
            mode = fits_now
            # The next candidate is the smaller head of the shared base
            # list and this restart's heap; base entries naming i or j
            # are stale from the start.
            blist = base_entries(mode)
            bpos, blen = 0, len(blist)
            mu = merged.usage
            heap = [
                entry_for(s, slot, g, merged, mode)
                for s, g in alive.items()
                if s != slot and not g.usage & mu
            ]
            heapq.heapify(heap)
            pushes += blen + len(heap)

            while True:
                while True:
                    if bpos < blen:
                        entry = blist[bpos]
                        if heap and heap[0] < entry:
                            entry = pop(heap)
                        else:
                            bpos += 1
                    elif heap:
                        entry = pop(heap)
                    else:
                        entry = None
                        break
                    if entry[2] in alive and entry[3] in alive:
                        break
                    stale_drops += 1
                if entry is None:
                    break
                pops += 1
                delta = entry[0] if mode else entry[1]
                if fits_now and delta >= 0:
                    break
                slot_lo, slot_hi = entry[2], entry[3]
                ga = alive.pop(slot_lo)
                gb = alive.pop(slot_hi)
                merged_next = cache.merge(ga, gb)
                slot += 1
                alive[slot] = merged_next
                run_c += merged_next.footprint[0] - ga.footprint[0] - gb.footprint[0]
                run_b += merged_next.footprint[1] - ga.footprint[1] - gb.footprint[1]
                run_d += merged_next.footprint[2] - ga.footprint[2] - gb.footprint[2]
                fits_now = run_c <= cap_c and run_b <= cap_b and run_d <= cap_d
                sig_set.discard(ga.signature)
                sig_set.discard(gb.signature)
                sig_set.add(merged_next.signature)
                consider(alive.values(), fits_now)
                steps += 1
                if len(alive) <= 1:
                    break
                if max_steps is not None and steps >= max_steps:
                    break
                state_sig = frozenset(sig_set)
                if state_sig in seen_states:
                    break
                seen_states.add(state_sig)
                if fits_now and not mode:
                    # The arrangement started fitting: re-key every live
                    # pair from footprint-first to cost-first.  Footprint
                    # sums are non-increasing under merging, so this
                    # happens at most once per descent.
                    mode = True
                    heap = build_entries(list(alive.items()), True)
                    blen = 0
                    rebuilds += 1
                    pushes += len(heap)
                else:
                    # fits_now never reverts, so mode == fits_now here.
                    mu = merged_next.usage
                    for s, g in alive.items():
                        if s == slot or g.usage & mu:
                            continue
                        push(
                            heap,
                            entry_for(s, slot, g, merged_next, mode),
                        )
                        pushes += 1

        total_steps += steps
        if progress is not None:
            progress(restart)
    heap_stats.pushes += pushes
    heap_stats.pops += pops
    heap_stats.stale_drops += stale_drops
    heap_stats.rebuilds += rebuilds
    return total_steps


def _greedy_descent(
    groups: list[_Group],
    capacity: Vec,
    options: AllocationOptions,
    consider: Callable[[list[_Group]], None],
    seen_states: set[frozenset[frozenset[str]]],
    cache: _MergeCache,
) -> int:
    """Best-improvement merging until no merge helps and the state fits.

    While the arrangement does not fit the budget, the merge shrinking the
    footprint most is forced (cost-delta as tiebreak); once it fits, only
    cost-improving merges are applied.  Returns the number of merge steps
    taken (for the ``merge.descent_steps`` counter).

    This is the ``engine="reference"`` step loop -- the straightforward
    O(n^2)-rescan-per-step implementation the incremental engine is
    differentially tested against.
    """
    policy = options.policy
    steps = 0
    while len(groups) > 1:
        if options.max_descent_steps is not None and steps >= options.max_descent_steps:
            return steps
        signature = frozenset(g.signature for g in groups)
        if signature in seen_states:
            return steps
        seen_states.add(signature)

        fits = _fits(groups, capacity)
        best_merge: tuple[int, int, _Group] | None = None
        best_key: tuple[int, int] | None = None
        n = len(groups)
        for i in range(n):
            gi = groups[i]
            ui = gi.usage
            for j in range(i + 1, n):
                gj = groups[j]
                if ui & gj.usage:
                    continue
                merged = cache.merge(gi, gj)
                delta_cost = (
                    merged.cost(policy) - gi.cost(policy) - gj.cost(policy)
                )
                saved = (
                    gi.footprint[0] + gj.footprint[0] - merged.footprint[0]
                ) + (
                    gi.footprint[1] + gj.footprint[1] - merged.footprint[1]
                ) + (
                    gi.footprint[2] + gj.footprint[2] - merged.footprint[2]
                )
                # Cost first once feasible; footprint saving first before.
                key = (delta_cost, -saved) if fits else (-saved, delta_cost)
                if best_key is None or key < best_key:
                    best_key = key
                    best_merge = (i, j, merged)
        if best_merge is None:
            return steps
        i, j, merged = best_merge
        delta_cost = (
            merged.cost(policy) - groups[i].cost(policy) - groups[j].cost(policy)
        )
        if fits and delta_cost >= 0:
            return steps
        groups = [g for k, g in enumerate(groups) if k not in (i, j)]
        groups.append(merged)
        consider(groups)
        steps += 1
    return steps


def groups_to_scheme(
    design: PRDesign,
    cps: CandidatePartitionSet,
    groups: Iterable[_Group],
    strategy: str = "proposed",
) -> PartitioningScheme:
    """Materialise raw search groups as a validated scheme.

    Regions are numbered in a deterministic order (sorted by member
    labels) so repeated runs print identical tables.
    """
    ordered = sorted(groups, key=lambda g: sorted(g.signature))
    regions = tuple(
        Region(name=f"PRR{i + 1}", partitions=g.members)
        for i, g in enumerate(ordered)
    )
    return PartitioningScheme(
        design=design,
        regions=regions,
        cover={k: tuple(v) for k, v in cps.cover.items()},
        strategy=strategy,
    )
