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
the search.  The restart count is configurable to keep large synthetic
designs within the paper's seconds-to-a-minute runtime.

Two engines produce bit-identical results (see docs/PERFORMANCE.md):

* ``engine="reference"`` -- the straightforward implementation: each
  descent step rescans all O(n^2) group pairs for the best merge;
* ``engine="incremental"`` (default) -- lazily invalidated sorted
  streams of merge candidates.  The compatible base-group pairs are
  keyed once per candidate set (and per mode) from the non-materialising
  pair-stat peek into one sorted list that every restart reads through
  its own mask of live list positions, so the next candidate is the
  mask's lowest set bit and no loop walks past the entries that name a
  merged-away base group; a per-restart heap holds only the pairs
  involving merged groups, and each step keys only the pairs of the
  newly merged group with the live groups inside its compatibility mask
  (int masks over base slots), reading a pair's merged group straight
  from the merge cache.  Keys carry monotone *slot* numbers so ties come
  out in the reference engine's positional scan order.  A pending list
  of base pairs keeps the merge cache's contents equal to the
  reference's.  Running footprint totals replace the per-state ``_fits``
  rescan, only the states that fit are scored, and a seen state is one
  int (:func:`_state_code`) updated by one multiply-add per merge.

Implementation note: this is the hot loop of the whole library (the
Fig. 7-9 sweep runs it hundreds of thousands of times), so the internal
:class:`_Group` works on plain int tuples -- (clb, bram, dsp) -- instead
of :class:`ResourceVector`, quantisation is inlined, each group carries
its Eq. 10 cost under both policies, and a group is identified by one
int member mask: merged groups are memoised under it, base groups under
their label and active-configuration mask, and a reference-engine search
state is the frozenset of its groups' masks.  Without pair weights a
group's switching pairs follow from two ints that add under merging
(:func:`_switch_counts`), so unweighted groups carry no activity vector.
The public surface still speaks ``ResourceVector``/:class:`PartitioningScheme`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Sequence

from ..arch.resources import ResourceVector
from ..obs import NULL_TRACER, Tracer
from .clustering import BasePartition
from .cost import DEFAULT_POLICY, TransitionPolicy
from .covering import CandidatePartitionSet
from .kernels import encode_activity, weighted_switch_sums_encoded
from .model import PRDesign
from .result import PartitioningScheme, Region

# Tile constants inlined from repro.arch.tiles (kept in sync by tests).
_CLB_PER_TILE, _BRAM_PER_TILE, _DSP_PER_TILE = 20, 4, 8
_CLB_FRAMES, _BRAM_FRAMES, _DSP_FRAMES = 36, 30, 28

#: Below this many configurations the scalar weighted pair loop beats the
#: numpy kernel (array setup dominates).  The dispatch depends only on the
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

    ``usage`` is the bitmask of configuration indices touching any
    member's modes -- two groups may merge iff their usage masks are
    disjoint (the paper's compatibility relation lifted to groups).
    ``active`` is the bitmask of configurations some member serves
    (``active`` is a subset of ``usage``) and ``same`` the number of
    configuration pairs served by the same member, the sum of C(count, 2)
    over the members; both add when two compatible groups merge.
    ``cost_strict`` and ``cost_lenient`` are the group's contribution to
    Eq. 10 under each policy, ``frames`` times its switch pairs (weighted
    when the search carries pair weights; then a float, otherwise an
    integral count times the frame footprint).  ``key`` is the member
    mask: the OR of the members' label bits, which the owning
    :class:`_MergeCache` assigns, so within one cache it names the member
    set.  ``activity`` is set only in weighted searches: one entry per
    configuration, the label of the member serving it, or ``None``.
    """

    members: tuple[BasePartition, ...]
    usage: int  # bitmask over configuration indices
    requirement: Vec
    frames: int
    footprint: Vec
    cost_strict: float
    cost_lenient: float
    key: int  # bitmask over member labels (bits from the merge cache)
    active: int  # bitmask over configuration indices, subset of usage
    same: int  # same-member configuration pairs
    activity: tuple[str | None, ...] | None = None

    def cost(self, policy: TransitionPolicy) -> float:
        """This group's contribution to Eq. 10 under ``policy``."""
        if policy is TransitionPolicy.STRICT:
            return self.cost_strict
        return self.cost_lenient


def _switch_counts(active: int, same: int, configs: int) -> tuple[int, int]:
    """(strict, lenient) switch-pair counts of a group's count summary.

    With ``k`` active configurations out of ``configs`` and ``same``
    same-member pairs, lenient counts the active pairs served by
    different members, C(k, 2) - same, and strict additionally every
    active/idle pair: C(configs, 2) - same - C(configs - k, 2).
    """
    k = active.bit_count()
    lenient = k * (k - 1) // 2 - same
    return lenient + k * (configs - k), lenient


def _weighted_switch_sums(
    activity: Sequence[str | None], weights
) -> tuple[float, float]:
    """(strict, lenient) switch sums under a symmetric pair-weight matrix.

    ``weights[i, j]`` is the importance of the (configuration i,
    configuration j) transition -- the paper's "statistical information
    about the probabilities of different configurations" extension.
    From :data:`_VECTORIZE_MIN_CONFIGS` configurations on, the numpy
    kernel sums the terms; it reads the encoded labels only for equality
    and sign, so any codec gives the same floats.  The dispatch depends
    only on the activity's length, fixed for one search, so every group
    and every pair-gain peek of a search sums in the same order.
    """
    n = len(activity)
    if n >= _VECTORIZE_MIN_CONFIGS:
        return weighted_switch_sums_encoded(encode_activity(activity, {}), weights)
    strict = lenient = 0.0
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


def _overlay(
    a: Sequence[str | None], b: Sequence[str | None]
) -> tuple[str | None, ...]:
    """The activity of two merged groups (their entries are disjoint)."""
    return tuple(x if x is not None else y for x, y in zip(a, b))


def _envelope(ra: Vec, rb: Vec) -> Vec:
    """The requirement of a region holding both requirements' owners."""
    return (
        ra[0] if ra[0] >= rb[0] else rb[0],
        ra[1] if ra[1] >= rb[1] else rb[1],
        ra[2] if ra[2] >= rb[2] else rb[2],
    )


def _make_group(
    cache: "_MergeCache",
    members: tuple[BasePartition, ...],
    requirement: Vec,
    usage: int,
    key: int,
    active: int,
    same: int,
    activity: tuple[str | None, ...] | None = None,
) -> _Group:
    """A group of ``members``; ``activity`` is given iff ``cache`` is
    weighted."""
    footprint, frames = _quantise(requirement)
    if activity is None:
        strict, lenient = _switch_counts(active, same, cache.configs)
    else:
        strict, lenient = _weighted_switch_sums(activity, cache.weights)
    return _Group(
        members=members,
        usage=usage,
        requirement=requirement,
        frames=frames,
        footprint=footprint,
        cost_strict=frames * strict,
        cost_lenient=frames * lenient,
        key=key,
        active=active,
        same=same,
        activity=activity,
    )


def _initial_groups(
    design: PRDesign,
    cps: CandidatePartitionSet,
    cache: "_MergeCache",
) -> list[_Group]:
    """Each candidate partition in its own region.

    Member masks come from ``cache``, the cache the groups will be
    merged in, which also memoises each base group under its label and
    active-configuration mask: the candidate sets of one design share
    most of their partitions, and a group depends only on the partition
    and the configurations the set's cover gives it.  Groups carry
    activity vectors only when ``cache`` is weighted.
    """
    config_names = [c.name for c in design.configurations]
    n = cache.configs = len(config_names)
    memo = cache.base_groups
    config_modes: list[frozenset[str]] | None = None
    groups: list[_Group] = []
    for bp in cps.partitions:
        label = bp.label
        active = 0
        for i, name in enumerate(config_names):
            if label in cps.cover[name]:
                active |= 1 << i
        group = memo.get((label, active))
        if group is None:
            if config_modes is None:
                config_modes = [frozenset(c.modes) for c in design.configurations]
            usage = 0
            for i, modes in enumerate(config_modes):
                if bp.modes & modes:
                    usage |= 1 << i
            activity = None
            if cache.weights is not None:
                activity = tuple(
                    label if active >> i & 1 else None for i in range(n)
                )
            k = active.bit_count()
            group = _make_group(
                cache, (bp,), bp.resources.as_tuple(), usage,
                cache.bit(label), active, k * (k - 1) // 2, activity,
            )
            memo[(label, active)] = group
        groups.append(group)
    return groups


class _MergeCache:
    """Memoises merged groups by member mask.

    ``codec`` is the cache's label table: it gives each label a dense
    id, which :meth:`bit` turns into the label's member-mask bit, so
    groups merged in one cache must have been built with it.  A cache is
    bound to one design -- ``configs``, its configuration count, is set
    by :func:`_initial_groups` -- and to one pair-weight matrix (or
    none); mixing weighted and unweighted searches requires separate
    caches.  ``base_groups`` holds the base groups
    :func:`_initial_groups` built, keyed by (label, active mask).
    ``misses`` counts the merged groups built; ``hits`` counts the
    :meth:`merge` calls that found their group (the incremental engine
    reads most groups straight from ``_cache`` instead).  Both are
    plain ints so tracers can report them without touching the hot
    path.
    """

    def __init__(self, weights=None) -> None:
        self._cache: dict[int, _Group] = {}
        self.base_groups: dict[tuple[str, int], _Group] = {}
        self.weights = weights
        self.configs = 0
        self.codec: dict[str, int] = {}
        self.hits = 0
        self.misses = 0

    def bit(self, label: str) -> int:
        """The member-mask bit of ``label``, assigned on first use."""
        return 1 << self.codec.setdefault(label, len(self.codec))

    def merge(self, a: _Group, b: _Group) -> _Group:
        key = a.key | b.key
        merged = self._cache.get(key)
        if merged is None:
            self.misses += 1
            activity = None
            if self.weights is not None:
                activity = _overlay(a.activity, b.activity)
            merged = _make_group(
                self,
                a.members + b.members,
                _envelope(a.requirement, b.requirement),
                a.usage | b.usage,
                key,
                a.active | b.active,
                a.same + b.same,
                activity,
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


def _state_code(roots: Iterable[int], width: int) -> int:
    """One int naming a partition of base slots ``0..n-1``.

    ``roots[s]`` is the lowest base slot of the group holding slot
    ``s``; it fills digit ``s``, ``width`` (``n.bit_length()``) bits
    wide, so every slot number fits and two partitions share a code
    only if they are equal.
    """
    code = 0
    for s, root in enumerate(roots):
        code |= root << (width * s)
    return code


def _merged_code(
    code: int, root_a: int, spread_a: int, root_b: int, spread_b: int
) -> int:
    """``code`` after the groups rooted at ``root_a`` and ``root_b`` merge.

    ``spread_x`` has a 1 in the digit of every member of that group;
    the group with the higher root takes the lower one in all its
    digits, so the update is one multiply-add.
    """
    if root_a < root_b:
        return code - (root_b - root_a) * spread_b
    return code - (root_a - root_b) * spread_a


def _peek_gain(
    cache: _MergeCache, a: _Group, b: _Group, strict: bool
) -> tuple[float, int]:
    """(cost delta, footprint saved) of merging the compatible pair
    ``(a, b)``, exactly as ``cache.merge(a, b)`` would give them.

    An existing cache entry is read first -- a cache shared across the
    candidate sets of one design may hold a group whose activity was
    derived under an earlier set's cover, and the reference engine
    scores with that entry.  Absent one, the merged values are derived
    from the parents' count summaries (or activity overlay, when
    weighted) directly, and nothing is added to the cache, so a peek
    never changes which pairs are materialised.  The delta takes
    the reference scan's operand order (``merged - a - b``), keeping
    weighted floats bit-identical.
    """
    merged = cache._cache.get(a.key | b.key)
    if merged is not None:
        merged_cost = merged.cost_strict if strict else merged.cost_lenient
        footprint = merged.footprint
    else:
        footprint, frames = _quantise(_envelope(a.requirement, b.requirement))
        if cache.weights is None:
            sw_strict, sw_lenient = _switch_counts(
                a.active | b.active, a.same + b.same, cache.configs
            )
        else:
            sw_strict, sw_lenient = _weighted_switch_sums(
                _overlay(a.activity, b.activity), cache.weights
            )
        merged_cost = frames * (sw_strict if strict else sw_lenient)
    if strict:
        delta = merged_cost - a.cost_strict - b.cost_strict
    else:
        delta = merged_cost - a.cost_lenient - b.cost_lenient
    fa, fb = a.footprint, b.footprint
    saved = (
        (fa[0] + fb[0] - footprint[0])
        + (fa[1] + fb[1] - footprint[1])
        + (fa[2] + fb[2] - footprint[2])
    )
    return delta, saved


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

    Defaults follow the paper's exhaustive-restart description; the
    restart cap exists so very large synthetic designs stay within the
    paper's seconds-to-a-minute runtime envelope.
    ``max_initial_pairs=None`` means every compatible pair seeds one
    descent.  ``engine`` selects
    the search implementation -- the heap-driven ``"incremental"``
    engine (default) is bit-identical to ``"reference"`` and 8.6-9.2x
    faster end to end on the four large bench designs of
    docs/PERFORMANCE.md (2-core host).
    """

    policy: TransitionPolicy = DEFAULT_POLICY
    max_initial_pairs: int | None = None
    #: Optional symmetric (C x C) transition-importance matrix in
    #: configuration declaration order; switches the objective from the
    #: all-pairs count (Eq. 7) to the probability-weighted variant the
    #: paper proposes as future work.
    pair_weights: "object | None" = None
    engine: str = "incremental"

    def __post_init__(self) -> None:
        if self.max_initial_pairs is not None and self.max_initial_pairs < 1:
            raise ValueError("max_initial_pairs must be positive or None")
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

    base = _initial_groups(design, cps, cache)
    best_groups: list[_Group] | None = None
    best_cost: float | None = None
    states = 0
    feasible = 0

    def score(groups: Collection[_Group]) -> None:
        """Keep a state that fits the budget if it is the best so far."""
        nonlocal best_groups, best_cost, feasible
        feasible += 1
        cost = _total_cost(groups, policy)
        if best_cost is None or cost < best_cost or (
            cost == best_cost
            and best_groups is not None
            and len(groups) < len(best_groups)
        ):
            best_cost = cost
            best_groups = list(groups)

    def consider(groups: Collection[_Group]) -> None:
        """Count one explored state and score it if it fits."""
        nonlocal states
        states += 1
        if _fits(groups, cap):
            score(groups)

    consider(base)

    # Every compatible pair's (cost delta, footprint saved), peeked: no
    # pair enters the merge cache before a reference rescan would put it
    # there.  Restarts start from the pairs in delta order, so capped
    # runs try the most promising seeds first; ties keep the pair order.
    compatible_pairs = [
        (i, j)
        for i, j in itertools.combinations(range(len(base)), 2)
        if _mergeable(base[i], base[j])
    ]
    strict = policy is TransitionPolicy.STRICT
    gains = [
        _peek_gain(cache, base[i], base[j], strict)
        for i, j in compatible_pairs
    ]
    deltas = [delta for delta, _ in gains]
    initial_pairs = [pair for _, pair in sorted(zip(deltas, compatible_pairs))]
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
        seen_states: set[frozenset[int]] = set()
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
            gains,
            initial_pairs,
            cap,
            options,
            score,
            cache,
            heap_stats,
            progress,
        )
        # Each restart explores its start state and one state per step.
        states += len(initial_pairs) + descent_steps

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
    base_gains: list[tuple[float, int]],
    initial_pairs: list[tuple[int, int]],
    capacity: Vec,
    options: AllocationOptions,
    score: Callable[[Collection[_Group]], None],
    cache: _MergeCache,
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

    Every compatible base pair (``base_pairs``, with their peeked
    ``base_gains``; ``initial_pairs`` is the ordered, possibly capped
    subset that starts a restart) is keyed once per candidate set and
    mode, lazily, into a sorted list beside one position mask per base
    slot (bit ``p`` set when entry ``p`` names the slot).  A restart
    ``(i, j)`` walks that list next to its own heap, which holds the
    pairs of each newly merged group (slot ``n`` first); the next
    candidate is the smaller head of the two.  The restart's ``live``
    mask holds the list positions neither taken nor naming a
    merged-away base slot (clearing ``i``'s and ``j``'s entries at the
    start, and a base slot's entries when it merges), so the next base
    candidate is its lowest set bit and the skipped distance is counted
    as stale.  Heap entries naming a dead slot are dropped when reached.

    The rest of the bookkeeping is ints over base slots too.  Each slot
    has a member mask, a compatibility mask (the AND of its members'
    base compatibility masks: two groups may merge iff one's members
    all lie inside the other's mask) and a *root*, its lowest member.
    ``owner`` maps each live root to its live slot, and ``live_roots``
    masks them, so a newly merged group keys only the live groups whose
    root lies inside its compatibility mask and whose members do.  A
    state is coded by :func:`_state_code` (digit ``s`` holds the root of
    slot ``s``'s group); :func:`_merged_code` updates it with one
    multiply-add per merge, and the code is canonical, so the seen-state
    set holds ints.  Only the states that fit are passed to ``score``;
    the caller counts the rest (one per restart and step).  Returns the
    number of descent steps.

    Pair *materialisation* is deliberately kept congruent with the
    reference scan: the entries for a state are only built after that
    state passes the seen-state gate -- exactly when the
    reference engine would rescan it -- and each one materialises its
    merged group in the shared cache.  Base pairs are the exception,
    since their gains were peeked: a pending list holds the ones not yet
    materialised, and each gated restart ``(i, j)`` materialises the
    pending pairs touching neither ``i`` nor ``j`` -- exactly the base
    pairs the reference rescan of its start state evaluates.  So every
    pair a descent takes is already in the cache under its member mask,
    and searches later in a ``partition()`` run, which read values out
    of that cache, see the contents the reference engine leaves; that
    is part of the bit-identical contract.
    """
    strict = options.policy is TransitionPolicy.STRICT
    cap_c, cap_b, cap_d = capacity
    n = len(base)
    base_c = base_b = base_d = 0
    for g in base:
        fc, fb, fd = g.footprint
        base_c += fc
        base_b += fb
        base_d += fd
    merge = cache.merge
    cached = cache._cache
    merged_code = _merged_code

    def rebuild(items: list[tuple[int, _Group]]) -> list:
        """Cost-first entries of every compatible live pair, sorted."""
        entries = []
        m = len(items)
        for x in range(m):
            sx, lo = items[x]
            lo_cost = lo.cost_strict if strict else lo.cost_lenient
            lo_fp = lo.footprint
            for y in range(x + 1, m):
                sy, hi = items[y]
                if lo.usage & hi.usage:
                    continue
                merged = merge(lo, hi)
                hi_fp, fp = hi.footprint, merged.footprint
                if strict:
                    delta = merged.cost_strict - lo_cost - hi.cost_strict
                else:
                    delta = merged.cost_lenient - lo_cost - hi.cost_lenient
                saved = (
                    (lo_fp[0] + hi_fp[0] - fp[0])
                    + (lo_fp[1] + hi_fp[1] - fp[1])
                    + (lo_fp[2] + hi_fp[2] - fp[2])
                )
                entries.append((delta, -saved, sx, sy))
        entries.sort()
        return entries

    # One sorted list of base-pair entries per mode, with the position
    # mask of each base slot and the mask of every position, shared by
    # every restart of this candidate set and built on first use.
    base_lists: list[tuple[list, list[int], int] | None] = [None, None]

    def base_list(mode_fits: bool) -> tuple[list, list[int], int]:
        got = base_lists[mode_fits]
        if got is None:
            entries = sorted(
                (delta, -saved, x, y) if mode_fits else (-saved, delta, x, y)
                for (x, y), (delta, saved) in zip(base_pairs, base_gains)
            )
            positions = [0] * n
            for p, entry in enumerate(entries):
                positions[entry[2]] |= 1 << p
                positions[entry[3]] |= 1 << p
            got = base_lists[mode_fits] = (
                entries, positions, (1 << len(entries)) - 1
            )
        return got

    # Per-slot int bookkeeping over base slots.  A merged slot's entries
    # are written when it is created, so one set of lists serves every
    # restart; a descent creates at most n - 1 merged slots.
    width = n.bit_length()
    members = [1 << s for s in range(n)] + [0] * n
    compat = [0] * (2 * n)
    for x, y in base_pairs:
        compat[x] |= 1 << y
        compat[y] |= 1 << x
    roots = list(range(n)) + [0] * n
    base_owner = list(range(n))
    all_roots = (1 << n) - 1
    spreads = [1 << (width * s) for s in range(n)] + [0] * n
    base_code = _state_code(range(n), width)
    seen_states: set[int] = set()

    # Base pairs not yet materialised in the merge cache.
    pending = base_pairs
    base_slots = dict(enumerate(base))

    total_steps = 0
    pushes = pops = stale_drops = rebuilds = 0
    push = heapq.heappush
    pop = heapq.heappop

    for restart, (i, j) in enumerate(initial_pairs):
        gi, gj = base[i], base[j]
        grown = merge(gi, gj)
        alive: dict[int, _Group] = base_slots.copy()
        del alive[i]
        del alive[j]
        slot = n
        alive[slot] = grown

        fi, fj, fm = gi.footprint, gj.footprint, grown.footprint
        run_c = base_c - fi[0] - fj[0] + fm[0]
        run_b = base_b - fi[1] - fj[1] + fm[1]
        run_d = base_d - fi[2] - fj[2] + fm[2]
        fits_now = run_c <= cap_c and run_b <= cap_b and run_d <= cap_d
        if fits_now:
            score(alive.values())

        steps = 0
        code = merged_code(base_code, i, spreads[i], j, spreads[j])
        if len(alive) > 1 and code not in seen_states:
            seen_states.add(code)
            if pending:
                keep = []
                for pair in pending:
                    x, y = pair
                    if x == i or x == j or y == i or y == j:
                        keep.append(pair)
                    else:
                        merge(base[x], base[y])
                pending = keep
            owner = base_owner.copy()
            owner[i] = slot
            live_roots = all_roots ^ (1 << j)
            members[slot] = (1 << i) | (1 << j)
            compat[slot] = compat[i] & compat[j]
            roots[slot] = i
            spreads[slot] = spreads[i] + spreads[j]
            mode = fits_now
            blist, positions, live = base_list(mode)
            live &= ~(positions[i] | positions[j])
            bpos, blen = 0, len(blist)
            pushes += blen
            heap: list = []

            while True:
                if grown is not None:
                    # Key the pairs of the newly merged group, which holds
                    # the highest live slot, with each live group whose
                    # members all lie inside its compatibility mask; a
                    # group whose root lies outside cannot.  Same operand
                    # order as the reference scan: (merged - lower) - upper.
                    gk = grown.key
                    gf = grown.footprint
                    g_cost = grown.cost_strict if strict else grown.cost_lenient
                    inside = compat[slot]
                    outside = ~inside
                    rest = inside & live_roots
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        s = owner[low.bit_length() - 1]
                        if members[s] & outside:
                            continue
                        g = alive[s]
                        merged = cached.get(g.key | gk)
                        if merged is None:
                            merged = merge(g, grown)
                        fp, mf = g.footprint, merged.footprint
                        if strict:
                            delta = merged.cost_strict - g.cost_strict - g_cost
                        else:
                            delta = merged.cost_lenient - g.cost_lenient - g_cost
                        saved = (
                            (fp[0] + gf[0] - mf[0])
                            + (fp[1] + gf[1] - mf[1])
                            + (fp[2] + gf[2] - mf[2])
                        )
                        push(
                            heap,
                            (delta, -saved, s, slot)
                            if mode
                            else (-saved, delta, s, slot),
                        )
                        pushes += 1

                # The next candidate is the smaller head of the shared
                # base list and this restart's heap.
                while True:
                    if live:
                        low = live & -live
                        p = low.bit_length() - 1
                        stale_drops += p - bpos
                        bpos = p
                        entry = blist[p]
                        if not heap or entry < heap[0]:
                            bpos += 1
                            live ^= low
                            break
                        entry = pop(heap)
                    else:
                        # Every base entry left names a dead slot.
                        stale_drops += blen - bpos
                        bpos = blen
                        if not heap:
                            entry = None
                            break
                        entry = pop(heap)
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
                grown = cached[ga.key | gb.key]
                if slot_hi < n:
                    live &= ~(positions[slot_lo] | positions[slot_hi])
                elif slot_lo < n:
                    live &= ~positions[slot_lo]
                slot += 1
                alive[slot] = grown
                fa, fb, fm = ga.footprint, gb.footprint, grown.footprint
                run_c += fm[0] - fa[0] - fb[0]
                run_b += fm[1] - fa[1] - fb[1]
                run_d += fm[2] - fa[2] - fb[2]
                fits_now = run_c <= cap_c and run_b <= cap_b and run_d <= cap_d
                if fits_now:
                    score(alive.values())
                steps += 1
                if len(alive) <= 1:
                    break
                root, gone = roots[slot_lo], roots[slot_hi]
                code = merged_code(
                    code, root, spreads[slot_lo], gone, spreads[slot_hi]
                )
                if code in seen_states:
                    break
                seen_states.add(code)
                if gone < root:
                    root, gone = gone, root
                roots[slot] = root
                owner[root] = slot
                live_roots ^= 1 << gone
                spreads[slot] = spreads[slot_lo] + spreads[slot_hi]
                compat[slot] = compat[slot_lo] & compat[slot_hi]
                members[slot] = members[slot_lo] | members[slot_hi]
                if fits_now and not mode:
                    # The arrangement started fitting: re-key every live
                    # pair from footprint-first to cost-first.  Footprint
                    # sums are non-increasing under merging, so this
                    # happens at most once per descent.
                    mode = True
                    heap = rebuild(list(alive.items()))
                    live = 0
                    blen = bpos
                    rebuilds += 1
                    pushes += len(heap)
                    grown = None
                # else fits_now never reverts, so mode == fits_now and the
                # new group's pairs are keyed at the top of the loop.

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
    seen_states: set[frozenset[int]],
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
        state = frozenset(g.key for g in groups)
        if state in seen_states:
            return steps
        seen_states.add(state)

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
    ordered = sorted(groups, key=lambda g: sorted(p.label for p in g.members))
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
