"""Replay fast paths: precomputed tables, an inlined scalar loop and a
vectorized event kernel.

:func:`repro.replay.engine.replay_trace` semantics are defined by the
manager-based reference loop (kept as ``engine="reference"``); this
module reimplements them two ways, both **bit-identical** to the
reference (same :class:`~repro.replay.engine.ReplayResult`, same
``replay_record`` bytes -- pinned by the differential gate in
tests/replay/test_kernel.py):

* :func:`run_scalar` -- the reference loop with everything loop-
  invariant hoisted into :class:`ReplayTables` (activity rows, per-
  region ICAP seconds, config-name ids) and the manager/prefetch state
  machines inlined, so one event costs a handful of dict/list
  operations instead of a ``TransitionRecord`` allocation plus an
  O(regions) ``next()`` scan per rewritten region; its bitstream
  store reads the scheme's cached
  :class:`~repro.replay.policies.StoreLayout`.  Covers *every*
  policy and preserves the engine's streaming contract (million-event
  traces never materialise).
* :func:`run_vector` -- the ``repro.core.kernels`` treatment of the
  event loop: the trace becomes an int id array, per-region loaded
  state is a ``maximum.accumulate`` forward fill, and rewrite masks /
  frame totals are array ops.  Eligible exactly when the per-event
  state is history-free: the plain manager with ``none`` or ``static``
  eviction (a static store never changes residency after construction).
  Stateful policies (prefetch predictors, lru/activity stores) fall
  back to :func:`run_scalar`.

Bit-identity hinges on float evaluation order, so the only accumulation
the vector path leaves in Python is the one the reference performs:
per-event latency sums run region-by-region in ascending region order
(one masked add per region column), and ``total_seconds`` plus the
latency histogram consume the per-event values strictly in event order
(:meth:`repro.obs.metrics.Histogram.observe_many`).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

import numpy as np

from ..core.kernels import NONE_ID
from ..core.result import PartitioningScheme
from ..runtime.manager import TraceError
from ..runtime.prefetch import markov_predictor
from .policies import BitstreamStore, PolicySpec

#: ``scheme._cost_cache`` slot holding the scheme's :class:`ReplayTables`.
_TABLES_SLOT = "replay_tables"


class ReplayTables:
    """Loop-invariant per-scheme data shared by every replay of a scheme.

    Cached on the scheme's ``_cost_cache`` (the :mod:`repro.core.cost`
    discipline), so a warm worker sweeping many traces and policies over
    one scheme builds these exactly once.
    """

    __slots__ = (
        "config_id", "activity", "act_ids", "region_names", "frames",
        "frames_arr", "_policy_slots",
    )

    def __init__(self, scheme: PartitioningScheme):
        names = [c.name for c in scheme.design.configurations]
        self.config_id: dict[str, int] = {n: i for i, n in enumerate(names)}
        #: Per-config activity rows (label strings, ``None`` = unused).
        self.activity: list[tuple[str | None, ...]] = [
            scheme.activity(n) for n in names
        ]
        self.region_names: tuple[str, ...] = tuple(
            r.name for r in scheme.regions
        )
        self.frames: list[int] = [r.frames for r in scheme.regions]
        self.frames_arr = np.asarray(self.frames, dtype=np.int64)
        # Integer-encoded activity (one codec per region column: labels
        # are only ever compared within a region).
        C, R = len(names), len(scheme.regions)
        self.act_ids = np.full((C, R), NONE_ID, dtype=np.int32)
        for r in range(R):
            codec: dict[str, int] = {}
            for c in range(C):
                label = self.activity[c][r]
                if label is not None:
                    self.act_ids[c, r] = codec.setdefault(label, len(codec))
        #: Per-policy derived arrays, keyed by the policy fields that
        #: matter (ICAP presets, eviction, capacity).
        self._policy_slots: dict[tuple, Any] = {}

    def seconds_for(self, policy: PolicySpec) -> tuple[list[float], np.ndarray]:
        """Fast-path per-region rewrite seconds under ``policy.icap``."""
        slot = ("secs", policy.icap)
        cached = self._policy_slots.get(slot)
        if cached is None:
            icap = policy.icap_model
            secs = [icap.time_for_frames(f) for f in self.frames]
            cached = (secs, np.asarray(secs, dtype=np.float64))
            self._policy_slots[slot] = cached
        return cached

    def static_store_arrays(
        self, scheme: PartitioningScheme, policy: PolicySpec
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """(resident[C,R], slow_secs[R], capacity, resident_frames) for a
        ``static`` store -- its residency never changes after pinning, so
        one boolean matrix answers every fetch."""
        slot = (
            "static", policy.icap, policy.slow_icap,
            policy.store_capacity_frames,
        )
        cached = self._policy_slots.get(slot)
        if cached is None:
            store = BitstreamStore(scheme, policy)
            pinned = store.resident_keys
            resident = np.zeros(self.act_ids.shape, dtype=bool)
            for c, row in enumerate(self.activity):
                for r, label in enumerate(row):
                    if label is not None:
                        resident[c, r] = (self.region_names[r], label) in pinned
            slow = policy.slow_icap_model
            slow_secs = np.asarray(
                [slow.time_for_frames(f) for f in self.frames],
                dtype=np.float64,
            )
            cached = (
                resident, slow_secs, store.capacity,
                store.stats()["resident_frames"],
            )
            self._policy_slots[slot] = cached
        return cached


def tables_for(scheme: PartitioningScheme) -> ReplayTables:
    """The scheme's cached :class:`ReplayTables` (built on first use)."""
    tables = scheme._cost_cache.get(_TABLES_SLOT)
    if tables is None:
        tables = ReplayTables(scheme)
        scheme._cost_cache[_TABLES_SLOT] = tables
    return tables


def vector_eligible(policy: PolicySpec) -> bool:
    """True when the per-event state machine is history-free."""
    return policy.manager == "plain" and policy.eviction in ("none", "static")


def encode_trace(
    tables: ReplayTables, trace: Iterable[str]
) -> np.ndarray:
    """The trace as a config-id array (raises the reference's
    :class:`TraceError` on unknown names)."""
    config_id = tables.config_id
    try:
        ids = [config_id[name] for name in trace]
    except KeyError as exc:
        raise TraceError(
            f"unknown configuration {exc.args[0]!r}"
        ) from None
    return np.asarray(ids, dtype=np.int64)


def run_vector(
    scheme: PartitioningScheme,
    tables: ReplayTables,
    ids: np.ndarray,
    policy: PolicySpec,
    result,
) -> None:
    """Fill ``result`` from an encoded trace with array ops.

    ``result`` is the engine's freshly constructed
    :class:`~repro.replay.engine.ReplayResult` (duck-typed here to keep
    the import graph acyclic).
    """
    E = int(ids.size)
    if E == 0:
        if policy.eviction == "static":
            # The reference constructs the store up front, so even an
            # empty replay reports its pinned residency.
            _res, _slow, capacity, resident_frames = (
                tables.static_store_arrays(scheme, policy)
            )
            result.store = {
                "hits": 0,
                "misses": 0,
                "evictions": 0,
                "capacity_frames": capacity,
                "resident_frames": resident_frames,
            }
        return
    A = tables.act_ids[ids]  # [E, R] required content per event
    R = A.shape[1]
    seen = A != NONE_ID
    # Forward-filled define index: last[e, r] = latest event <= e that
    # wrote region r; the content loaded *before* event e is the define
    # at last[e-1, r] (row -1 = nothing loaded yet).
    rows = np.where(seen, np.arange(E, dtype=np.int64)[:, None], -1)
    last = np.maximum.accumulate(rows, axis=0)
    prev_last = np.empty_like(last)
    prev_last[0] = -1
    prev_last[1:] = last[:-1]
    before = np.take_along_axis(A, np.clip(prev_last, 0, None), axis=0)
    loaded_before = np.where(prev_last >= 0, before, NONE_ID)
    rewrite = seen & (A != loaded_before)
    rewrite[0] = False  # the initial full configuration is uncharged

    result.events = E
    result.rewrites = int(rewrite.sum())
    result.total_frames = int((rewrite @ tables.frames_arr).sum())
    switch = np.empty(E, dtype=bool)
    switch[0] = False
    np.not_equal(ids[1:], ids[:-1], out=switch[1:])
    result.switches = int(switch.sum())

    # Per-event latency, accumulated region-by-region in ascending
    # region order -- the exact float-addition order of the reference's
    # per-event ``sum()`` over rewritten regions.
    latency = np.zeros(E, dtype=np.float64)
    fast_list, fast_secs = tables.seconds_for(policy)
    if policy.eviction == "static":
        resident, slow_secs, capacity, resident_frames = (
            tables.static_store_arrays(scheme, policy)
        )
        res = resident[ids]  # [E, R] fetch hits per event-region
        for r in range(R):
            mask = rewrite[:, r]
            if mask.any():
                latency[mask] += np.where(
                    res[mask, r], fast_secs[r], slow_secs[r]
                )
        hits = int((rewrite & res).sum())
        result.store = {
            "hits": hits,
            "misses": result.rewrites - hits,
            "evictions": 0,
            "capacity_frames": capacity,
            "resident_frames": resident_frames,
        }
    else:
        for r in range(R):
            mask = rewrite[:, r]
            if mask.any():
                latency[mask] += fast_list[r]

    result.stall_events = int((latency[1:] > policy.dwell_s).sum())
    # Exact sequential accumulation in event order (reference:
    # ``total_seconds += latency`` once per non-initial event).
    total = result.total_seconds
    for value in latency[1:].tolist():
        total += value
    result.total_seconds = total
    result.latency.observe_many(latency[switch].tolist())


def run_scalar(
    scheme: PartitioningScheme,
    tables: ReplayTables,
    trace: Iterable[str],
    policy: PolicySpec,
    matrix: Mapping[str, Mapping[str, float]] | None,
    result,
) -> None:
    """The reference loop with the manager state machines inlined.

    Streams ``trace`` lazily; every arithmetic step mirrors the
    reference implementation operation for operation (see the module
    docstring), so the filled ``result`` is bit-identical.
    """
    config_id = tables.config_id
    activity = tables.activity
    region_names = tables.region_names
    frames = tables.frames
    fast_secs, _ = tables.seconds_for(policy)
    R = len(region_names)
    dwell = policy.dwell_s
    observe = result.latency.observe

    store: BitstreamStore | None = None
    if policy.eviction != "none":
        store = BitstreamStore(scheme, policy)

    prefetching = policy.manager == "prefetch"
    oracle = policy.predictor == "oracle"
    predictions: dict[int, int | None] = {}
    predict_name = None
    if prefetching and not oracle:
        predict_name = markov_predictor(matrix or {})

    loaded: list[str | None] = [None] * R
    speculative: set[int] = set()
    prefetch_hits = prefetched_frames = prefetch_wasted = 0
    events = switches = rewrites = total_frames = stall_events = 0
    total_seconds = result.total_seconds
    prev = -1
    first = True

    it = iter(trace)
    try:
        current = next(it)
    except StopIteration:
        current = None
    while current is not None:
        upcoming = next(it, None)
        ci = config_id.get(current)
        if ci is None:
            raise TraceError(f"unknown configuration {current!r}")
        need = activity[ci]
        if first:
            for r in range(R):
                label = need[r]
                if label is not None:
                    loaded[r] = label
            if store is not None:
                for r in range(R):
                    label = need[r]
                    if label is not None:
                        store.preload(region_names[r], label)
            events += 1
            first = False
        else:
            latency = 0.0
            for r in range(R):
                label = need[r]
                if label is None:
                    continue
                if loaded[r] == label:
                    if prefetching and r in speculative:
                        prefetch_hits += 1
                        speculative.discard(r)
                    continue
                loaded[r] = label
                if prefetching:
                    speculative.discard(r)
                rewrites += 1
                total_frames += frames[r]
                if store is None:
                    latency += fast_secs[r]
                else:
                    seconds, _resident = store.fetch(region_names[r], label)
                    latency += seconds
            events += 1
            if ci != prev:
                switches += 1
                observe(latency)
            total_seconds += latency
            if latency > dwell:
                stall_events += 1
        if prefetching:
            # Speculation during the dwell that follows the event.
            gi: int | None
            if oracle:
                if upcoming is None:
                    gi = None
                else:
                    gi = config_id.get(upcoming)
                    if gi is None:
                        raise TraceError(
                            f"predictor returned unknown configuration "
                            f"{upcoming!r}"
                        )
            else:
                if ci in predictions:
                    gi = predictions[ci]
                else:
                    guess = predict_name(current)  # type: ignore[misc]
                    if guess is None:
                        gi = None
                    else:
                        gi = config_id.get(guess)
                        if gi is None:
                            raise TraceError(
                                f"predictor returned unknown configuration "
                                f"{guess!r}"
                            )
                    predictions[ci] = gi
            if gi is not None and gi != ci:
                guess_need = activity[gi]
                for r in range(R):
                    if need[r] is not None:
                        continue  # region busy serving the current config
                    then = guess_need[r]
                    if then is None or loaded[r] == then:
                        continue
                    if loaded[r] is not None and r in speculative:
                        prefetch_wasted += frames[r]
                    loaded[r] = then
                    speculative.add(r)
                    prefetched_frames += frames[r]
        prev = ci
        current = upcoming

    result.events = events
    result.switches = switches
    result.rewrites = rewrites
    result.total_frames = total_frames
    result.total_seconds = total_seconds
    result.stall_events = stall_events
    if prefetching:
        result.prefetch = {
            "hits": prefetch_hits,
            "prefetched_frames": prefetched_frames,
            "wasted_frames": prefetch_wasted,
        }
    if store is not None:
        result.store = store.stats()
