"""The replay policy matrix: managers, predictors, bitstream eviction.

A :class:`PolicySpec` names one runtime serving policy as pure data, so
it can live inside job payloads and cache keys:

* ``manager`` -- ``plain`` (the paper's configuration manager, Sec.
  III-A) or ``prefetch`` (speculative preloading of idle regions,
  :mod:`repro.runtime.prefetch`);
* ``predictor`` -- ``none``, ``markov`` (argmax of the environment's
  true transition matrix) or ``oracle`` (one-step lookahead into the
  trace, the upper bound on what any predictor can hide);
* ``eviction`` -- ``none`` (all partial bitstreams resident in fast
  memory, the paper's deployment assumption), or a finite
  :class:`BitstreamStore` in front of slow backing storage with
  ``lru`` / ``static`` (pinned by expected use) / ``activity``
  (least-used evicted first) replacement, after the reconfigurable-
  region management policies of arXiv 1803.03331;
* ``icap`` / ``slow_icap`` -- the fast-path and miss-path controller
  models (:data:`repro.runtime.icap.PRESETS` names);
* ``dwell_s`` -- the per-event slot budget: a switch whose latency
  exceeds it is a *stall*, and utilisation is reconfiguration time over
  the trace's total slot time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..core.result import PartitioningScheme
from ..runtime.icap import PRESETS, IcapModel

#: Manager / predictor / eviction vocabularies.
MANAGERS = ("plain", "prefetch")
PREDICTORS = ("none", "markov", "oracle")
EVICTION_POLICIES = ("none", "lru", "static", "activity")


class PolicyError(ValueError):
    """Raised for malformed policy specifications."""


@dataclass(frozen=True)
class PolicySpec:
    """One serving policy as canonical, hashable data."""

    name: str
    manager: str = "plain"
    predictor: str = "none"
    eviction: str = "none"
    store_capacity_frames: int | None = None
    icap: str = "custom-dma"
    slow_icap: str = "flash"
    dwell_s: float = 0.01

    def __post_init__(self) -> None:
        if not self.name:
            raise PolicyError("a policy needs a name")
        if self.manager not in MANAGERS:
            raise PolicyError(f"unknown manager {self.manager!r}")
        if self.predictor not in PREDICTORS:
            raise PolicyError(f"unknown predictor {self.predictor!r}")
        if self.eviction not in EVICTION_POLICIES:
            raise PolicyError(f"unknown eviction policy {self.eviction!r}")
        if self.manager == "plain" and self.predictor != "none":
            raise PolicyError("a plain manager cannot use a predictor")
        if self.manager == "prefetch" and self.predictor == "none":
            raise PolicyError("a prefetching manager needs a predictor")
        if self.manager == "prefetch" and self.eviction != "none":
            raise PolicyError(
                "prefetching assumes resident bitstreams; combine an "
                "eviction policy with the plain manager instead"
            )
        if self.icap not in PRESETS:
            raise PolicyError(f"unknown ICAP preset {self.icap!r}")
        if self.slow_icap not in PRESETS:
            raise PolicyError(f"unknown ICAP preset {self.slow_icap!r}")
        if self.store_capacity_frames is not None:
            if self.eviction == "none":
                raise PolicyError(
                    "store capacity only applies with an eviction policy"
                )
            if self.store_capacity_frames < 1:
                raise PolicyError("store capacity must be positive")
        if self.dwell_s <= 0:
            raise PolicyError("dwell_s must be positive")

    @property
    def icap_model(self) -> IcapModel:
        return PRESETS[self.icap]

    @property
    def slow_icap_model(self) -> IcapModel:
        return PRESETS[self.slow_icap]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "manager": self.manager,
            "predictor": self.predictor,
            "eviction": self.eviction,
            "store_capacity_frames": self.store_capacity_frames,
            "icap": self.icap,
            "slow_icap": self.slow_icap,
            "dwell_s": self.dwell_s,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "PolicySpec":
        try:
            return cls(
                name=str(doc["name"]),
                manager=str(doc.get("manager", "plain")),
                predictor=str(doc.get("predictor", "none")),
                eviction=str(doc.get("eviction", "none")),
                store_capacity_frames=(
                    None
                    if doc.get("store_capacity_frames") is None
                    else int(doc["store_capacity_frames"])
                ),
                icap=str(doc.get("icap", "custom-dma")),
                slow_icap=str(doc.get("slow_icap", "flash")),
                dwell_s=float(doc.get("dwell_s", 0.01)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PolicyError(f"malformed policy spec: {exc}") from exc


#: Named preset policies for the CLI and sweeps.
POLICY_PRESETS: dict[str, PolicySpec] = {
    p.name: p
    for p in (
        PolicySpec(name="no-prefetch"),
        PolicySpec(name="prefetch-markov", manager="prefetch",
                   predictor="markov"),
        PolicySpec(name="prefetch-oracle", manager="prefetch",
                   predictor="oracle"),
        PolicySpec(name="evict-lru", eviction="lru"),
        PolicySpec(name="evict-static", eviction="static"),
        PolicySpec(name="evict-activity", eviction="activity"),
    )
}


def resolve_policy(policy: "PolicySpec | str | Mapping") -> PolicySpec:
    """A :class:`PolicySpec` from a preset name, spec dict or spec."""
    if isinstance(policy, PolicySpec):
        return policy
    if isinstance(policy, str):
        try:
            return POLICY_PRESETS[policy]
        except KeyError:
            raise PolicyError(
                f"unknown policy preset {policy!r}; "
                f"expected one of {sorted(POLICY_PRESETS)}"
            ) from None
    return PolicySpec.from_dict(policy)


def default_store_capacity(scheme: PartitioningScheme) -> int:
    """Derived bitstream-store capacity: half the total partial footprint.

    Small enough that eviction actually happens on multi-partition
    schemes, large enough that every single partial fits (the maximum
    per-region frame count is always admissible).
    """
    total = sum(r.frames * len(r.partitions) for r in scheme.regions)
    largest = max((r.frames for r in scheme.regions), default=1)
    return max(total // 2, largest, 1)


#: ``scheme._cost_cache`` slot prefix of the scheme's store layouts.
_LAYOUT_SLOT = "store_layout"


class StoreLayout:
    """What every :class:`BitstreamStore` over one scheme reads, built once.

    One layout per (scheme, fast/slow ICAP pair), cached on the
    scheme's ``_cost_cache`` next to the replay kernel's tables, so the
    stores of the many traces replayed over a scheme share one build:

    * ``bitstreams`` -- ``(region, label) -> (frames, fast_s, slow_s)``,
      each partial's frame span and its stream seconds through the fast
      and the slow controller (:class:`IcapModel` is a pure function of
      the frame count);
    * ``pin_order`` -- every bitstream by descending scheme activity
      count, then name: the order a ``static`` store pins from;
    * ``default_capacity`` -- :func:`default_store_capacity`.
    """

    __slots__ = ("bitstreams", "pin_order", "default_capacity")

    def __init__(
        self, scheme: PartitioningScheme, fast: IcapModel, slow: IcapModel
    ):
        self.bitstreams: dict[tuple[str, str], tuple[int, float, float]] = {}
        for region in scheme.regions:
            frames = region.frames
            entry = (
                frames, fast.time_for_frames(frames),
                slow.time_for_frames(frames),
            )
            for p in region.partitions:
                self.bitstreams[(region.name, p.label)] = entry
        use = dict.fromkeys(self.bitstreams, 0)
        for config in scheme.design.configurations:
            for region, label in zip(
                scheme.regions, scheme.activity(config.name)
            ):
                if label is not None:
                    use[(region.name, label)] += 1
        self.pin_order: tuple[tuple[str, str], ...] = tuple(
            sorted(use, key=lambda k: (-use[k], k))
        )
        self.default_capacity = default_store_capacity(scheme)


def store_layout(scheme: PartitioningScheme, policy: PolicySpec) -> StoreLayout:
    """The scheme's cached :class:`StoreLayout` for ``policy``'s ICAP pair."""
    slot = (_LAYOUT_SLOT, policy.icap, policy.slow_icap)
    layout = scheme._cost_cache.get(slot)
    if layout is None:
        layout = StoreLayout(
            scheme, policy.icap_model, policy.slow_icap_model
        )
        scheme._cost_cache[slot] = layout
    return layout


class BitstreamStore:
    """Finite fast bitstream memory in front of slow backing storage.

    The paper assumes every partial bitstream is resident in DDR behind
    the custom DMA controller; real deployments bound that memory.  The
    store models it: entries are (region, partition label) bitstreams
    costing their region's frame span.  A *hit* streams through the
    fast controller; a *miss* streams from the slow one (fetch path)
    and then becomes resident, evicting under the configured policy:

    * ``lru`` -- least recently used entry goes first;
    * ``static`` -- a fixed pinned set chosen up front by expected use
      (scheme activity counts); anything else always misses;
    * ``activity`` -- least-hit entry goes first (ties fall back to
      LRU order).

    Deterministic by construction: no clocks, no randomness -- ordering
    derives from insertion/hit sequence and sorted names only.  The
    scheme-derived tables come from the cached :class:`StoreLayout`, so
    constructing a store per replayed trace costs only its own state.
    """

    def __init__(
        self,
        scheme: PartitioningScheme,
        policy: PolicySpec,
        capacity_frames: int | None = None,
    ):
        if policy.eviction == "none":
            raise PolicyError("BitstreamStore needs an eviction policy")
        self.policy = policy.eviction
        layout = store_layout(scheme, policy)
        self.capacity = (
            capacity_frames
            if capacity_frames is not None
            else policy.store_capacity_frames
            if policy.store_capacity_frames is not None
            else layout.default_capacity
        )
        if self.capacity < 1:
            raise PolicyError("store capacity must be positive")
        self._bitstreams = layout.bitstreams
        #: Resident entries in LRU order (first = coldest).
        self._resident: dict[tuple[str, str], int] = {}
        self._hit_counts: dict[tuple[str, str], int] = {}
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._pinned: frozenset[tuple[str, str]] = frozenset()
        if self.policy == "static":
            self._pin_static(layout.pin_order)

    def _pin_static(self, order: Iterable[tuple[str, str]]) -> None:
        """Pin the most-used bitstreams (by scheme activity counts)."""
        pinned = []
        for key in order:
            frames = self._bitstreams[key][0]
            if self._used + frames > self.capacity:
                continue
            pinned.append(key)
            self._resident[key] = frames
            self._used += frames
        self._pinned = frozenset(pinned)

    @property
    def resident_keys(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._resident)

    def _evict_until(self, needed: int) -> None:
        while self._used + needed > self.capacity and self._resident:
            if self.policy == "activity":
                hits = self._hit_counts
                _, _, victim = min(
                    (hits.get(k, 0), i, k)
                    for i, k in enumerate(self._resident)
                )
            else:  # lru
                victim = next(iter(self._resident))
            self._used -= self._resident.pop(victim)
            self.evictions += 1

    def fetch(self, region_name: str, label: str) -> tuple[float, bool]:
        """Stream one bitstream; returns (seconds, was_resident).

        The caller charges the returned seconds as the rewrite latency
        of that region (replacing the flat fast-path estimate).
        """
        key = (region_name, label)
        try:
            frames, fast_s, slow_s = self._bitstreams[key]
        except KeyError:
            raise PolicyError(
                f"unknown bitstream {label!r} for region {region_name!r}"
            ) from None
        if key in self._resident:
            self.hits += 1
            self._hit_counts[key] = self._hit_counts.get(key, 0) + 1
            if self.policy != "static":
                # Refresh recency: move to the hot end.
                self._resident[key] = self._resident.pop(key)
            return fast_s, True
        self.misses += 1
        if self.policy != "static" and frames <= self.capacity:
            self._evict_until(frames)
            self._resident[key] = frames
            self._used += frames
        return slow_s, False

    def preload(self, region_name: str, label: str) -> None:
        """Make one bitstream resident without charging a fetch.

        Models the power-up state: the initial configuration's partials
        are already in fast memory.  Static stores ignore it -- their
        resident set is fixed at construction.
        """
        key = (region_name, label)
        entry = self._bitstreams.get(key)
        if entry is None:
            raise PolicyError(
                f"unknown bitstream {label!r} for region {region_name!r}"
            )
        frames = entry[0]
        if self.policy == "static" or key in self._resident:
            return
        if frames > self.capacity:
            return
        self._evict_until(frames)
        self._resident[key] = frames
        self._used += frames

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "capacity_frames": self.capacity,
            "resident_frames": self._used,
        }
