"""Policy specs, presets and the finite bitstream store."""

from __future__ import annotations

import pytest

from repro.core.partitioner import partition
from repro.eval.casestudy import CASESTUDY_BUDGET
from repro.replay import (
    EVICTION_POLICIES,
    POLICY_PRESETS,
    BitstreamStore,
    PolicySpec,
    resolve_policy,
)
from repro.replay.policies import PolicyError, default_store_capacity


class TestPolicySpec:
    def test_presets_cover_the_matrix(self):
        assert set(POLICY_PRESETS) == {
            "no-prefetch", "prefetch-markov", "prefetch-oracle",
            "evict-lru", "evict-static", "evict-activity",
        }
        assert {p.eviction for p in POLICY_PRESETS.values()} == set(
            EVICTION_POLICIES
        )

    def test_round_trips_through_dict(self):
        for preset in POLICY_PRESETS.values():
            assert PolicySpec.from_dict(preset.to_dict()) == preset

    def test_resolve_accepts_spec_name_and_mapping(self):
        spec = POLICY_PRESETS["no-prefetch"]
        assert resolve_policy(spec) is spec
        assert resolve_policy("no-prefetch") == spec
        assert resolve_policy(spec.to_dict()) == spec

    def test_resolve_unknown_preset(self):
        with pytest.raises(PolicyError):
            resolve_policy("definitely-not-a-preset")

    def test_plain_manager_rejects_predictor(self):
        with pytest.raises(PolicyError):
            PolicySpec(name="x", manager="plain", predictor="markov")

    def test_prefetch_needs_predictor(self):
        with pytest.raises(PolicyError):
            PolicySpec(name="x", manager="prefetch", predictor="none")

    def test_prefetch_and_eviction_are_mutually_exclusive(self):
        with pytest.raises(PolicyError):
            PolicySpec(
                name="x", manager="prefetch", predictor="oracle",
                eviction="lru",
            )

    def test_unknown_vocabulary_entries(self):
        with pytest.raises(PolicyError):
            PolicySpec(name="x", manager="psychic")
        with pytest.raises(PolicyError):
            PolicySpec(name="x", eviction="fifo")
        with pytest.raises(PolicyError):
            PolicySpec(name="x", icap="warp-drive")

    def test_store_capacity_needs_eviction(self):
        with pytest.raises(PolicyError):
            PolicySpec(name="x", store_capacity_frames=10)
        with pytest.raises(PolicyError):
            PolicySpec(name="x", eviction="lru", store_capacity_frames=0)

    def test_dwell_must_be_positive(self):
        with pytest.raises(PolicyError):
            PolicySpec(name="x", dwell_s=0.0)

    def test_nameless_policy_rejected(self):
        with pytest.raises(PolicyError):
            PolicySpec(name="")


@pytest.fixture(scope="module")
def receiver_scheme():
    from repro.eval.casestudy import casestudy_design

    return partition(casestudy_design(), CASESTUDY_BUDGET).scheme


class TestBitstreamStore:
    def test_needs_an_eviction_policy(self, receiver_scheme):
        with pytest.raises(PolicyError):
            BitstreamStore(receiver_scheme, POLICY_PRESETS["no-prefetch"])

    def test_default_capacity_admits_every_partial(self, receiver_scheme):
        capacity = default_store_capacity(receiver_scheme)
        largest = max(r.frames for r in receiver_scheme.regions)
        assert capacity >= largest >= 1

    def test_miss_then_hit_lru(self, receiver_scheme):
        store = BitstreamStore(receiver_scheme, POLICY_PRESETS["evict-lru"])
        region = receiver_scheme.regions[0]
        label = region.partitions[0].label
        miss_s, resident = store.fetch(region.name, label)
        assert not resident
        hit_s, resident = store.fetch(region.name, label)
        assert resident
        # The miss streams through the slow controller.
        assert miss_s > hit_s > 0.0
        assert store.stats()["hits"] == 1 and store.stats()["misses"] == 1

    def test_lru_evicts_coldest_under_pressure(self, receiver_scheme):
        region = receiver_scheme.regions[0]
        labels = [p.label for p in region.partitions]
        assert len(labels) >= 2
        store = BitstreamStore(
            receiver_scheme, POLICY_PRESETS["evict-lru"],
            capacity_frames=region.frames,  # room for exactly one entry
        )
        store.fetch(region.name, labels[0])
        store.fetch(region.name, labels[1])  # evicts labels[0]
        assert store.evictions == 1
        _, resident = store.fetch(region.name, labels[0])
        assert not resident  # it was evicted

    def test_activity_keeps_the_hot_entry(self, receiver_scheme):
        region = receiver_scheme.regions[0]
        labels = [p.label for p in region.partitions]
        assert len(labels) >= 2
        store = BitstreamStore(
            receiver_scheme, POLICY_PRESETS["evict-activity"],
            capacity_frames=2 * region.frames,
        )
        store.fetch(region.name, labels[0])
        store.fetch(region.name, labels[0])  # labels[0] now hot
        store.fetch(region.name, labels[1])
        # A third entry forces an eviction; the hot entry must survive.
        other = next(
            (r, p.label)
            for r in receiver_scheme.regions
            for p in r.partitions
            if r.frames <= region.frames and (r.name, p.label) not in (
                (region.name, labels[0]), (region.name, labels[1]))
        )
        store.fetch(other[0].name, other[1])
        assert (region.name, labels[0]) in store.resident_keys

    def test_activity_ties_evict_the_coldest(self, receiver_scheme):
        region = receiver_scheme.regions[0]
        labels = [p.label for p in region.partitions]
        assert len(labels) >= 3
        store = BitstreamStore(
            receiver_scheme, POLICY_PRESETS["evict-activity"],
            capacity_frames=2 * region.frames,
        )
        for label in labels[:3]:
            store.fetch(region.name, label)  # no hits yet: all tie
        # The tie breaks on LRU order: labels[0] went, labels[1] stayed.
        assert store.resident_keys == (
            (region.name, labels[1]), (region.name, labels[2]))

    def test_static_pins_by_descending_use_then_name(self, receiver_scheme):
        scheme = receiver_scheme
        use = {(r.name, p.label): 0 for r in scheme.regions
               for p in r.partitions}
        for config in scheme.design.configurations:
            for region, label in zip(scheme.regions,
                                     scheme.activity(config.name)):
                if label is not None:
                    use[(region.name, label)] += 1
        frames = {(r.name, p.label): r.frames for r in scheme.regions
                  for p in r.partitions}
        store = BitstreamStore(scheme, POLICY_PRESETS["evict-static"])
        expected, used = [], 0
        for key in sorted(use, key=lambda k: (-use[k], k)):
            if used + frames[key] <= store.capacity:
                expected.append(key)
                used += frames[key]
        assert list(store.resident_keys) == expected
        assert len(expected) < len(use)  # the store cannot pin them all

    def test_static_pins_up_front_and_never_adapts(self, receiver_scheme):
        store = BitstreamStore(receiver_scheme, POLICY_PRESETS["evict-static"])
        pinned = store.resident_keys
        assert pinned  # activity-ranked pinning fills the store
        # Misses never become resident under static.
        victim = next(
            (r.name, p.label)
            for r in receiver_scheme.regions
            for p in r.partitions
            if (r.name, p.label) not in pinned
        )
        store.fetch(*victim)
        assert store.resident_keys == pinned
        assert store.misses == 1 and store.evictions == 0

    def test_preload_is_free_and_idempotent(self, receiver_scheme):
        store = BitstreamStore(receiver_scheme, POLICY_PRESETS["evict-lru"])
        region = receiver_scheme.regions[0]
        label = region.partitions[0].label
        store.preload(region.name, label)
        store.preload(region.name, label)
        assert store.misses == 0
        _, resident = store.fetch(region.name, label)
        assert resident

    def test_unknown_bitstream_rejected(self, receiver_scheme):
        store = BitstreamStore(receiver_scheme, POLICY_PRESETS["evict-lru"])
        with pytest.raises(PolicyError):
            store.fetch("no-such-region", "no-such-label")
        with pytest.raises(PolicyError):
            store.preload("no-such-region", "no-such-label")

    def test_oversized_entry_streams_without_becoming_resident(
        self, receiver_scheme
    ):
        region = max(receiver_scheme.regions, key=lambda r: r.frames)
        store = BitstreamStore(
            receiver_scheme, POLICY_PRESETS["evict-lru"],
            capacity_frames=max(region.frames - 1, 1),
        )
        label = region.partitions[0].label
        seconds, resident = store.fetch(region.name, label)
        assert seconds > 0 and not resident
        assert (region.name, label) not in store.resident_keys


class TestStoreLayout:
    """Every store over one (scheme, ICAP pair) shares one cached layout."""

    @staticmethod
    def _drive(store, scheme):
        # Every bitstream twice over, then the first region's partials
        # again: enough traffic to miss, hit and (lru/activity) evict.
        keys = [(r.name, p.label) for r in scheme.regions for p in r.partitions]
        keys = keys * 2 + keys[: len(scheme.regions[0].partitions)]
        return [store.fetch(*key) for key in keys], store.stats()

    @pytest.mark.parametrize("eviction", ["lru", "static", "activity"])
    def test_cached_layout_matches_a_fresh_build(
        self, receiver_scheme, monkeypatch, eviction
    ):
        from repro.core.result import Region
        from repro.replay.policies import store_layout

        largest = max(r.frames for r in receiver_scheme.regions)
        policy = PolicySpec(
            name="small", eviction=eviction,
            store_capacity_frames=2 * largest,
        )
        layout = store_layout(receiver_scheme, policy)
        assert store_layout(receiver_scheme, policy) is layout
        # A second store reads the cached layout: no frame span is
        # recomputed.
        with monkeypatch.context() as patch:
            patch.setattr(Region, "frames", property(
                lambda self: pytest.fail("Region.frames recomputed")))
            cached = BitstreamStore(receiver_scheme, policy)
        # A fresh scheme (empty cost cache) builds its layout anew.
        fresh_scheme = partition(
            receiver_scheme.design, CASESTUDY_BUDGET
        ).scheme
        fresh = BitstreamStore(fresh_scheme, policy)
        assert store_layout(fresh_scheme, policy) is not layout
        got, want = (
            self._drive(cached, receiver_scheme),
            self._drive(fresh, fresh_scheme),
        )
        assert got == want
        if eviction != "static":
            assert got[1]["evictions"] > 0

    def test_layout_is_per_icap_pair(self, receiver_scheme):
        from repro.replay.policies import store_layout

        flash = POLICY_PRESETS["evict-lru"]
        hwicap = PolicySpec(name="hwicap", eviction="lru",
                            slow_icap="vendor-hwicap")
        a, b = store_layout(receiver_scheme, flash), store_layout(
            receiver_scheme, hwicap)
        assert a is not b
        key = next(iter(a.bitstreams))
        assert a.bitstreams[key][:2] == b.bitstreams[key][:2]
        assert a.bitstreams[key][2] != b.bitstreams[key][2]
