"""ResultCache: layout, round-trip fidelity, corruption, atomicity."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.arch.resources import ResourceVector
from repro.core import partition, problem_key
from repro.eval.persistence import PersistenceError
from repro.service.cache import ENTRY_FORMAT, ENTRY_VERSION, ResultCache

CAPACITY = ResourceVector(500, 8, 8)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


@pytest.fixture
def computed(tiny_design):
    result = partition(tiny_design, CAPACITY)
    key = problem_key(tiny_design, CAPACITY)
    return key, result


class TestLayout:
    def test_paths_shard_on_first_two_hex_digits(self, cache):
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        assert path.parent.name == "ab"
        assert path.name == f"{key}.json"

    def test_short_key_rejected(self, cache):
        with pytest.raises(PersistenceError, match="too short"):
            cache.path_for("ab")

    def test_contains_len_keys(self, cache, computed):
        key, result = computed
        assert key not in cache
        assert len(cache) == 0
        cache.put(key, result)
        assert key in cache
        assert len(cache) == 1
        assert list(cache.keys()) == [key]


class TestRoundTrip:
    def test_hit_restores_a_complete_result(self, cache, computed, tiny_design):
        key, result = computed
        cache.put(key, result, device_name="LX30", compute_s=1.25)
        entry = cache.get(key)
        assert entry.key == key
        assert entry.device_name == "LX30"
        assert entry.compute_s == 1.25
        assert entry.total_frames == result.total_frames
        restored = entry.result
        assert restored.scheme.design.name == tiny_design.name
        assert len(restored.scheme.regions) == len(result.scheme.regions)
        assert [r.requirement for r in restored.scheme.regions] == [
            r.requirement for r in result.scheme.regions
        ]

    def test_miss_returns_none_and_counts(self, cache):
        assert cache.get("f" * 64) is None
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 0

    def test_hit_counter(self, cache, computed):
        key, result = computed
        cache.put(key, result)
        cache.get(key)
        cache.get(key)
        assert cache.stats() == {"hits": 2, "misses": 0, "entries": 1}

    def test_put_is_idempotent(self, cache, computed):
        key, result = computed
        first = cache.put(key, result)
        second = cache.put(key, result)
        assert first == second
        assert len(cache) == 1

    def test_clear_removes_everything(self, cache, computed):
        key, result = computed
        cache.put(key, result)
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get(key) is None


class TestEntryBytes:
    #: sha256 of the entry the cache wrote for ``computed`` (device
    #: "LX30", compute_s 1.25) before its layout code was shared with
    #: ArtifactStore.  Entries already on disk must keep hitting, so the
    #: bytes may only change together with ENTRY_VERSION.
    PINNED_KEY = (
        "a42c7f5b0a48a85158c4a7e725f9c67c5aade21c8107a28de840b4775d5b0a09"
    )
    PINNED_SHA256 = (
        "94f1734cc2bc684c82af8cd792036297ff2d7b6d1cccf719bb6e33fd96a26794"
    )

    def test_entry_bytes_are_pinned(self, cache, computed):
        key, result = computed
        assert key == self.PINNED_KEY
        data = cache.put(key, result, device_name="LX30",
                         compute_s=1.25).read_bytes()
        assert len(data) == 2386
        assert hashlib.sha256(data).hexdigest() == self.PINNED_SHA256
        entry = ResultCache(cache.root).lookup(key)
        assert entry is not None and entry.device_name == "LX30"


class TestProbe:
    def test_probe_hits_valid_entry(self, cache, computed):
        key, result = computed
        cache.put(key, result)
        assert cache.probe(key)
        assert cache.stats()["hits"] == 1

    def test_probe_misses_absent_entry(self, cache):
        assert not cache.probe("f" * 64)
        assert cache.stats()["misses"] == 1

    def test_probe_treats_corruption_as_miss(self, cache, computed):
        key, result = computed
        path = cache.put(key, result)
        path.write_text("{", encoding="utf-8")
        assert not cache.probe(key)

    def test_probe_rejects_wrong_envelope(self, cache):
        key = "a" * 64
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"format": ENTRY_FORMAT, "version": ENTRY_VERSION,
                        "key": "b" * 64}),
            encoding="utf-8",
        )
        assert not cache.probe(key)

    def test_probe_agrees_with_lookup_on_real_entries(self, cache, computed):
        key, result = computed
        cache.put(key, result)
        assert cache.probe(key) == (cache.lookup(key) is not None)


class TestCorruption:
    def write_doc(self, cache, key, doc):
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8"
        )

    def test_truncated_entry_raises_persistence_error(self, cache, computed):
        key, result = computed
        path = cache.put(key, result)
        path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")
        with pytest.raises(PersistenceError, match="corrupt cache entry"):
            cache.get(key)

    def test_lookup_treats_corruption_as_miss(self, cache, computed):
        key, result = computed
        path = cache.put(key, result)
        path.write_text("{", encoding="utf-8")
        assert cache.lookup(key) is None
        assert cache.stats()["misses"] >= 1

    def test_wrong_format_rejected(self, cache):
        key = "a" * 64
        self.write_doc(cache, key, {"format": "something-else"})
        with pytest.raises(PersistenceError, match="wrong format"):
            cache.get(key)

    def test_wrong_version_rejected(self, cache):
        key = "a" * 64
        self.write_doc(
            cache, key, {"format": ENTRY_FORMAT, "version": ENTRY_VERSION + 1}
        )
        with pytest.raises(PersistenceError, match="unsupported version"):
            cache.get(key)

    def test_key_mismatch_rejected(self, cache, computed):
        key, result = computed
        other = "b" * 64
        doc = json.loads(cache.put(key, result).read_text(encoding="utf-8"))
        self.write_doc(cache, other, doc)
        with pytest.raises(PersistenceError, match="claims key"):
            cache.get(other)

    def test_non_object_entry_rejected(self, cache):
        key = "a" * 64
        self.write_doc(cache, key, [1, 2, 3])
        with pytest.raises(PersistenceError):
            cache.get(key)

    def test_no_temp_files_left_behind(self, cache, computed):
        key, result = computed
        cache.put(key, result)
        leftovers = [p for p in cache.root.rglob("*.tmp")]
        assert leftovers == []
