"""The replay record store: segment round-trip, bytes, probe, corruption.

The v2 key-manifest layout is checked for integrity (every truncation
and byte flip misses on both read paths), for compatibility (a
committed version-1 segment still probes, loads and serves a warm
``run_batch``), and by a hypothesis property over stores mixing v1, v2,
damaged and misnamed segments.  ``REPRO_DIFF_DESIGNS`` scales the
property's example count (at least 50; the CI differential gate runs
it at 200).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.replay import (
    ReplayResultStore,
    WorkloadSuite,
    replay_record,
    replay_store_for,
    submit_replay_suite,
)
from repro.replay import store as store_mod
from repro.replay.engine import ReplayResult
from repro.service import JobStore, ResultCache, run_batch

KEY = "ab" + "0" * 62

#: The bytes a version-1 ``put_many`` wrote for the one replay-batch job
#: of ``V1_SUITE`` under ``no-prefetch``, under their digest name.
V1_SEGMENT = (Path(__file__).parent / "data"
              / "5330e1fd29e4764735e017f45ece84dbcf45f431946c33dcda1d28e54fae7f28.json")
V1_SUITE = dict(designs=1, traces_per_design=2, length=24, seed=3)

GATE_EXAMPLES = max(50, int(os.environ.get("REPRO_DIFF_DESIGNS", "12")))


def _result(policy="no-prefetch"):
    r = ReplayResult(policy={"name": policy})
    r.events = 10
    r.switches = 4
    r.total_seconds = 0.25
    for latency in (0.01, 0.02, 0.05, 0.17):
        r.latency.observe(latency)
    return r


class TestReplayResultStore:
    def test_round_trip(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        result = _result()
        store.put_many({KEY: replay_record(result)})
        again = store.get_result(KEY)
        assert again is not None
        assert replay_record(again) == replay_record(result)

    def test_bytes_are_deterministic(self, tmp_path):
        a = ReplayResultStore(tmp_path / "a")
        b = ReplayResultStore(tmp_path / "b")
        pa = a.put_many({KEY: replay_record(_result())})
        pb = b.put_many({KEY: replay_record(_result())})
        assert pa.read_bytes() == pb.read_bytes()

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        assert store.get_record(KEY) is None
        assert store.misses == 1 and store.hits == 0

    def test_probe(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        assert not store.probe(KEY)
        store.put_many({KEY: replay_record(_result())})
        assert store.probe(KEY)
        assert store.hits == 1 and store.misses == 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            "not json at all",
            json.dumps({"format": "wrong", "version": 1,
                        "records": {KEY: {}}}),
            json.dumps({"format": "repro-replay-segment", "version": 99,
                        "records": {KEY: {}}}),
            json.dumps({"format": "repro-replay-segment", "version": 1,
                        "records": None}),
            json.dumps({"format": "repro-replay-segment", "version": 1,
                        "records": {KEY: None}}),
        ],
    )
    def test_corrupt_entries_count_as_misses(self, tmp_path, corrupt):
        # Named by their own digest, so the content checks -- not the
        # validity rule's name check -- are what reject them.
        store = ReplayResultStore(tmp_path / "replay")
        _place(store, corrupt.encode("utf-8"))
        assert store.get_record(KEY) is None
        assert store.hits == 0 and store.misses == 1
        assert not store.probe(KEY)

    def test_keys_enumerates_stored_records(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        other = "cd" + "1" * 62
        store.put_many({KEY: replay_record(_result())})
        store.put_many({other: replay_record(_result("prefetch-oracle"))})
        assert sorted(store.keys()) == sorted([KEY, other])

    def test_per_key_files_are_not_read(self, tmp_path):
        # Caches written before replay records moved into segments hold
        # <root>/ab/<key>.json files; those keys miss and recompute.
        store = ReplayResultStore(tmp_path / "replay")
        legacy = store.root / KEY[:2] / f"{KEY}.json"
        legacy.parent.mkdir(parents=True)
        legacy.write_text(json.dumps({
            "format": "repro-replay-record", "version": 1, "key": KEY,
            "record": replay_record(_result()),
        }), encoding="utf-8")
        assert store.get_record(KEY) is None
        assert KEY not in store and len(store) == 0

    def test_get_record_returns_a_fresh_dict(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        store.put_many({KEY: replay_record(_result())})
        first = store.get_record(KEY)
        first["events"] = -1
        first.clear()
        again = store.get_record(KEY)
        assert again is not first
        assert again == replay_record(_result())


def _v1_bytes(records):
    """A segment as version 1 wrote it: one canonical document."""
    return (json.dumps(
        {"format": "repro-replay-segment", "records": records, "version": 1},
        sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _place(store, data, stem=None):
    """Write ``data`` as a segment, named by its digest unless ``stem``."""
    store.segment_dir().mkdir(parents=True, exist_ok=True)
    stem = stem or hashlib.sha256(data).hexdigest()
    path = store.segment_dir() / f"{stem}.json"
    path.write_bytes(data)
    return path


def _keys(i):
    return hashlib.sha256(f"key-{i}".encode()).hexdigest()


def _records(n, start=0):
    return {_keys(i): replay_record(_result(f"p{i}"))
            for i in range(start, start + n)}


class TestKeyManifestLayout:
    def test_v2_segment_is_manifest_then_records(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        records = _records(5)
        path = store.put_many(records)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == path.stem
        manifest, body, tail = path.read_text(encoding="utf-8").split("\n")
        assert tail == ""
        head = json.loads(manifest)
        assert head == {"format": "repro-replay-segment", "version": 2,
                        "keys": sorted(records)}
        assert json.loads(body) == [records[k] for k in sorted(records)]

    def test_v2_segment_holds_each_key_once(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        records = _records(7)
        text = store.put_many(records).read_text(encoding="utf-8")
        for key in records:
            assert text.count(key) == 1

    def test_record_bytes_match_the_v1_layout(self, tmp_path):
        # Each record is dumped canonically, exactly as inside a v1
        # document, so record bytes do not depend on the segment version.
        store = ReplayResultStore(tmp_path / "replay")
        records = _records(3)
        text = store.put_many(records).read_text(encoding="utf-8")
        v1 = _v1_bytes(records).decode("utf-8")
        for record in records.values():
            canonical = json.dumps(record, sort_keys=True,
                                   separators=(",", ":"))
            assert canonical in text and canonical in v1

    def test_key_queries_decode_no_record_body(self, tmp_path, monkeypatch):
        store = ReplayResultStore(tmp_path / "replay")
        for seg in range(4):
            store.put_many(_records(3, start=3 * seg))
        calls = []
        for name in ("_decode_body", "_v1_records"):
            real = getattr(store_mod, name)
            monkeypatch.setattr(
                store_mod, name,
                lambda *a, _real=real, _name=name: calls.append(_name)
                or _real(*a))
        fresh = ReplayResultStore(tmp_path / "replay")
        wanted = [_keys(i) for i in range(14)]
        assert fresh.probe_many(wanted) == set(wanted[:12])
        assert fresh.probe(_keys(0)) and _keys(11) in fresh
        assert len(fresh) == 12 and set(fresh.keys()) == set(wanted[:12])
        assert calls == []
        assert fresh.get_record(_keys(0)) is not None
        assert calls == ["_decode_body"] * 4

    def test_put_many_drops_the_key_cache(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        assert not store.probe(KEY) and len(store) == 0
        store.put_many({KEY: replay_record(_result())})
        assert store.probe(KEY) and len(store) == 1


class TestSegmentIntegrity:
    def _segment(self, tmp_path):
        store = ReplayResultStore(tmp_path / "src")
        path = store.put_many(_records(2))
        return path.stem, path.read_bytes()

    def _assert_all_miss(self, root, stem, data):
        shutil.rmtree(root, ignore_errors=True)
        store = ReplayResultStore(root)
        _place(store, data, stem)
        keys = [_keys(0), _keys(1)]
        assert store.probe_many(keys) == set()
        assert all(store.get_record(k) is None for k in keys)

    def test_every_truncation_misses(self, tmp_path):
        stem, data = self._segment(tmp_path)
        for end in range(len(data)):
            self._assert_all_miss(tmp_path / "t", stem, data[:end])

    def test_every_byte_flip_misses(self, tmp_path):
        stem, data = self._segment(tmp_path)
        for at in range(len(data)):
            flipped = data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]
            self._assert_all_miss(tmp_path / "f", stem, flipped)

    def test_misnamed_segment_is_skipped(self, tmp_path):
        stem, data = self._segment(tmp_path)
        self._assert_all_miss(tmp_path / "m", "0" * 64, data)


class TestVersion1Segments:
    def test_literal_is_named_by_its_digest(self):
        data = V1_SEGMENT.read_bytes()
        assert hashlib.sha256(data).hexdigest() == V1_SEGMENT.stem
        assert json.loads(data)["version"] == 1

    def test_v1_literal_probes_and_loads(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        _place(store, V1_SEGMENT.read_bytes())
        records = json.loads(V1_SEGMENT.read_bytes())["records"]
        assert len(records) == 2
        assert store.probe_many(list(records)) == set(records)
        for key, record in records.items():
            assert store.get_record(key) == record
        assert sorted(store.keys()) == sorted(records)

    def test_run_batch_phase1_serves_v1_segment(self, tmp_path):
        queue = JobStore(tmp_path / "q")
        cache = ResultCache(tmp_path / "cache")
        submit_replay_suite(queue, WorkloadSuite(**V1_SUITE),
                            ["no-prefetch"], batch_size=2)
        _place(replay_store_for(cache), V1_SEGMENT.read_bytes())
        report = run_batch(queue, cache, workers=1)
        assert report.total == 1
        assert report.cache_hits == report.done == 1
        assert report.computed == 0 and report.failed == 0


# -- the property: probe_many agrees with get_record on any store --------

_SEGMENT = st.tuples(
    st.sampled_from(["v1", "v2", "truncated", "flipped", "misnamed"]),
    st.lists(st.integers(0, 11), min_size=1, max_size=5, unique=True),
    st.integers(0, 10**6),
)


class TestProbeAgreesWithGet:
    @settings(max_examples=GATE_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(segments=st.lists(_SEGMENT, max_size=6))
    def test_probe_many_matches_get_record(self, segments):
        with tempfile.TemporaryDirectory() as tmp:
            writer = ReplayResultStore(Path(tmp) / "writer")
            store = ReplayResultStore(Path(tmp) / "replay")
            # path -> the keys it holds while valid; a damaged copy of a
            # batch lands on (and replaces) that batch's file.
            placed: dict[Path, set[str]] = {}
            for kind, ids, at in segments:
                records = {_keys(i): replay_record(_result(f"p{i}"))
                           for i in ids}
                if kind == "v1":
                    placed[_place(store, _v1_bytes(records))] = set(records)
                    continue
                data = writer.put_many(records).read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                at %= len(data)
                if kind == "v2":
                    placed[_place(store, data)] = set(records)
                elif kind == "truncated":
                    placed[_place(store, data[:at], digest)] = set()
                elif kind == "flipped":
                    flipped = (data[:at] + bytes([data[at] ^ 0xFF])
                               + data[at + 1:])
                    placed[_place(store, flipped, digest)] = set()
                else:
                    _place(store, data, hashlib.sha256(data + b"x").hexdigest())
            stored = set().union(*placed.values())
            universe = [_keys(i) for i in range(12)]
            fresh = ReplayResultStore(store.root)
            probed = fresh.probe_many(universe)
            assert probed == {k for k in universe
                              if fresh.get_record(k) is not None}
            assert probed == stored
            assert set(fresh.keys()) == stored and len(fresh) == len(stored)
