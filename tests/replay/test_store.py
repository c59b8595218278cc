"""The replay record store: segment round-trip, bytes, probe, corruption."""

from __future__ import annotations

import json

import pytest

from repro.replay import ReplayResultStore, replay_record
from repro.replay.engine import ReplayResult

KEY = "ab" + "0" * 62


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
        store = ReplayResultStore(tmp_path / "replay")
        store.segment_dir().mkdir(parents=True)
        (store.segment_dir() / "corrupt.json").write_text(
            corrupt, encoding="utf-8")
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
