"""Micro-batched replay jobs: equivalence, segments, worker pools, counters."""

from __future__ import annotations

import json

import pytest

from repro.flow.xmlio import design_to_xml
from repro.obs import RecordingTracer
from repro.replay import (
    POLICY_PRESETS,
    ReplayResultStore,
    TraceSpec,
    WorkloadSuite,
    collect_policy_comparison,
    replay_batch_key,
    replay_probe_keys,
    replay_store_for,
    submit_replay_suite,
)
from repro.replay.store import SEGMENT_DIRNAME
from repro.service import JobStore, ResultCache, run_batch
from repro.service.jobs import Job

POLICIES = ["no-prefetch", "prefetch-oracle"]
SUITE = dict(designs=2, traces_per_design=2, length=24, seed=7)


def _sweep(tmp_path, label, batch_size, workers):
    """Submit + drain one suite; return (report, replay store, jobs)."""
    queue = JobStore(tmp_path / f"q-{label}")
    cache = ResultCache(tmp_path / f"c-{label}")
    jobs = submit_replay_suite(queue, WorkloadSuite(**SUITE), POLICIES,
                               batch_size=batch_size)
    report = run_batch(queue, cache, workers=workers)
    assert report.failed == 0
    return report, replay_store_for(cache), jobs


def _records(store):
    """Every record in the store as canonical JSON, keyed by record key."""
    return {
        key: json.dumps(store.get_record(key), sort_keys=True)
        for key in store.keys()
    }


class TestBatchedSweepEquivalence:
    """Batching and worker pools are pure throughput knobs: byte-identity."""

    @pytest.mark.parametrize("batch_size,workers", [(4, 2), (3, 1)])
    def test_batched_records_match_single(self, tmp_path, batch_size,
                                          workers):
        _, single_store, single_jobs = _sweep(tmp_path, "single", 1, 1)
        _, batch_store, batch_jobs = _sweep(
            tmp_path, f"b{batch_size}w{workers}", batch_size, workers)
        assert len(batch_jobs) < len(single_jobs)
        single = _records(single_store)
        batched = _records(batch_store)
        assert single and batched == single
        # PolicyComparison folds must agree too (Histogram has no __eq__,
        # so compare the canonical dict forms).
        one = collect_policy_comparison(single_store)
        two = collect_policy_comparison(batch_store)
        assert json.dumps(one.to_dict(), sort_keys=True) == \
            json.dumps(two.to_dict(), sort_keys=True)

    def test_batched_rerun_is_all_cache_hits(self, tmp_path):
        _, _, _ = _sweep(tmp_path, "warm", 4, 1)
        queue = JobStore(tmp_path / "q-warm2")
        cache = ResultCache(tmp_path / "c-warm")
        submit_replay_suite(queue, WorkloadSuite(**SUITE), POLICIES,
                            batch_size=4)
        report = run_batch(queue, cache, workers=1)
        assert report.computed == 0
        assert report.cache_hits == report.total == report.done

    def test_single_jobs_hit_segments_written_by_batches(self, tmp_path):
        # Member keys do not depend on the batch size: one-trace jobs
        # probe as hits against segments written by wider batches.
        _, _, _ = _sweep(tmp_path, "xl", 4, 1)
        queue = JobStore(tmp_path / "q-xl2")
        cache = ResultCache(tmp_path / "c-xl")
        submit_replay_suite(queue, WorkloadSuite(**SUITE), POLICIES,
                            batch_size=1)
        report = run_batch(queue, cache, workers=1)
        assert report.computed == 0 and report.failed == 0

    def test_partial_cache_only_computes_the_gap(self, tmp_path):
        small = dict(SUITE, traces_per_design=1)
        queue = JobStore(tmp_path / "q-gap1")
        cache = ResultCache(tmp_path / "c-gap")
        submit_replay_suite(queue, WorkloadSuite(**small), POLICIES,
                            batch_size=1)
        assert run_batch(queue, cache).failed == 0
        # The wider suite's batches cover new traces, so they recompute;
        # the covered cells stay byte-identical in the shared store.
        queue2 = JobStore(tmp_path / "q-gap2")
        submit_replay_suite(queue2, WorkloadSuite(**SUITE), POLICIES,
                            batch_size=4)
        report = run_batch(queue2, cache, workers=1)
        assert report.failed == 0
        assert len(replay_store_for(cache)) == 2 * 2 * 2


class TestReplayBatchJob:
    def _xml(self, tiny_design):
        return design_to_xml(tiny_design)

    def _doc(self, n=2):
        return {
            "traces": [
                TraceSpec(environment="bursty", length=12, seed=s).to_dict()
                for s in range(n)
            ],
            "policy": POLICY_PRESETS["no-prefetch"].to_dict(),
        }

    def test_valid_batch_job(self, tiny_design):
        job = Job(id="x", name="x", design_xml=self._xml(tiny_design),
                  kind="replay-batch", replay=self._doc())
        assert job.kind == "replay-batch"

    def test_batch_needs_traces_and_policy(self, tiny_design):
        xml = self._xml(tiny_design)
        with pytest.raises(ValueError):
            Job(id="x", name="x", design_xml=xml, kind="replay-batch")
        with pytest.raises(ValueError):
            Job(id="x", name="x", design_xml=xml, kind="replay-batch",
                replay={"traces": [], "policy": {}})
        with pytest.raises(ValueError):
            Job(id="x", name="x", design_xml=xml, kind="replay-batch",
                replay={"traces": "nope", "policy": {}})

    def test_probe_keys_cover_every_member(self, tiny_design):
        xml = self._xml(tiny_design)
        job = Job(id="x", name="x", design_xml=xml, kind="replay-batch",
                  replay=self._doc(3))
        key, members = replay_probe_keys(job, None)
        assert len(members) == 3 and len(set(members)) == 3
        assert key not in members
        # A batch of one shares its member key with wider batches.
        single = Job(id="y", name="y", design_xml=xml, kind="replay-batch",
                     replay=self._doc(1))
        skey, smembers = replay_probe_keys(single, None)
        assert skey not in smembers
        assert smembers == members[:1]

    def test_batch_key_is_order_sensitive(self):
        a = replay_batch_key("p" * 64, ["t1", "t2"], POLICY_PRESETS["no-prefetch"])
        b = replay_batch_key("p" * 64, ["t2", "t1"], POLICY_PRESETS["no-prefetch"])
        assert a != b and len(a) == 64


class TestSubmitBatched:
    def test_batches_group_traces_within_a_design(self, tmp_path):
        store = JobStore(tmp_path / "q")
        suite = WorkloadSuite(designs=2, traces_per_design=3, length=24)
        jobs = submit_replay_suite(store, suite, POLICIES, batch_size=2)
        # Per design and policy: ceil(3/2) = 2 jobs -> 2*2*2 = 8.
        assert len(jobs) == 8
        assert all(j.kind == "replay-batch" for j in jobs)
        sizes = sorted(len(j.replay["traces"]) for j in jobs)
        assert sizes == [1, 1, 1, 1, 2, 2, 2, 2]
        assert any("/batch0[2]/" in j.name for j in jobs)

    def test_batch_size_one_submits_batches_of_one(self, tmp_path):
        store = JobStore(tmp_path / "q")
        suite = WorkloadSuite(designs=1, traces_per_design=2, length=24)
        jobs = submit_replay_suite(store, suite, POLICIES, batch_size=1)
        assert all(j.kind == "replay-batch" for j in jobs)
        assert all(len(j.replay["traces"]) == 1 for j in jobs)
        assert [j.name.split("/", 1)[1] for j in jobs] == [
            f"batch{i}[1]/{policy}" for policy in POLICIES for i in (0, 1)
        ]

    def test_bad_batch_size_rejected(self, tmp_path):
        from repro.replay import ReplayError

        store = JobStore(tmp_path / "q")
        with pytest.raises(ReplayError):
            submit_replay_suite(store, WorkloadSuite(designs=1), POLICIES,
                                batch_size=0)

    def test_resubmission_dedupes_batches(self, tmp_path):
        store = JobStore(tmp_path / "q")
        suite = WorkloadSuite(designs=1, traces_per_design=4, length=24)
        submit_replay_suite(store, suite, ["no-prefetch"], batch_size=2)
        submit_replay_suite(store, suite, ["no-prefetch"], batch_size=2)
        assert store.counts()["pending"] == 2


class TestSegmentStore:
    KEYS = ["ab" + format(i, "062x") for i in range(4)]

    def _record(self, i):
        return {"events": 10 + i, "switches": i, "policy": "p",
                "total_seconds": 0.1 * i}

    def test_put_many_writes_one_segment(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        records = {k: self._record(i) for i, k in enumerate(self.KEYS)}
        path = store.put_many(records)
        assert path is not None and path.parent.name == SEGMENT_DIRNAME
        assert len(list(store.segment_paths())) == 1
        for i, key in enumerate(self.KEYS):
            assert store.get_record(key) == self._record(i)

    def test_put_many_empty_is_a_no_op(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        assert store.put_many({}) is None
        assert len(store) == 0

    def test_segment_bytes_are_deterministic(self, tmp_path):
        records = {k: self._record(i) for i, k in enumerate(self.KEYS)}
        pa = ReplayResultStore(tmp_path / "a").put_many(records)
        pb = ReplayResultStore(tmp_path / "b").put_many(records)
        assert pa.read_bytes() == pb.read_bytes()
        assert pa.name == pb.name  # content-addressed file name

    def test_probe_many_spans_segments_and_counts(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        store.put_many({self.KEYS[0]: self._record(0)})
        store.put_many({self.KEYS[1]: self._record(1)})
        missing = "cd" + "0" * 62
        present = store.probe_many(self.KEYS[:2] + [missing])
        assert present == set(self.KEYS[:2])
        assert store.hits == 2 and store.misses == 1

    def test_keys_len_contains_union_segments(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        store.put_many({self.KEYS[0]: self._record(0)})
        store.put_many({k: self._record(i)
                        for i, k in enumerate(self.KEYS[1:3], start=1)})
        assert set(store.keys()) == set(self.KEYS[:3])
        assert len(store) == 3
        assert self.KEYS[2] in store and self.KEYS[3] not in store

    def test_corrupt_segment_is_skipped(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        store.put_many({self.KEYS[0]: self._record(0)})
        (store.segment_dir() / "garbage.json").write_text("{not json",
                                                          encoding="utf-8")
        fresh = ReplayResultStore(tmp_path / "replay")
        assert set(fresh.keys()) == {self.KEYS[0]}

    def test_index_sees_segments_from_other_writers(self, tmp_path):
        a = ReplayResultStore(tmp_path / "replay")
        assert a.probe_many(self.KEYS[:1]) == set()
        b = ReplayResultStore(tmp_path / "replay")
        b.put_many({self.KEYS[0]: self._record(0)})
        # A fresh store (a worker re-opening the directory) sees it.
        c = ReplayResultStore(tmp_path / "replay")
        assert c.probe_many(self.KEYS[:1]) == {self.KEYS[0]}


class TestThroughputCounters:
    def test_batch_counters_flow_to_the_tracer(self, tmp_path):
        queue = JobStore(tmp_path / "q")
        cache = ResultCache(tmp_path / "cache")
        suite = WorkloadSuite(designs=1, traces_per_design=2, length=24,
                              seed=3)
        submit_replay_suite(queue, suite, POLICIES, batch_size=2)
        tracer = RecordingTracer()
        report = run_batch(queue, cache, workers=1, tracer=tracer)
        assert report.failed == 0
        counters = tracer.counters
        # One batch job per policy.
        assert counters.get("replay.batch_jobs") == 2
        # Only no-prefetch is vector-eligible (prefetch-oracle runs the
        # stateful scalar fallback): 2 traces x 24 events.
        assert counters.get("replay.vector_events", 0) == 2 * 24

    def test_phase1_keys_each_trace_spec_once(self, tmp_path, monkeypatch):
        import repro.replay.service as replay_service

        queue = JobStore(tmp_path / "q")
        cache = ResultCache(tmp_path / "cache")
        jobs = submit_replay_suite(queue, WorkloadSuite(**SUITE), POLICIES,
                                   batch_size=2)
        expected = {job.id: replay_probe_keys(job) for job in jobs}
        keyed = []
        real = replay_service.trace_key

        def counting(names, spec):
            keyed.append((names, spec))
            return real(names, spec)

        monkeypatch.setattr(replay_service, "trace_key", counting)
        report = run_batch(queue, cache, workers=1)
        assert report.failed == 0
        # Phase 1 keys each design's specs once across both policies;
        # the two workers of a design's policies key them again.
        specs = SUITE["designs"] * SUITE["traces_per_design"]
        assert len(keyed) == specs + len(POLICIES) * specs
        assert {job.id: queue.get(job.id).result_key for job in jobs} == {
            job_id: key for job_id, (key, _members) in expected.items()
        }

    def test_counters_render_in_the_obs_report(self, tmp_path, capsys):
        from repro.cli import main

        telemetry = tmp_path / "telemetry"
        rc = main([
            "replay", "sweep", "--queue", str(tmp_path / "q"),
            "--designs", "1", "--traces-per-design", "2",
            "--length", "24", "--policy", "no-prefetch",
            "--batch-size", "2", "--telemetry-dir", str(telemetry),
        ])
        assert rc == 0
        capsys.readouterr()
        assert main(["obs", "report", str(telemetry)]) == 0
        out = capsys.readouterr().out
        assert "replay.batch_jobs" in out
        assert "replay.vector_events" in out


def _fold_summary_oracle(summary, result):
    """The per-member fold batch jobs used to run: one summary dict,
    its histogram rebuilt from the dict for every member."""
    from repro.obs.metrics import Histogram

    member = {
        "policy": str(result.policy.get("name", "?")),
        "events": result.events,
        "switches": result.switches,
        "stall_events": result.stall_events,
        "total_seconds": result.total_seconds,
        "icap_utilisation": result.icap_utilisation,
        "latency": result.latency.to_dict(),
    }
    if summary is None:
        member["traces"] = 1
        return member
    summary["traces"] = int(summary.get("traces", 1)) + 1
    for name in ("events", "switches", "stall_events"):
        summary[name] += member[name]
    summary["total_seconds"] += member["total_seconds"]
    budget = summary["events"] * result.dwell_s
    summary["icap_utilisation"] = (
        summary["total_seconds"] / budget if budget > 0 else 0.0
    )
    merged = Histogram.from_dict(summary["latency"])
    merged.merge(result.latency)
    summary["latency"] = merged.to_dict()
    return summary


class TestBatchSummary:
    """The worker's live fold equals the per-member dict round trip."""

    @pytest.fixture(scope="class")
    def members(self):
        from repro.arch.resources import ResourceVector
        from repro.core.partitioner import partition
        from repro.eval.example_design import example_design
        from repro.replay import iter_trace, replay_trace
        from repro.replay.trace import config_names

        scheme = partition(example_design(), ResourceVector(520, 16, 16)).scheme
        names = config_names(scheme.design)
        # Empty, tiny and long traces; 700 events alone overflow the
        # 512-sample reservoir, and a dozen 150-event members together.
        lengths = [0, 1, 150, 700] + [150] * 10
        out = {}
        for policy in ("no-prefetch", "evict-lru", "prefetch-oracle"):
            out[policy] = [
                replay_trace(scheme, iter_trace(names, TraceSpec(
                    environment="uniform", length=n, seed=i)), policy)
                for i, n in enumerate(lengths)
            ]
        return out

    @pytest.mark.parametrize("policy",
                             ["no-prefetch", "evict-lru", "prefetch-oracle"])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 6, 14])
    def test_live_fold_matches_the_round_trip(self, members, policy, count):
        from repro.replay.service import _BatchSummary

        results = members[policy][:count]
        oracle = None
        for result in results:
            oracle = _fold_summary_oracle(oracle, result)
        fold = _BatchSummary(POLICY_PRESETS[policy])
        for result in results:
            fold.add(result)
        live = fold.to_dict()
        assert json.dumps(live) == json.dumps(oracle)
        if count == 14:
            # The fold really crossed the reservoir cap.
            assert live["latency"]["summary"]["stride"] > 1
            assert live["latency"]["summary"]["count"] > 512

    def test_worker_summary_folds_its_stored_records(self, tmp_path):
        from repro.replay import run_replay_batch_payload
        from repro.replay.engine import result_from_record
        from repro.service.pool import partition_problem_key

        queue = JobStore(tmp_path / "q")
        cache = ResultCache(tmp_path / "cache")
        suite = WorkloadSuite(designs=1, traces_per_design=6, length=160,
                              seed=5)
        job, = submit_replay_suite(queue, suite, ["prefetch-markov"],
                                   batch_size=6)
        outcome = run_replay_batch_payload({
            "job_id": job.id,
            "design_xml": job.design_xml,
            "device": job.device,
            "max_candidate_sets": job.max_candidate_sets,
            "kind": job.kind,
            "replay": job.replay,
            "cache_root": str(cache.root),
            "partition_key": partition_problem_key(job),
            "library": None,
            "collect_trace": False,
        })
        store = replay_store_for(cache)
        oracle = None
        for member in replay_probe_keys(job)[1]:
            oracle = _fold_summary_oracle(
                oracle, result_from_record(store.get_record(member)))
        assert json.dumps(outcome["replay"]) == json.dumps(oracle)
        assert outcome["replay"]["traces"] == 6
