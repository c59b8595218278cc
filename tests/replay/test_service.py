"""Replay jobs through the batch service: keys, digests, cache layers."""

from __future__ import annotations

import pytest

import json

from repro.flow.xmlio import design_to_xml
from repro.obs import RecordingTracer
from repro.replay import (
    POLICY_PRESETS,
    ReplayError,
    TraceSpec,
    WorkloadSuite,
    replay_probe_keys,
    replay_store_for,
    run_replay_batch_payload,
    submit_replay_suite,
)
from repro.service import JobStore, ResultCache, run_batch
from repro.service.jobs import Job, _spec_digest
from repro.service.pool import partition_problem_key


def payload_for(job, cache_root):
    """The worker payload run_batch builds for one job (test stand-in)."""
    return {
        "job_id": job.id,
        "design_xml": job.design_xml,
        "device": job.device,
        "max_candidate_sets": job.max_candidate_sets,
        "kind": job.kind,
        "replay": job.replay,
        "cache_root": str(cache_root),
        "partition_key": partition_problem_key(job),
        "library": None,
        "collect_trace": False,
    }


def _replay_doc(spec=None, policy="no-prefetch"):
    """A one-trace replay-batch spec."""
    spec = spec or TraceSpec(environment="bursty", length=40, seed=5)
    return {
        "traces": [spec.to_dict()],
        "policy": POLICY_PRESETS[policy].to_dict(),
    }


class TestJobKind:
    def test_default_kind_is_partition(self, tiny_design, tmp_path):
        store = JobStore(tmp_path / "q")
        job = store.submit(name="j", design_xml=design_to_xml(tiny_design))
        assert job.kind == "partition" and job.replay is None

    def test_unknown_kind_rejected(self, tiny_design):
        with pytest.raises(ValueError):
            Job(id="x", name="x", design_xml=design_to_xml(tiny_design),
                kind="teleport")

    def test_replay_job_needs_a_spec(self, tiny_design):
        xml = design_to_xml(tiny_design)
        with pytest.raises(ValueError):
            Job(id="x", name="x", design_xml=xml, kind="replay-batch")
        with pytest.raises(ValueError):
            Job(id="x", name="x", design_xml=xml, kind="replay-batch",
                replay={"traces": [{}]})
        # The single-trace kind is gone: a trace is a batch of one.
        with pytest.raises(ValueError):
            Job(id="x", name="x", design_xml=xml, kind="replay",
                replay={"trace": {}, "policy": {}})

    def test_partition_job_rejects_replay_spec(self, tiny_design):
        with pytest.raises(ValueError):
            Job(id="x", name="x", design_xml=design_to_xml(tiny_design),
                replay=_replay_doc())

    def test_partition_digest_is_unchanged_by_kind_field(self, tiny_design):
        # Back-compat: queues written before the kind field must dedupe
        # against fresh submissions, so the partition digest ignores it.
        xml = design_to_xml(tiny_design)
        legacy_payload = (
            '{"device": null, "sets": null, "xml": ' + json.dumps(xml) + "}"
        )
        import hashlib
        expected = hashlib.sha256(
            legacy_payload.encode("utf-8")
        ).hexdigest()[:16]
        assert _spec_digest(xml, None, None) == expected
        assert _spec_digest(xml, None, None, kind="partition") == expected

    def test_replay_digest_differs_per_policy(self, tiny_design):
        xml = design_to_xml(tiny_design)
        a = _spec_digest(xml, None, None, "replay-batch", _replay_doc())
        b = _spec_digest(xml, None, None, "replay-batch",
                         _replay_doc(policy="prefetch-oracle"))
        assert a != b != _spec_digest(xml, None, None)

    def test_payload_carries_kind_and_replay(self, tiny_design, tmp_path):
        store = JobStore(tmp_path / "q")
        job = store.submit(name="j", design_xml=design_to_xml(tiny_design),
                           kind="replay-batch", replay=_replay_doc())
        payload = payload_for(job, tmp_path / "cache")
        assert payload["kind"] == "replay-batch"
        assert payload["replay"] == job.replay

    def test_jobs_round_trip_through_the_log(self, tiny_design, tmp_path):
        store = JobStore(tmp_path / "q")
        store.submit(name="j", design_xml=design_to_xml(tiny_design),
                     kind="replay-batch", replay=_replay_doc())
        again = JobStore(tmp_path / "q").jobs()[0]
        assert again.kind == "replay-batch"
        assert again.replay == _replay_doc()


class TestReplayJobKey:
    def test_key_dispatch_and_sensitivity(self, tiny_design):
        xml = design_to_xml(tiny_design)
        job = Job(id="x", name="x", design_xml=xml, kind="replay-batch",
                  replay=_replay_doc())
        key, members = replay_probe_keys(job)
        assert len(key) == 64 and len(members) == 1
        partition_job = Job(id="y", name="y", design_xml=xml)
        assert key != partition_problem_key(partition_job)
        # The partition half is shared: the replay key only adds to it.
        assert partition_problem_key(job) == partition_problem_key(
            partition_job)
        other = Job(id="z", name="z", design_xml=xml, kind="replay-batch",
                    replay=_replay_doc(policy="prefetch-oracle"))
        assert key != replay_probe_keys(other)[0]

    def test_malformed_replay_spec_raises(self, tiny_design):
        job = Job(id="x", name="x", design_xml=design_to_xml(tiny_design),
                  kind="replay-batch", replay=_replay_doc())
        object.__setattr__(job, "replay", {"traces": [{}], "policy": {}})
        with pytest.raises((ReplayError, ValueError)):
            replay_probe_keys(job)


class TestRunReplayPayload:
    def test_fills_both_cache_layers(self, tiny_design, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        store = JobStore(tmp_path / "q")
        job = store.submit(name="j", design_xml=design_to_xml(tiny_design),
                           kind="replay-batch", replay=_replay_doc())
        outcome = run_replay_batch_payload(payload_for(job, cache.root))
        assert outcome["ok"]
        key, members = replay_probe_keys(job)
        assert outcome["key"] == key
        assert outcome["replay"]["policy"] == "no-prefetch"
        assert outcome["replay"]["events"] == 40
        # Layer 1: the partition result landed in the result cache.
        assert len(cache) == 1
        # Layer 2: every member record landed in the replay store.
        replay_store = replay_store_for(cache)
        assert all(replay_store.get_record(m) is not None for m in members)

    def test_partition_cache_reused_across_policies(self, tiny_design,
                                                    tmp_path):
        cache = ResultCache(tmp_path / "cache")
        store = JobStore(tmp_path / "q")
        xml = design_to_xml(tiny_design)
        for policy in ("no-prefetch", "prefetch-oracle"):
            job = store.submit(name=policy, design_xml=xml,
                               kind="replay-batch",
                               replay=_replay_doc(policy=policy))
            run_replay_batch_payload(payload_for(job, cache.root))
        # Two replay records, but the expensive search ran once.
        assert len(cache) == 1
        assert len(replay_store_for(cache)) == 2


class TestSubmitReplaySuite:
    def test_fans_out_the_full_cross_product(self, tmp_path):
        store = JobStore(tmp_path / "q")
        suite = WorkloadSuite(designs=2, traces_per_design=2, length=24,
                              seed=3)
        jobs = submit_replay_suite(
            store, suite, ["no-prefetch", "prefetch-oracle"]
        )
        assert len(jobs) == 2 * 2 * 2
        assert all(j.kind == "replay-batch" for j in jobs)
        assert all(len(j.replay["traces"]) == 1 for j in jobs)
        assert jobs[0].name.endswith("/batch0[1]/no-prefetch")

    def test_resubmission_dedupes(self, tmp_path):
        store = JobStore(tmp_path / "q")
        suite = WorkloadSuite(designs=1, traces_per_design=2, length=24)
        submit_replay_suite(store, suite, ["no-prefetch"])
        submit_replay_suite(store, suite, ["no-prefetch"])
        assert store.counts()["pending"] == 2

    def test_needs_a_policy(self, tmp_path):
        store = JobStore(tmp_path / "q")
        suite = WorkloadSuite(designs=1)
        with pytest.raises(ReplayError):
            submit_replay_suite(store, suite, [])


class TestBatchIntegration:
    def test_sweep_runs_and_reruns_from_cache(self, tmp_path):
        queue = JobStore(tmp_path / "q")
        cache = ResultCache(tmp_path / "cache")
        suite = WorkloadSuite(designs=2, traces_per_design=2, length=24,
                              seed=7)
        jobs = submit_replay_suite(
            queue, suite, ["no-prefetch", "prefetch-oracle", "evict-lru"]
        )
        assert len(jobs) == 12
        report = run_batch(queue, cache, workers=2)
        assert report.done == 12 and report.failed == 0
        assert report.cache_hits == 0
        store = replay_store_for(cache)
        assert len(store) == 12

        # A fresh queue holding the same suite completes from the
        # replay store without dispatching a single worker.
        queue2 = JobStore(tmp_path / "q2")
        submit_replay_suite(
            queue2, suite, ["no-prefetch", "prefetch-oracle", "evict-lru"]
        )
        report2 = run_batch(queue2, cache, workers=2)
        assert report2.done == 12
        assert report2.cache_hits == 12

    def test_every_run_partitions_into_its_own_fresh_cache(self, tmp_path):
        # Nothing is memoised per process: a second run of the same
        # suite in this process, on a fresh cache, searches again.
        suite = WorkloadSuite(designs=1, traces_per_design=1, length=24,
                              seed=7)
        for run in ("first", "second"):
            queue = JobStore(tmp_path / f"q-{run}")
            cache = ResultCache(tmp_path / f"cache-{run}")
            submit_replay_suite(queue, suite, ["no-prefetch"])
            tracer = RecordingTracer()
            report = run_batch(queue, cache, workers=1, tracer=tracer)
            assert report.done == 1 and report.computed == 1
            (job_span,) = tracer.trace().find("job")
            assert job_span.find("partition"), run
            assert len(cache) == 1

    def test_mixed_kind_batch(self, tiny_design, tmp_path):
        queue = JobStore(tmp_path / "q")
        cache = ResultCache(tmp_path / "cache")
        xml = design_to_xml(tiny_design)
        queue.submit(name="partition", design_xml=xml)
        queue.submit(name="replay", design_xml=xml, kind="replay-batch",
                     replay=_replay_doc())
        report = run_batch(queue, cache, workers=1)
        assert report.done == 2 and report.failed == 0
        assert len(cache) == 1
        assert len(replay_store_for(cache)) == 1


class TestLegacyReplayJobs:
    """Queue logs holding the retired single-trace ``replay`` kind."""

    def _legacy_queue(self, tmp_path, design, spec, policy="no-prefetch"):
        xml = design_to_xml(design)
        replay = {"trace": spec.to_dict(),
                  "policy": POLICY_PRESETS[policy].to_dict()}
        digest = _spec_digest(xml, None, None, "replay", replay)
        line = {
            "id": f"job-00000-{digest[:8]}", "name": "legacy",
            "design_xml": xml, "device": None, "max_candidate_sets": None,
            "kind": "replay", "replay": replay, "spec_digest": digest,
            "priority": 0, "submitter": "", "state": "pending",
            "attempts": 0, "max_attempts": 2, "error": None,
            "result_key": None, "cache_hit": False, "compute_s": None,
            "submitted_at": 0.0, "updated_at": 0.0,
        }
        queue = tmp_path / "legacy-q"
        queue.mkdir()
        (queue / "jobs.jsonl").write_text(
            json.dumps(line, sort_keys=True) + "\n", encoding="utf-8")
        return queue

    def test_legacy_job_drains_like_a_fresh_one_trace_sweep(self, tmp_path):
        suite = WorkloadSuite(designs=1, traces_per_design=1, length=24,
                              seed=3)
        design, spec = next(suite.iter_workloads())
        legacy = JobStore.open(self._legacy_queue(tmp_path, design, spec))
        (job,) = legacy.jobs()
        assert job.kind == "replay-batch"
        assert job.replay == _replay_doc(spec)
        legacy_cache = ResultCache(tmp_path / "legacy-cache")
        assert run_batch(legacy, legacy_cache).done == 1

        fresh = JobStore(tmp_path / "fresh-q")
        submit_replay_suite(fresh, suite, ["no-prefetch"])
        fresh_cache = ResultCache(tmp_path / "fresh-cache")
        assert run_batch(fresh, fresh_cache).done == 1

        def segments(cache):
            store = replay_store_for(cache)
            return [(p.name, p.read_bytes()) for p in store.segment_paths()]

        assert segments(legacy_cache)
        assert segments(legacy_cache) == segments(fresh_cache)

    def test_resubmitting_onto_a_legacy_queue_dedupes(self, tmp_path):
        suite = WorkloadSuite(designs=1, traces_per_design=1, length=24,
                              seed=3)
        design, spec = next(suite.iter_workloads())
        queue = self._legacy_queue(tmp_path, design, spec)
        store = JobStore(queue)
        submit_replay_suite(store, suite, ["no-prefetch"])
        assert len(store.jobs()) == 1
