"""run_batch: cache fast-path, worker pool, failure isolation, metrics."""

from __future__ import annotations

import pytest

from repro.obs import RecordingTracer
from repro.service import (
    BatchReport,
    JobStore,
    ResultCache,
    ServiceError,
    partition_problem_key,
    run_batch,
)
from repro.service.pool import execute_job_payload

from ..conftest import make_design


def simple_design(name: str, clb: int = 40):
    """A tiny feasible two-module design with a distinct footprint."""
    return make_design(
        {
            "A": {"A1": (clb, 0, 0), "A2": (clb + 160, 0, 0)},
            "B": {"B1": (220, 0, 0), "B2": (50, 0, 0)},
        },
        [("A1", "B1"), ("A2", "B2"), ("A1", "B2")],
        name=name,
    )


def infeasible_design(name: str = "huge"):
    """No library device fits 90k CLBs: every worker attempt raises."""
    return make_design({"A": {"A1": (90_000, 0, 0)}}, [("A1",)], name=name)


@pytest.fixture
def queue(tmp_path):
    return JobStore.open(tmp_path / "queue")


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestColdRun:
    def test_single_worker_computes_everything(self, queue, cache):
        for i in range(3):
            queue.submit_design(simple_design(f"d{i}", clb=40 + i), device="LX30")
        report = run_batch(queue, cache, workers=1)
        assert isinstance(report, BatchReport)
        assert report.total == 3
        assert report.done == 3
        assert report.computed == 3
        assert report.cache_hits == 0
        assert report.failed == 0
        assert queue.counts()["done"] == 3
        assert len(cache) == 3
        for job in queue.jobs():
            assert job.result_key in cache
            assert not job.cache_hit
            assert job.compute_s > 0

    def test_auto_device_jobs_run_selection(self, queue, cache):
        queue.submit_design(simple_design("auto"))  # no device named
        report = run_batch(queue, cache, workers=1)
        assert report.done == 1
        entry = cache.get(queue.jobs()[0].result_key)
        assert entry.device_name  # selection picked one

    def test_empty_queue_is_a_noop(self, queue, cache):
        report = run_batch(queue, cache)
        assert report.total == 0
        assert report.jobs_per_s == 0.0
        assert report.cache_hit_rate == 0.0

    def test_workers_must_be_positive(self, queue, cache):
        with pytest.raises(ServiceError):
            run_batch(queue, cache, workers=0)


class TestWarmRun:
    def test_second_run_serves_entirely_from_cache(self, tmp_path, cache):
        designs = [simple_design(f"d{i}", clb=40 + i) for i in range(3)]
        first = JobStore.open(tmp_path / "q1")
        for d in designs:
            first.submit_design(d, device="LX30")
        run_batch(first, cache, workers=1)

        second = JobStore.open(tmp_path / "q2")
        for d in designs:
            second.submit_design(d, device="LX30")
        report = run_batch(second, cache, workers=1)
        assert report.cache_hits == 3
        assert report.cache_hit_rate == 1.0
        assert report.computed == 0
        assert report.busy_s == 0.0  # no worker ever ran
        for job in second.jobs():
            assert job.state == "done"
            assert job.cache_hit
            assert job.attempts == 0  # completed without being claimed

    def test_warm_hit_survives_design_renaming(self, tmp_path, cache):
        base = simple_design("original")
        first = JobStore.open(tmp_path / "q1")
        first.submit_design(base, device="LX30")
        run_batch(first, cache, workers=1)

        renamed = simple_design("renamed")  # same structure, new label
        second = JobStore.open(tmp_path / "q2")
        second.submit_design(renamed, device="LX30")
        report = run_batch(second, cache, workers=1)
        assert report.cache_hits == 1

    def test_duplicate_job_is_served_from_the_cache_the_first_filled(
        self, queue, cache
    ):
        # Both copies miss in phase 1; the second reaches the worker
        # after the first has cached the result, and must not search.
        first = queue.submit_design(simple_design("x"), device="LX30")
        second = queue.submit_design(simple_design("x"), device="LX30",
                                     dedupe=False)
        tracer = RecordingTracer()
        report = run_batch(queue, cache, workers=1, tracer=tracer)
        assert report.done == 2 and report.cache_hits == 0
        (batch_span,) = tracer.trace().find("batch_run")
        spans = {span.attrs["job"]: span for span in batch_span.find("job")}
        assert [c.name for c in spans[first.id].children] == ["partition"]
        assert spans[second.id].children == []
        key = partition_problem_key(first)
        assert queue.get(second.id).result_key == key
        assert len(cache) == 1


class TestFailureIsolation:
    def test_worker_crash_lands_in_failed_without_poisoning_batch(
        self, queue, cache
    ):
        queue.submit_design(simple_design("ok-1"), device="LX30")
        bad = queue.submit_design(infeasible_design(), device="LX30")
        queue.submit_design(simple_design("ok-2", clb=45), device="LX30")

        report = run_batch(queue, cache, workers=2)
        assert report.done == 2
        assert report.failed == 1
        assert report.failed_ids == (bad.id,)

        failed = queue.get(bad.id)
        assert failed.state == "failed"
        assert failed.attempts == failed.max_attempts
        assert "InfeasibleError" in failed.error
        assert "Traceback" in failed.error  # full traceback recorded
        for job in queue.jobs():
            if job.id != bad.id:
                assert job.state == "done"

    def test_deterministic_failure_burns_retries_then_fails(self, queue, cache):
        job = queue.submit_design(infeasible_design(), device="LX30",
                                  max_attempts=3)
        report = run_batch(queue, cache, workers=1)
        assert report.failed == 1
        assert report.retries == 2  # attempts 1 and 2 re-queued
        assert queue.get(job.id).attempts == 3

    def test_unkeyable_job_fails_before_dispatch(self, queue, cache):
        bad = queue.submit(name="poison", design_xml="<not-a-design>")
        queue.submit_design(simple_design("ok"), device="LX30")
        report = run_batch(queue, cache, workers=1)
        assert report.failed == 1
        assert report.done == 1
        failed = queue.get(bad.id)
        assert failed.state == "failed"
        assert failed.attempts == failed.max_attempts  # terminal, no retry loop
        assert "Traceback" in failed.error


class TestPoolPath:
    def test_multiworker_results_match_single_worker(self, tmp_path):
        designs = [simple_design(f"d{i}", clb=40 + 2 * i) for i in range(4)]

        solo_q = JobStore.open(tmp_path / "q1")
        solo_c = ResultCache(tmp_path / "c1")
        for d in designs:
            solo_q.submit_design(d, device="LX30")
        solo = run_batch(solo_q, solo_c, workers=1)

        pool_q = JobStore.open(tmp_path / "q2")
        pool_c = ResultCache(tmp_path / "c2")
        for d in designs:
            pool_q.submit_design(d, device="LX30")
        pooled = run_batch(pool_q, pool_c, workers=2)

        assert pooled.done == solo.done == 4
        # same problems -> same keys -> identical cache contents
        assert sorted(pool_c.keys()) == sorted(solo_c.keys())
        by_name = lambda q: {j.name: j.result_key for j in q.jobs()}
        assert by_name(pool_q) == by_name(solo_q)


class TestPriorityDrain:
    def test_dispatch_follows_priority_then_round_robin(self, queue, cache):
        low = queue.submit_design(simple_design("low", clb=41), device="LX30",
                                  priority=0, submitter="alice")
        high = queue.submit_design(simple_design("high", clb=42), device="LX30",
                                   priority=5, submitter="bob")
        mid = queue.submit_design(simple_design("mid", clb=43), device="LX30",
                                  priority=1, submitter="alice")
        tracer = RecordingTracer()
        report = run_batch(queue, cache, workers=1, tracer=tracer)
        assert report.done == 3
        started = [e.payload["job"] for e in tracer.events
                   if e.name == "batch.job_started"]
        assert started == [high.id, mid.id, low.id]

    def test_two_submitters_interleave_in_dispatch(self, queue, cache):
        a = [queue.submit_design(simple_design(f"a{i}", clb=41 + i),
                                 device="LX30", submitter="alice")
             for i in range(2)]
        b = [queue.submit_design(simple_design(f"b{i}", clb=51 + i),
                                 device="LX30", submitter="bob")
             for i in range(2)]
        tracer = RecordingTracer()
        run_batch(queue, cache, workers=1, tracer=tracer)
        started = [e.payload["job"] for e in tracer.events
                   if e.name == "batch.job_started"]
        assert started == [a[0].id, b[0].id, a[1].id, b[1].id]


class TestMetricConsistency:
    def test_jobs_per_s_gauge_matches_report_definition(self, queue, cache):
        # One computed, one terminally failed: the gauge and the report
        # property must agree on what "jobs per second" means.
        queue.submit_design(simple_design("ok"), device="LX30")
        queue.submit_design(infeasible_design(), device="LX30")
        tracer = RecordingTracer()
        report = run_batch(queue, cache, workers=1, tracer=tracer)
        assert report.done + report.failed == report.total
        assert tracer.gauges["service.jobs_per_s"] == pytest.approx(
            report.jobs_per_s, rel=1e-3
        )

    def test_timeouts_default_to_zero(self, queue, cache):
        queue.submit_design(simple_design("ok"), device="LX30")
        report = run_batch(queue, cache)
        assert report.timeouts == 0
        assert report.to_dict()["timeouts"] == 0
        assert "timeouts" in report.to_dict()


class TestObservability:
    def test_tracer_sees_lifecycle_events_and_metrics(self, queue, cache):
        queue.submit_design(simple_design("ok"), device="LX30")
        queue.submit_design(infeasible_design(), device="LX30")
        tracer = RecordingTracer()
        report = run_batch(queue, cache, workers=1, tracer=tracer)

        names = [e.name for e in tracer.events]
        assert "batch.job_started" in names
        assert "batch.job_done" in names
        assert "batch.job_failed" in names
        assert "batch.job_retried" in names

        assert tracer.counters["service.cache_misses"] == 2
        assert tracer.counters["service.jobs_done"] == 1
        assert tracer.counters["service.jobs_failed"] == 1
        assert tracer.gauges["service.jobs_per_s"] > 0
        assert [s.name for s in tracer.spans].count("batch_run") == 1

        # warm rerun emits cached events
        rerun = JobStore.open(queue.directory.parent / "q2")
        rerun.submit_design(simple_design("ok"), device="LX30")
        tracer2 = RecordingTracer()
        run_batch(rerun, cache, workers=1, tracer=tracer2)
        assert [e.name for e in tracer2.events] == ["batch.job_cached"]
        assert tracer2.gauges["service.cache_hit_rate"] == 1.0
        assert report.worker_utilisation <= 1.0

    def test_report_to_dict_is_json_ready(self, queue, cache):
        import json

        queue.submit_design(simple_design("ok"), device="LX30")
        report = run_batch(queue, cache)
        doc = report.to_dict()
        json.dumps(doc)
        for field in ("jobs_per_s", "cache_hit_rate", "worker_utilisation",
                      "total", "done", "failed", "workers"):
            assert field in doc


class TestProblemKeys:
    def test_same_job_spec_same_key(self, queue):
        a = queue.submit_design(simple_design("x"), device="LX30")
        b = queue.submit_design(simple_design("y"), device="LX30",
                                dedupe=False)
        # different display names, same structure and device
        assert partition_problem_key(a) == partition_problem_key(b)

    def test_device_changes_key(self, queue):
        a = queue.submit_design(simple_design("x"), device="LX30")
        b = queue.submit_design(simple_design("x"), device="LX50T")
        assert partition_problem_key(a) != partition_problem_key(b)

    def test_auto_and_fixed_device_keys_differ(self, queue):
        a = queue.submit_design(simple_design("x"), device="LX30")
        b = queue.submit_design(simple_design("x"))
        assert partition_problem_key(a) != partition_problem_key(b)

    def test_candidate_cap_changes_key(self, queue):
        a = queue.submit_design(simple_design("x"), device="LX30")
        b = queue.submit_design(simple_design("x"), device="LX30",
                                max_candidate_sets=2)
        assert partition_problem_key(a) != partition_problem_key(b)


class TestWorkerEntryPoint:
    def test_payload_failure_is_returned_not_raised(self, tmp_path):
        outcome = execute_job_payload(
            {
                "job_id": "j1",
                "design_xml": "<broken",
                "device": None,
                "max_candidate_sets": None,
                "cache_root": str(tmp_path / "cache"),
                "partition_key": "a" * 64,
                "library": None,
            }
        )
        assert outcome["ok"] is False
        assert outcome["job_id"] == "j1"
        assert "Traceback" in outcome["error"]
        assert "DesignXMLError" in outcome["error"]
