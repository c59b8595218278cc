"""JobStore: lifecycle, persistence, crash recovery, corruption."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.service.jobs import (
    DEFAULT_MAX_ATTEMPTS,
    JOB_STATES,
    STATE_FIELDS,
    Job,
    JobStore,
    JobStoreError,
)

#: A queue log written by the store before transition records existed:
#: every line is a full job record.
FULL_RECORD_LOG = Path(__file__).parent / "data" / "jobs_full_records.jsonl"


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "queue")


def submit_one(store, name="j", xml="<x/>", **kwargs):
    return store.submit(name=name, design_xml=xml, **kwargs)


class TestSubmit:
    def test_submit_creates_pending_job(self, store):
        job = submit_one(store)
        assert job.state == "pending"
        assert job.attempts == 0
        assert job.max_attempts == DEFAULT_MAX_ATTEMPTS
        assert store.pending() == [job]

    def test_ids_are_unique_and_ordered(self, store):
        a = submit_one(store, xml="<a/>")
        b = submit_one(store, xml="<b/>")
        assert a.id != b.id
        assert [j.id for j in store.jobs()] == [a.id, b.id]

    def test_identical_specs_dedupe(self, store):
        a = submit_one(store)
        b = submit_one(store, name="other-label")
        assert a.id == b.id
        assert len(store.jobs()) == 1

    def test_dedupe_can_be_disabled(self, store):
        a = submit_one(store)
        b = submit_one(store, dedupe=False)
        assert a.id != b.id

    def test_failed_job_is_not_a_dedupe_target(self, store):
        a = submit_one(store, max_attempts=1)
        store.mark_running(a.id)
        assert store.mark_failed(a.id, "boom").state == "failed"
        b = submit_one(store)  # resubmit == retry with fresh attempts
        assert b.id != a.id
        assert b.state == "pending"
        assert b.attempts == 0
        assert store.get(a.id).state == "failed"  # history preserved

    def test_different_device_is_a_different_spec(self, store):
        a = submit_one(store)
        b = submit_one(store, device="LX30")
        assert a.id != b.id

    def test_submit_design_round_trips(self, store, tiny_design):
        job = store.submit_design(tiny_design, device="LX30")
        from repro.flow.xmlio import parse_design

        parsed = parse_design(job.design_xml)
        assert parsed.design.name == tiny_design.name
        assert job.device == "LX30"


class TestTransitions:
    def test_full_success_lifecycle(self, store):
        job = submit_one(store)
        job = store.mark_running(job.id)
        assert job.state == "running"
        assert job.attempts == 1
        job = store.mark_done(job.id, "deadbeef" * 8, compute_s=0.5)
        assert job.state == "done"
        assert job.result_key == "deadbeef" * 8
        assert not job.cache_hit

    def test_cache_hit_completes_from_pending(self, store):
        job = submit_one(store)
        job = store.mark_done(job.id, "k" * 64, cache_hit=True)
        assert job.state == "done"
        assert job.cache_hit
        assert job.attempts == 0  # no worker ever claimed it

    def test_failure_requeues_until_exhausted(self, store):
        job = submit_one(store, max_attempts=2)
        job = store.mark_running(job.id)
        job = store.mark_failed(job.id, "boom 1")
        assert job.state == "pending"  # one attempt left
        assert job.error == "boom 1"
        job = store.mark_running(job.id)
        job = store.mark_failed(job.id, "boom 2")
        assert job.state == "failed"
        assert job.attempts == 2
        assert job.error == "boom 2"

    def test_done_clears_stale_error(self, store):
        job = submit_one(store)
        store.mark_running(job.id)
        store.mark_failed(job.id, "flaky")
        store.mark_running(job.id)
        job = store.mark_done(job.id, "k" * 64)
        assert job.error is None

    def test_illegal_transitions_raise(self, store):
        job = submit_one(store)
        store.mark_running(job.id)
        with pytest.raises(JobStoreError, match="running"):
            store.mark_running(job.id)
        store.mark_done(job.id, "k" * 64)
        with pytest.raises(JobStoreError):
            store.mark_failed(job.id, "late")

    def test_unknown_job_raises(self, store):
        with pytest.raises(JobStoreError, match="unknown job"):
            store.get("job-99999-missing")

    def test_counts_cover_every_state(self, store):
        assert store.counts() == {s: 0 for s in JOB_STATES}
        submit_one(store)
        assert store.counts()["pending"] == 1


class TestPersistence:
    def test_reload_replays_the_log(self, store, tmp_path):
        job = submit_one(store)
        store.mark_running(job.id)
        store.mark_failed(job.id, "boom")
        reloaded = JobStore(tmp_path / "queue")
        back = reloaded.get(job.id)
        assert back.state == "pending"
        assert back.attempts == 1
        assert back.error == "boom"

    def test_open_recovers_interrupted_running_jobs(self, store, tmp_path):
        job = submit_one(store)
        store.mark_running(job.id)  # crash here: never completed
        reloaded = JobStore.open(tmp_path / "queue")
        back = reloaded.get(job.id)
        assert back.state == "pending"
        assert back.attempts == 1  # interrupted attempt stays counted

    def test_recover_fails_exhausted_running_jobs(self, store, tmp_path):
        job = submit_one(store, max_attempts=1)
        store.mark_running(job.id)
        reloaded = JobStore.open(tmp_path / "queue")
        back = reloaded.get(job.id)
        assert back.state == "failed"
        assert "interrupted" in back.error

    def test_torn_final_line_is_tolerated(self, store, tmp_path):
        job = submit_one(store)
        store.mark_running(job.id)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write('{"id": "job-trunc')  # crash mid-append
        reloaded = JobStore.open(tmp_path / "queue")
        assert reloaded.get(job.id).state == "pending"

    def test_torn_final_line_is_truncated_before_next_append(
        self, store, tmp_path
    ):
        # crash -> recover -> append -> reload: the fragment must not
        # corrupt records written after recovery.
        job = submit_one(store)
        store.mark_running(job.id)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write('{"id": "job-trunc')  # crash mid-append
        recovered = JobStore.open(tmp_path / "queue")
        other = recovered.submit(name="after-crash", design_xml="<y/>")
        final = JobStore.open(tmp_path / "queue")  # must replay cleanly
        assert final.get(job.id).state == "pending"
        assert final.get(other.id).state == "pending"
        assert '"job-trunc' not in store.path.read_text(encoding="utf-8")

    def test_corrupt_interior_line_raises(self, store, tmp_path):
        submit_one(store)
        text = store.path.read_text(encoding="utf-8")
        store.path.write_text("not json\n" + text, encoding="utf-8")
        with pytest.raises(JobStoreError, match="corrupt"):
            JobStore(tmp_path / "queue")

    def test_non_object_record_raises(self, store):
        submit_one(store)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write("[1, 2]\n")
            fh.write(json.dumps({"id": "x"}) + "\n")  # not the final line
        with pytest.raises(JobStoreError, match="must be an object"):
            JobStore(store.directory)

    def test_invalid_state_in_log_raises(self, store):
        record = json.dumps({"id": "j1", "name": "n", "design_xml": "<x/>",
                             "state": "exploded"})
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write(record + "\n" + record + "\n")
        with pytest.raises(JobStoreError, match="invalid job record"):
            JobStore(store.directory)


class TestScheduling:
    """pending() dispatch order: priority desc, fair round-robin, FIFO."""

    def test_default_is_plain_fifo(self, store):
        a = submit_one(store, xml="<a/>")
        b = submit_one(store, xml="<b/>")
        c = submit_one(store, xml="<c/>")
        assert [j.id for j in store.pending()] == [a.id, b.id, c.id]

    def test_higher_priority_dispatches_first(self, store):
        low = submit_one(store, xml="<a/>", priority=0)
        high = submit_one(store, xml="<b/>", priority=5)
        mid = submit_one(store, xml="<c/>", priority=1)
        assert [j.id for j in store.pending()] == [high.id, mid.id, low.id]

    def test_negative_priority_sinks_below_default(self, store):
        sink = submit_one(store, xml="<a/>", priority=-2)
        norm = submit_one(store, xml="<b/>")
        assert [j.id for j in store.pending()] == [norm.id, sink.id]

    def test_round_robin_across_submitters(self, store):
        a1 = submit_one(store, xml="<a1/>", submitter="alice")
        a2 = submit_one(store, xml="<a2/>", submitter="alice")
        a3 = submit_one(store, xml="<a3/>", submitter="alice")
        b1 = submit_one(store, xml="<b1/>", submitter="bob")
        b2 = submit_one(store, xml="<b2/>", submitter="bob")
        # Bob's backlog interleaves with Alice's despite submitting last.
        assert [j.id for j in store.pending()] == [
            a1.id, b1.id, a2.id, b2.id, a3.id
        ]

    def test_mixed_priority_two_submitters(self, store):
        # The acceptance ordering: priority bands first, round-robin
        # within a band, FIFO as the final tie-break.
        a1 = submit_one(store, xml="<a1/>", submitter="alice")
        a2 = submit_one(store, xml="<a2/>", submitter="alice")
        b1 = submit_one(store, xml="<b1/>", submitter="bob")
        urgent = submit_one(store, xml="<u/>", submitter="carol", priority=5)
        b2 = submit_one(store, xml="<b2/>", submitter="bob")
        assert [j.id for j in store.pending()] == [
            urgent.id, a1.id, b1.id, a2.id, b2.id
        ]

    def test_only_pending_jobs_are_scheduled(self, store):
        done = submit_one(store, xml="<a/>", priority=9)
        queued = submit_one(store, xml="<b/>")
        store.mark_done(done.id, "k" * 64, cache_hit=True)
        assert [j.id for j in store.pending()] == [queued.id]

    def test_priority_does_not_distinguish_specs(self, store):
        a = submit_one(store, priority=0)
        b = submit_one(store, priority=7)  # same spec, new priority
        assert b.id == a.id
        assert b.priority == 0  # the queued job stands unchanged

    def test_priority_survives_reload(self, store, tmp_path):
        submit_one(store, priority=3, submitter="alice")
        back = JobStore(tmp_path / "queue").jobs()[0]
        assert back.priority == 3
        assert back.submitter == "alice"

    def test_non_integer_priority_rejected(self):
        with pytest.raises(JobStoreError, match="priority"):
            Job(id="j", name="n", design_xml="<x/>", priority="high")


class TestLegacyLogs:
    """A pre-priority jobs.jsonl (PR 2 field set) must load unchanged."""

    LEGACY = {
        "id": "job-00000-aabbccdd",
        "name": "old-design",
        "design_xml": "<x/>",
        "device": "LX30",
        "max_candidate_sets": None,
        "spec_digest": "aabbccddeeff0011",
        "state": "pending",
        "attempts": 1,
        "max_attempts": 2,
        "error": "boom",
        "result_key": None,
        "cache_hit": False,
        "compute_s": None,
        "submitted_at": 1700000000.0,
        "updated_at": 1700000001.0,
    }

    def test_legacy_record_loads_with_scheduling_defaults(self, store):
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.LEGACY) + "\n")
        loaded = JobStore(store.directory)
        job = loaded.get("job-00000-aabbccdd")
        assert job.priority == 0
        assert job.submitter == ""
        assert job.state == "pending"
        assert job.attempts == 1
        assert job.error == "boom"
        # And it participates in scheduling (plain FIFO band 0).
        assert [j.id for j in loaded.pending()] == [job.id]

    def test_legacy_and_new_records_mix_in_one_log(self, store):
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.LEGACY) + "\n")
        loaded = JobStore(store.directory)
        fresh = loaded.submit(
            name="new", design_xml="<y/>", priority=2, submitter="alice"
        )
        again = JobStore(store.directory)
        assert [j.id for j in again.pending()] == [
            fresh.id, "job-00000-aabbccdd"
        ]
        # The legacy job's spec digest still joins the dedupe index.
        dup = again.submit(name="dup", design_xml="<x/>", device="LX30")
        assert dup.id != "job-00000-aabbccdd"  # digest differs: real spec


class TestTransitionRecords:
    """Full record at submit, by-id transition records afterwards."""

    @staticmethod
    def lines(store):
        return [json.loads(line) for line in
                store.path.read_text(encoding="utf-8").splitlines()]

    def test_transitions_log_only_the_changed_state(self, store):
        job = submit_one(store)
        store.mark_running(job.id)
        store.mark_failed(job.id, "boom")
        store.mark_running(job.id)
        store.mark_done(job.id, "k" * 64, compute_s=0.25)
        first, *transitions = self.lines(store)
        assert first["design_xml"] == "<x/>" and first["id"] == job.id
        assert [set(t) - {"id", "updated_at"} for t in transitions] == [
            {"state", "attempts"},
            {"state", "error"},
            {"state", "attempts"},
            {"state", "result_key", "cache_hit", "compute_s", "error"},
        ]
        assert all(t["id"] == job.id for t in transitions)
        assert all(set(t) <= STATE_FIELDS | {"id"} for t in transitions)
        assert JobStore(store.directory).get(job.id) == store.get(job.id)

    def test_spec_is_logged_once(self, store):
        replay = {
            "traces": [{"environment": "bursty", "length": 64, "seed": i}
                       for i in range(96)],
            "policy": {"name": "no-prefetch"},
        }
        spec_bytes = len(json.dumps(replay))
        job = store.submit(name="r", design_xml="<r/>", kind="replay-batch",
                           replay=replay)
        store.mark_running(job.id)
        store.mark_failed(job.id, "boom")
        store.mark_done(job.id, "k" * 64, cache_hit=True)
        assert store.path.stat().st_size < 2 * spec_bytes

    def test_full_record_log_loads_and_resumes(self, tmp_path):
        queue = tmp_path / "queue"
        queue.mkdir()
        shutil.copy(FULL_RECORD_LOG, queue / "jobs.jsonl")
        store = JobStore.open(queue)
        a, b, c, d, e = store.jobs()
        assert (a.state, a.attempts, a.result_key) == ("done", 1, "a" * 64)
        # b was logged running: recovery re-queues it, attempt counted.
        assert (b.state, b.attempts, b.error) == ("pending", 2, "boom")
        assert (b.priority, b.submitter) == (2, "alice")
        assert (c.state, c.cache_hit, len(c.replay["traces"])) == (
            "done", True, 2)
        assert (d.state, d.attempts) == ("pending", 0)
        assert (e.state, e.attempts, e.error) == ("failed", 2, "boom-2")
        assert [j.id for j in store.pending()] == [b.id, d.id]
        # Resubmitting a logged spec dedupes onto the logged job.
        assert store.submit(name="a", design_xml="<a/>", device="LX30") == a
        for job in store.pending():
            store.mark_running(job.id)
            store.mark_done(job.id, job.name * 64)
        resumed = JobStore.open(queue)
        assert resumed.counts() == {
            "pending": 0, "running": 0, "done": 4, "failed": 1}
        assert resumed.jobs() == store.jobs()

    def test_full_records_then_transition_records(self, tmp_path):
        queue = tmp_path / "queue"
        queue.mkdir()
        shutil.copy(FULL_RECORD_LOG, queue / "jobs.jsonl")
        store = JobStore.open(queue)  # logs b's recovery by id
        fresh = submit_one(store, xml="<f/>")
        store.mark_running(fresh.id)
        store.mark_running(store.jobs()[1].id)
        lines = self.lines(store)
        old = len(FULL_RECORD_LOG.read_text(encoding="utf-8").splitlines())
        assert all("design_xml" in line for line in lines[:old])
        assert ["design_xml" in line for line in lines[old:]] == [
            False, True, False, False]
        reloaded = JobStore(queue)
        assert reloaded.jobs() == store.jobs()
        assert [j.state for j in reloaded.jobs()] == [
            "done", "running", "done", "pending", "failed", "running"]

    def test_interior_record_naming_unknown_job_raises(self, store):
        job = submit_one(store)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "job-99999-deadbeef",
                                 "state": "running"}) + "\n")
        store.mark_running(job.id)
        with pytest.raises(JobStoreError, match="unknown job"):
            JobStore(store.directory)

    def test_transition_record_cannot_change_the_spec(self, store):
        job = submit_one(store)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": job.id, "device": "LX50"}) + "\n")
        with pytest.raises(JobStoreError, match="non-state fields"):
            JobStore(store.directory)

    def test_transition_record_with_unknown_state_raises(self, store):
        job = submit_one(store)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": job.id, "state": "exploded"}) + "\n")
        with pytest.raises(JobStoreError, match="unknown job state"):
            JobStore(store.directory)


class TestDedupeIndex:
    """submit() dedupe is indexed, not a scan -- same observable rules."""

    def test_duplicate_after_many_jobs_still_dedupes(self, store):
        first = submit_one(store)
        for i in range(50):
            submit_one(store, xml=f"<other-{i}/>")
        assert submit_one(store).id == first.id

    def test_dedupe_falls_through_failed_to_live_duplicate(self, store):
        a = submit_one(store, max_attempts=1)
        b = submit_one(store, dedupe=False)  # same spec, forced duplicate
        store.mark_running(a.id)
        store.mark_failed(a.id, "boom")
        assert store.get(a.id).state == "failed"
        # The index must serve the *live* duplicate, not the failed one.
        assert submit_one(store).id == b.id

    def test_index_rebuilds_on_reload(self, store, tmp_path):
        first = submit_one(store)
        reloaded = JobStore(tmp_path / "queue")
        assert submit_one(reloaded).id == first.id

    def test_submit_is_not_quadratic(self, store):
        # 300 distinct specs: with the digest index this is ~instant;
        # the old all-jobs scan would cross 45k comparisons.
        import time as _time

        started = _time.perf_counter()
        for i in range(300):
            submit_one(store, xml=f"<n-{i}/>")
        assert len(store.jobs()) == 300
        assert _time.perf_counter() - started < 5.0


class TestJobValidation:
    def test_unknown_state_rejected(self):
        with pytest.raises(JobStoreError):
            Job(id="j", name="n", design_xml="<x/>", state="nope")

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(JobStoreError):
            Job(id="j", name="n", design_xml="<x/>", max_attempts=0)

    def test_exhausted_property(self):
        job = Job(id="j", name="n", design_xml="<x/>", attempts=2,
                  max_attempts=2)
        assert job.exhausted
