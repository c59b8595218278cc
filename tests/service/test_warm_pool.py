"""The warm worker pool under supervision: kills that stay local.

Every multi-process ``run_batch`` drains on one persistent pool of
owned workers; supervision (deadline, heartbeat) is a policy on that
pool.  So killing one worker -- for a timeout, or from outside -- fails
only the job it was running, while the other jobs in flight finish on
their first attempt.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.service import FaultPlan, JobStore, ResultCache, run_batch
from repro.service.pool import _warm_executor

from ..conftest import make_design


def simple_design(name: str, clb: int = 40):
    return make_design(
        {
            "A": {"A1": (clb, 0, 0), "A2": (clb + 160, 0, 0)},
            "B": {"B1": (220, 0, 0), "B2": (50, 0, 0)},
        },
        [("A1", "B1"), ("A2", "B2"), ("A1", "B2")],
        name=name,
    )


@pytest.fixture
def queue(tmp_path):
    return JobStore.open(tmp_path / "queue")


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def test_killing_a_hung_worker_spares_the_bystander(queue, cache):
    victim = queue.submit_design(simple_design("victim"), device="LX30")
    bystander = queue.submit_design(
        simple_design("bystander", clb=44), device="LX30"
    )
    report = run_batch(
        queue,
        cache,
        workers=2,
        faults=FaultPlan.parse(["hang:victim", "slow:bystander:3.0"]),
        job_timeout_s=60.0,
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=1.0,
    )
    # Both victim attempts were killed while the bystander, beating all
    # along, ran on in the other worker.
    assert report.timeouts == victim.max_attempts
    assert report.failed_ids == (victim.id,)
    done = queue.get(bystander.id)
    assert done.state == "done"
    assert done.attempts == 1


def _running_ids(queue: JobStore) -> set[str]:
    """Job ids the log shows claimed by a worker."""
    ids = set()
    for line in queue.path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["state"] == "running":
            ids.add(record["id"])
    return ids


@pytest.mark.parametrize("job_timeout_s", [None, 60.0],
                         ids=["unsupervised", "supervised"])
def test_sigkilled_worker_fails_only_its_own_job(queue, cache, job_timeout_s):
    jobs = [
        queue.submit_design(simple_design(f"d{i}", clb=40 + i), device="LX30")
        for i in range(2)
    ]
    pool = _warm_executor(2)
    victim_pid = pool.submit(os.getpid).result()

    def kill_once_both_run():
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if len(_running_ids(queue)) == len(jobs):
                os.kill(victim_pid, signal.SIGKILL)
                return
            time.sleep(0.01)

    killer = threading.Thread(target=kill_once_both_run)
    killer.start()
    report = run_batch(
        queue,
        cache,
        workers=2,
        faults=FaultPlan.parse(["slow:*:1.0"]),
        job_timeout_s=job_timeout_s,
    )
    killer.join()

    assert report.done == 2 and report.failed == 0
    assert report.retries == 1
    attempts = sorted(queue.get(job.id).attempts for job in jobs)
    assert attempts == [1, 2]  # the bystander never re-ran
    log = queue.path.read_text(encoding="utf-8")
    assert "worker process died without reporting (exit code -9)" in log
    # The batch drained on a replacement forked into the dead slot.
    pids = {pool.submit(os.getpid).result() for _ in range(2)}
    assert len(pids) == 2 and victim_pid not in pids
