"""Golden content addresses of replay work.

Cached replay records, batch outcomes and queued jobs are found again
by their keys, so a key that drifts silently orphans every stored
result.  A benchmark cannot see such a drift: its cache fill and its
measured runs compute the keys with the same code.  These literals pin
``trace_key``, ``replay_result_key``, ``replay_batch_key`` and a replay
job's ``spec_digest`` as they stood when the keys were last changed on
purpose.
"""

from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replay import (
    POLICY_PRESETS,
    TraceSpec,
    WorkloadSuite,
    replay_batch_key,
    replay_probe_keys,
    replay_result_key,
    replay_store_for,
    run_replay_batch_payload,
    submit_replay_suite,
)
from repro.replay.engine import REPLAY_VERSION, replay_result_keys
from repro.replay.trace import trace_key
from repro.service import JobStore, ResultCache
from repro.service.pool import partition_problem_key

PROBLEM = "p" * 64
FIRST_BATCH = (
    "c9afbe78d3468371a1f98f24152579c9ea6f3c44463bba025a04e6cbf44aa6ac"
)
NAMES = ("c0", "c1", "c2")
SPEC = TraceSpec(environment="bursty", length=40, seed=5)


def test_trace_key_is_pinned():
    assert trace_key(NAMES, SPEC) == (
        "ab92cb39607d2e34a59b5a03dac6ae0c9ca01304f934f3a8f574e89b60ed7715"
    )


def test_replay_result_key_is_pinned():
    tk = trace_key(NAMES, SPEC)
    key = replay_result_key(PROBLEM, tk, "prefetch-oracle")
    assert key == (
        "535639d399518d4b0df8772dcf8d2488c8be3860a482265fa8b5cd42b5f90600"
    )
    # A preset name, its spec and its spec's dict address one record.
    spec = POLICY_PRESETS["prefetch-oracle"]
    assert replay_result_key(PROBLEM, tk, spec) == key
    assert replay_result_key(PROBLEM, tk, spec.to_dict()) == key


def test_replay_batch_key_is_pinned():
    tks = [
        trace_key(NAMES, TraceSpec(environment=env, length=40, seed=seed))
        for seed, env in enumerate(("uniform", "markov", "bursty"))
    ]
    assert replay_batch_key(PROBLEM, tks, "evict-lru") == (
        "473d0cde6bfd6e0c2a31925037071223a2f204b49d8f87a163f724f3924e8d24"
    )


def _suite_jobs(tmp_path):
    suite = WorkloadSuite(designs=2, traces_per_design=4, length=32, seed=7)
    store = JobStore(tmp_path / "q")
    return submit_replay_suite(
        store, suite, ["no-prefetch", "evict-lru"], max_candidate_sets=3,
        batch_size=3,
    )


def test_suite_job_digests_and_keys_are_pinned(tmp_path):
    # Two designs x 4 traces x 2 policies at batch size 3: every job's
    # spec digest, batch key and member keys, through the same
    # submit/probe path the batch runner takes.
    jobs = _suite_jobs(tmp_path)
    assert len(jobs) == 8
    first = jobs[0]
    batch, members = replay_probe_keys(first)
    assert first.spec_digest == "8392675d1f8e2917"
    assert batch == FIRST_BATCH
    assert members[0] == (
        "1602c3d2f8cbfd7ad269bba23f66f7de2c9b8e963841dc936ec2257c21f6244c"
    )
    digest = hashlib.sha256()
    for job in jobs:
        batch, members = replay_probe_keys(job)
        digest.update(f"{job.name} {job.spec_digest} {batch}\n".encode())
        digest.update(("\n".join(members) + "\n").encode())
    assert digest.hexdigest() == (
        "255115ded535f4f8963e0c5884569f3dbc905a4409feac225e8fc42b00ee89d6"
    )


def test_worker_stores_under_the_pinned_keys(tmp_path):
    job = _suite_jobs(tmp_path)[0]
    cache = ResultCache(tmp_path / "cache")
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
    assert outcome["key"] == FIRST_BATCH
    assert set(replay_store_for(cache).keys()) == set(
        replay_probe_keys(job)[1]
    )


@settings(max_examples=200, deadline=None)
@given(
    problem=st.text(max_size=12),
    trace_keys=st.lists(st.text(max_size=12), max_size=4),
    name=st.text(min_size=1, max_size=8),
)
def test_spliced_keys_equal_whole_payload_hashes(problem, trace_keys, name):
    # The oracle serialises each member's whole payload, as the keys were
    # computed before the splice; any text, NULs included, must agree.
    policy = {**POLICY_PRESETS["evict-lru"].to_dict(), "name": name}
    expected = [
        hashlib.sha256(
            json.dumps(
                {"format": "repro-replay", "version": REPLAY_VERSION,
                 "problem": problem, "trace": tk, "policy": policy},
                sort_keys=True, separators=(",", ":"),
            ).encode("utf-8")
        ).hexdigest()
        for tk in trace_keys
    ]
    assert replay_result_keys(problem, trace_keys, policy) == expected
