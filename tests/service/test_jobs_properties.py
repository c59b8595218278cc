"""Property tests of the JobStore log: legal-transition sequences and
crash-truncation of the append-only ``jobs.jsonl``.

Two invariants, in the spirit of crash-consistency testing of
append-only logs:

* **replay fidelity** -- after any sequence of legal transitions, a
  fresh load of the log reproduces the in-memory store exactly;
* **torn-tail recovery** -- truncating the log at *every byte offset*
  inside its final record must never raise ``JobStoreError``: the load
  either sees the full final record (cut after the terminating newline
  was durable... i.e. nothing lost) or cleanly falls back to the state
  before the final append.  A cut anywhere else in the tail is the
  crash-mid-append case the store promises to survive.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.jobs import Job, JobStore

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)

#: Action vocabulary for the random walk.  Each step picks one and the
#: model only applies it when legal, so every generated sequence is a
#: valid history by construction.
ACTIONS = ("submit", "run", "done", "fail")


def snapshot(store: JobStore) -> list[tuple]:
    """The comparable essence of a store's state, in submission order."""
    return [
        (
            j.id,
            j.state,
            j.attempts,
            j.error,
            j.result_key,
            j.priority,
            j.submitter,
        )
        for j in store.jobs()
    ]


def drive(store: JobStore, script: list[tuple[str, int]]) -> None:
    """Apply a script of (action, selector) steps, skipping illegal ones."""
    for action, pick in script:
        if action == "submit":
            store.submit(
                name=f"d{pick}",
                design_xml=f"<design-{pick}/>",
                dedupe=False,
                max_attempts=1 + pick % 3,
                priority=pick % 4 - 1,
                submitter=("alice", "bob", "")[pick % 3],
            )
            continue
        jobs = store.jobs()
        if not jobs:
            continue
        job = jobs[pick % len(jobs)]
        if action == "run" and job.state == "pending":
            store.mark_running(job.id)
        elif action == "done" and job.state in ("pending", "running"):
            store.mark_done(job.id, "k" * 64, cache_hit=job.state == "pending")
        elif action == "fail" and job.state in ("pending", "running"):
            store.mark_failed(job.id, f"boom-{pick}")


scripts = st.lists(
    st.tuples(st.sampled_from(ACTIONS), st.integers(0, 11)),
    min_size=1,
    max_size=25,
)


@SETTINGS
@given(script=scripts)
def test_reload_reproduces_the_store(tmp_path_factory, script):
    directory = tmp_path_factory.mktemp("queue")
    store = JobStore(directory)
    drive(store, script)
    assert snapshot(JobStore(directory)) == snapshot(store)


@SETTINGS
@given(script=scripts)
def test_truncation_at_every_offset_of_the_final_record(
    tmp_path_factory, script
):
    directory = tmp_path_factory.mktemp("queue")
    store = JobStore(directory)
    drive(store, script)
    if not store.path.exists():
        return  # the script never submitted: nothing was logged
    raw = store.path.read_bytes()
    lines = raw.decode("utf-8").splitlines(keepends=True)
    if not lines:
        return
    final = lines[-1]
    prefix = raw[: len(raw) - len(final.encode("utf-8"))]

    # What a clean load of everything-but-the-final-record yields.
    before = _fold(lines[:-1])
    complete = _fold(lines)

    for cut in range(len(final.encode("utf-8")) + 1):
        store.path.write_bytes(prefix + final.encode("utf-8")[:cut])
        # Never raises: a torn tail is a crash, not corruption.
        loaded = JobStore(directory)
        got = snapshot(loaded)
        if cut == len(final.encode("utf-8")):
            assert got == complete
        else:
            # Any partial tail (including an empty one) recovers to the
            # pre-append state -- except when the partial fragment
            # happens to be valid JSON of a valid record (e.g. the cut
            # landed exactly on the final newline), which keeps it.
            assert got in (before, complete)
        # And the recovered log must accept appends cleanly: the torn
        # fragment was truncated away, not concatenated onto.
        loaded.submit(name="post-crash", design_xml="<post/>", dedupe=False)
        reloaded = JobStore(directory)
        assert snapshot(reloaded) == snapshot(loaded)


def _fold(lines: list[str]) -> list[tuple]:
    """Replay records the way JobStore._load does, as a plain fold.

    A line with a ``design_xml`` field is a full record and sets its
    job; any other line is a transition record and overlays its fields
    on the last state of the job it names.
    """
    from dataclasses import fields

    known = {f.name for f in fields(Job)}
    jobs: dict[str, dict] = {}
    order: list[str] = []
    for line in lines:
        raw = json.loads(line)
        if "design_xml" in raw:
            if raw["id"] not in jobs:
                order.append(raw["id"])
            jobs[raw["id"]] = {k: v for k, v in raw.items() if k in known}
        else:
            jobs[raw["id"]] = {**jobs[raw["id"]], **raw}
    return [
        (
            j.id,
            j.state,
            j.attempts,
            j.error,
            j.result_key,
            j.priority,
            j.submitter,
        )
        for j in (Job(**jobs[i]) for i in order)
    ]
