"""Crash-safe job store: an append-only JSON-lines state log.

A queue directory holds one ``jobs.jsonl`` file.  ``submit`` appends
the job's *full* record once; every later state change appends a small
*transition record* naming the job by id and carrying only the state
fields that changed plus ``updated_at``.  Loading folds the lines left
to right: a full record (any line with a ``design_xml`` field) sets a
job, a transition record updates the job it names.  Logs written
before transition records existed hold only full records and load
unchanged; a checkout that predates transition records cannot read a
log this version writes.  Persistence is crash-safe by construction --

* a crash mid-append leaves at most one truncated *final* line, which
  loading truncates away (the previous record for that job still
  stands, and the next append starts on a fresh line);
* a job that was ``running`` when the process died is reset to
  ``pending`` on the next open (:meth:`JobStore.recover`), so an
  interrupted queue resumes exactly where it stopped;
* malformed *non-final* lines mean real corruption and raise
  :class:`JobStoreError`, as does a transition record that names a job
  no earlier line submitted or that changes a spec field.

States: ``pending -> running -> done | failed``; a failing job returns
to ``pending`` until its attempt count reaches ``max_attempts``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping

from ..core.model import PRDesign
from ..flow.xmlio import design_to_xml
from ..util.jsonl import JsonlError, replay_jsonl

#: The legal job states, in lifecycle order.
JOB_STATES = ("pending", "running", "done", "failed")

#: The workload classes the batch service executes.  ``partition`` jobs
#: run the paper's partitioning search; ``replay-batch`` jobs
#: additionally replay the resulting scheme against N synthesized
#: traffic traces under one serving policy (:mod:`repro.replay`), so
#: dispatch, scheme resolution and store IO amortise N x.
JOB_KINDS = ("partition", "replay-batch")

#: Default cap on per-job execution attempts (1 initial + 1 retry).
DEFAULT_MAX_ATTEMPTS = 2

JOBS_FILENAME = "jobs.jsonl"

#: The fields a transition may change -- all a transition record carries
#: besides the job id.
STATE_FIELDS = frozenset(
    {"state", "attempts", "error", "result_key", "cache_hit", "compute_s",
     "updated_at"}
)


class JobStoreError(ValueError):
    """Raised for corrupt job logs or illegal state transitions."""


@dataclass(frozen=True)
class Job:
    """One partitioning request plus its lifecycle state.

    The *spec* half (``design_xml``, ``device``, ``max_candidate_sets``)
    defines the problem; ``spec_digest`` fingerprints it for duplicate
    detection at submit time (distinct from the result-cache key, which
    canonicalises much more aggressively).  ``priority``/``submitter``
    are scheduling hints only -- they never enter the spec digest, so a
    resubmission at a new priority still dedupes onto the queued job.
    The *state* half tracks execution: attempts consumed, the failure
    traceback, the result cache key and whether it was served from
    cache.  Pre-priority logs load unchanged: missing fields take the
    defaults below.
    """

    id: str
    name: str
    design_xml: str
    device: str | None = None
    max_candidate_sets: int | None = None
    kind: str = "partition"
    replay: dict | None = None
    spec_digest: str = ""
    priority: int = 0
    submitter: str = ""
    state: str = "pending"
    attempts: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    error: str | None = None
    result_key: str | None = None
    cache_hit: bool = False
    compute_s: float | None = None
    submitted_at: float = 0.0
    updated_at: float = 0.0

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise JobStoreError(f"unknown job state {self.state!r}")
        if self.kind not in JOB_KINDS:
            raise JobStoreError(f"unknown job kind {self.kind!r}")
        if self.kind == "replay-batch":
            traces = None
            if isinstance(self.replay, Mapping):
                traces = self.replay.get("traces")
            if (
                traces is None
                or not isinstance(traces, (list, tuple))
                or not traces
                or not all(isinstance(t, Mapping) for t in traces)
                or not isinstance(self.replay.get("policy"), Mapping)
            ):
                raise JobStoreError(
                    "a replay-batch job needs a replay spec with a "
                    "non-empty 'traces' sequence of mappings and a "
                    "'policy' mapping"
                )
        elif self.replay is not None:
            raise JobStoreError("only replay jobs carry a replay spec")
        if self.max_attempts < 1:
            raise JobStoreError("max_attempts must be at least 1")
        if not isinstance(self.priority, int) or isinstance(self.priority, bool):
            raise JobStoreError("priority must be an integer")

    @property
    def exhausted(self) -> bool:
        """True when no execution attempts remain."""
        return self.attempts >= self.max_attempts


def _spec_digest(
    design_xml: str,
    device: str | None,
    max_candidate_sets: int | None,
    kind: str = "partition",
    replay: Mapping | None = None,
) -> str:
    doc: dict = {"xml": design_xml, "device": device, "sets": max_candidate_sets}
    if kind != "partition":
        # Partition digests stay byte-stable across the kind field's
        # introduction; only the new workload classes extend the payload.
        doc["kind"] = kind
        doc["replay"] = None if replay is None else dict(replay)
    payload = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _batch_of_one(raw: Mapping) -> dict:
    """A logged single-trace ``replay`` job, read as a ``replay-batch`` of one.

    Queue logs written before single-trace jobs were folded into
    batches stay loadable: the spec digest is recomputed for the new
    form, so re-submitting the same one-trace sweep still dedupes.
    """
    spec = raw["replay"]
    replay = {"traces": [spec.get("trace")], "policy": spec.get("policy")}
    return {
        **raw,
        "kind": "replay-batch",
        "replay": replay,
        "spec_digest": _spec_digest(
            raw.get("design_xml", ""),
            raw.get("device"),
            raw.get("max_candidate_sets"),
            "replay-batch",
            replay,
        ),
    }


def _evolve(job: Job, changes: Mapping) -> Job:
    """``job`` with state fields changed, its spec taken as already valid.

    ``dataclasses.replace`` would re-run :meth:`Job.__post_init__` and
    re-check every trace mapping of a replay spec; a transition only
    changes state fields, so only the new state is checked.
    """
    state = changes.get("state", job.state)
    if state not in JOB_STATES:
        raise JobStoreError(f"unknown job state {state!r}")
    new = object.__new__(Job)
    new.__dict__.update(vars(job), **changes)
    return new


class JobStore:
    """The JSON-lines job store for one queue directory."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / JOBS_FILENAME
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        # spec digest -> job ids sharing it, in submission order -- the
        # dedupe index (a per-submit linear scan over all jobs is O(n^2)
        # across a batch; buckets hold only true duplicates, so lookup
        # is O(1) amortised).
        self._by_digest: dict[str, list[str]] = {}
        self._load()

    @classmethod
    def open(cls, directory: str | Path) -> "JobStore":
        """Load a queue and recover interrupted (``running``) jobs."""
        store = cls(directory)
        store.recover()
        return store

    # ------------------------------------------------------------------
    # log replay
    # ------------------------------------------------------------------
    def _load(self) -> None:
        # Torn-tail recovery (truncate a mid-append fragment, restore a
        # missing final newline) is the shared append-only-log discipline
        # in repro.util.jsonl -- the telemetry sink reloads the same way.
        known = {f.name for f in fields(Job)}
        try:
            records = replay_jsonl(self.path)
        except JsonlError as exc:
            raise JobStoreError(f"corrupt job record: {exc}") from exc
        for i, raw in enumerate(records):
            where = f"{self.path}:{i + 1}"
            if not isinstance(raw, Mapping):
                raise JobStoreError(f"{where}: job record must be an object")
            if "design_xml" not in raw:
                self._remember(self._fold(where, raw))
                continue
            if raw.get("kind") == "replay" and isinstance(
                raw.get("replay"), Mapping
            ):
                raw = _batch_of_one(raw)
            try:
                job = Job(**{k: v for k, v in raw.items() if k in known})
            except (TypeError, JobStoreError) as exc:
                raise JobStoreError(f"{where}: invalid job record: {exc}") from exc
            self._remember(job)

    def _fold(self, where: str, raw: Mapping) -> Job:
        """The job a transition record names, with its changes applied."""
        job = self._jobs.get(raw.get("id"))
        if job is None:
            raise JobStoreError(
                f"{where}: transition record names unknown job {raw.get('id')!r}"
            )
        changes = {k: v for k, v in raw.items() if k != "id"}
        if not changes.keys() <= STATE_FIELDS:
            raise JobStoreError(
                f"{where}: transition record changes non-state fields "
                f"{sorted(changes.keys() - STATE_FIELDS)}"
            )
        return _evolve(job, changes)

    def _remember(self, job: Job) -> None:
        if job.id not in self._jobs:
            self._order.append(job.id)
            if job.spec_digest:
                self._by_digest.setdefault(job.spec_digest, []).append(job.id)
        self._jobs[job.id] = job

    def _append(self, record: Mapping) -> None:
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        name: str,
        design_xml: str,
        device: str | None = None,
        max_candidate_sets: int | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        dedupe: bool = True,
        priority: int = 0,
        submitter: str = "",
        kind: str = "partition",
        replay: Mapping | None = None,
    ) -> Job:
        """Enqueue one job; identical specs dedupe by default.

        ``failed`` jobs are never dedupe targets: resubmitting a spec
        whose job exhausted its attempts enqueues a fresh job with a
        fresh attempt budget -- the retry path for a failed job.
        ``priority``/``submitter`` are scheduling hints (see
        :meth:`pending`) and do not distinguish specs: resubmitting a
        queued spec at a new priority dedupes onto the existing job.
        """
        digest = _spec_digest(design_xml, device, max_candidate_sets, kind, replay)
        if dedupe:
            for jid in self._by_digest.get(digest, ()):
                existing = self._jobs[jid]
                if existing.state != "failed":
                    return existing
        now = time.time()
        job = Job(
            id=f"job-{len(self._order):05d}-{digest[:8]}",
            name=name,
            design_xml=design_xml,
            device=device,
            max_candidate_sets=max_candidate_sets,
            kind=kind,
            replay=None if replay is None else dict(replay),
            spec_digest=digest,
            priority=priority,
            submitter=submitter,
            max_attempts=max_attempts,
            submitted_at=now,
            updated_at=now,
        )
        self._append(vars(job))
        self._remember(job)
        return job

    def submit_design(
        self,
        design: PRDesign,
        device: str | None = None,
        **kwargs,
    ) -> Job:
        """Convenience: serialise a :class:`PRDesign` and submit it."""
        return self.submit(
            name=design.name,
            design_xml=design_to_xml(design, device_name=device),
            device=device,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def jobs(self) -> list[Job]:
        """All jobs in submission order."""
        return [self._jobs[i] for i in self._order]

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise JobStoreError(f"unknown job {job_id!r}") from None

    def pending(self) -> list[Job]:
        """Pending jobs in dispatch order.

        Ordering is (priority descending, fair round-robin across
        submitters, FIFO): within one priority band each submitter's
        k-th job only dispatches after every other submitter's (k-1)-th,
        so one bulk submitter cannot starve the rest; ties break by
        submission order.  With one submitter and one priority this
        degenerates to plain FIFO -- the pre-priority behaviour.
        """
        pend = [j for j in self.jobs() if j.state == "pending"]
        turn: dict[tuple[int, str], int] = {}
        keyed = []
        for pos, job in enumerate(pend):
            band = (job.priority, job.submitter)
            k = turn.get(band, 0)
            turn[band] = k + 1
            keyed.append(((-job.priority, k, pos), job))
        keyed.sort(key=lambda item: item[0])
        return [job for _key, job in keyed]

    def counts(self) -> dict[str, int]:
        """Jobs per state, every state present (zero included)."""
        out = {state: 0 for state in JOB_STATES}
        for job in self.jobs():
            out[job.state] += 1
        return out

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def _transition(self, job_id: str, allowed: Iterable[str], **changes) -> Job:
        job = self.get(job_id)
        if job.state not in allowed:
            raise JobStoreError(
                f"job {job_id} is {job.state!r}, expected one of "
                f"{sorted(allowed)}"
            )
        changes["updated_at"] = time.time()
        job = _evolve(job, changes)
        self._append({"id": job_id, **changes})
        self._jobs[job_id] = job
        return job

    def mark_running(self, job_id: str) -> Job:
        """Claim a pending job; consumes one attempt."""
        job = self.get(job_id)
        return self._transition(
            job_id, ("pending",), state="running", attempts=job.attempts + 1
        )

    def mark_done(
        self,
        job_id: str,
        result_key: str,
        cache_hit: bool = False,
        compute_s: float | None = None,
    ) -> Job:
        """Finish a job, recording the cache key holding its result.

        Cache hits complete straight from ``pending`` (no worker ever
        claimed them); computed results complete from ``running``.
        """
        return self._transition(
            job_id,
            ("pending", "running"),
            state="done",
            result_key=result_key,
            cache_hit=cache_hit,
            compute_s=compute_s,
            error=None,
        )

    def mark_failed(self, job_id: str, error: str) -> Job:
        """Record a failed attempt: re-queue, or fail once exhausted."""
        job = self.get(job_id)
        state = "failed" if job.exhausted else "pending"
        return self._transition(
            job_id, ("running", "pending"), state=state, error=error
        )

    def recover(self) -> list[Job]:
        """Reset jobs stranded ``running`` by a crash back to ``pending``.

        The interrupted attempt stays counted, so a job that keeps
        crashing the worker still exhausts ``max_attempts`` eventually
        (it fails outright once no attempts remain).
        """
        recovered = []
        for job in self.jobs():
            if job.state != "running":
                continue
            if job.exhausted:
                recovered.append(
                    self._transition(
                        job.id,
                        ("running",),
                        state="failed",
                        error=job.error or "interrupted (queue crashed)",
                    )
                )
            else:
                recovered.append(
                    self._transition(job.id, ("running",), state="pending")
                )
        return recovered
