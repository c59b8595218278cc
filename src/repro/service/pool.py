"""Supervised multiprocessing batch runner: fan pending jobs out across
cores and never let one of them wedge the batch.

``run_batch`` drains a :class:`~repro.service.jobs.JobStore`:

1. every pending job's :func:`repro.core.problem_key` is computed in the
   parent (cheap: one XML parse + one SHA-256) and probed in the
   :class:`~repro.service.cache.ResultCache` (envelope check only, no
   result deserialisation) -- hits complete immediately, **without
   dispatching a worker or re-running any search stage**;
2. misses are executed in (priority desc, fair round-robin, FIFO) order
   -- the :meth:`~repro.service.jobs.JobStore.pending` schedule --
   inline for ``workers=1`` with no supervision; on a persistent *warm*
   process pool for plain multi-worker batches (workers survive across
   jobs and batches, so per-process scheme caches keep paying off);
   else one *supervised* ``multiprocessing.Process`` per job, at most
   ``workers`` in flight;
3. a worker exception never poisons the batch: the traceback travels
   back as data, the job re-queues until its attempt cap, then lands in
   ``failed`` while every other job keeps flowing;
4. under supervision each worker **heartbeats** (touches a per-job file
   every ``heartbeat_interval_s``) while computing, and the parent's
   drain loop enforces a per-job ``job_timeout_s`` deadline plus a
   ``heartbeat_timeout_s`` staleness threshold -- a hung worker is
   killed, its job fails with a ``timeout ...`` error and re-queues
   until its attempt cap, and the freed slot is refilled so the batch
   always terminates.  A worker that *dies* without reporting (OOM
   kill, segfault) is detected the same way, without waiting for any
   deadline.

Deterministic fault injection for all of the above lives in
:mod:`repro.service.faults` and threads through the worker payload --
production runs never construct a plan.

Progress streams through the :mod:`repro.obs` tracer (``batch.*``
events, ``service.*`` counters -- see docs/OBSERVABILITY.md) and the
run aggregates into a :class:`BatchReport` (throughput, cache hit rate,
timeouts, worker utilisation).
"""

from __future__ import annotations

import atexit
import heapq
import json
import multiprocessing
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..arch.library import DeviceLibrary
from ..core.fingerprint import problem_key
from ..core.partitioner import (
    PartitionerOptions,
    PartitionResult,
    partition,
    partition_with_device_selection,
)
from ..obs import NULL_TRACER, RecordingTracer, TelemetrySink, Tracer
from ..obs.resources import job_resources, sample_self
from ..util import write_text_atomic
from .cache import ResultCache
from .faults import FaultPlan, inject, spec_from_payload
from .jobs import Job, JobStore
from .problem import ResolvedProblem, resolve_problem_text

#: Default worker beat period under supervision (seconds).
DEFAULT_HEARTBEAT_INTERVAL_S = 0.5

#: Parent poll period of the supervision loop (seconds).
DEFAULT_POLL_S = 0.05

#: Scratch space (heartbeat + result spool files) inside the queue dir.
WORK_DIRNAME = ".work"


class ServiceError(RuntimeError):
    """Raised for batch-service misuse (not for per-job failures)."""


def _job_options(job_or_sets: Job | int | None) -> PartitionerOptions:
    sets = (
        job_or_sets.max_candidate_sets
        if isinstance(job_or_sets, Job)
        else job_or_sets
    )
    return PartitionerOptions(max_candidate_sets=sets)


def job_problem_key(job: Job, library: DeviceLibrary | None = None) -> str:
    """The content-address of a job's problem, whatever its kind.

    ``partition`` jobs key on the partitioning problem alone
    (:func:`partition_problem_key`); ``replay-batch`` jobs fold the
    traces and policy in on top
    (:func:`repro.replay.service.replay_probe_keys`), so the same scheme
    replayed under a different workload or policy is a distinct key.
    """
    if job.kind == "replay-batch":
        from ..replay.service import replay_probe_keys

        return replay_probe_keys(job, library)[0]
    return partition_problem_key(job, library)


def partition_problem_key(job: Job, library: DeviceLibrary | None = None) -> str:
    """The content-address of a job's *partitioning* problem.

    Fixed-device jobs hash (design, budget, options, device name);
    auto-select jobs have no budget until a device is chosen, so they
    hash (design, options) plus the library's device ladder -- the
    selection protocol is deterministic given those.
    """
    return partition_problem_key_text(
        job.design_xml, job.device, job.max_candidate_sets, library
    )


def partition_problem_key_text(
    design_xml: str,
    device: str | None,
    max_candidate_sets: int | None,
    library: DeviceLibrary | None = None,
) -> str:
    """:func:`partition_problem_key` from raw spec fields (worker side)."""
    problem = resolve_problem_text(design_xml, device, library)
    return partition_problem_key_resolved(problem, max_candidate_sets)


def partition_problem_key_resolved(
    problem: ResolvedProblem, max_candidate_sets: int | None
) -> str:
    """:func:`partition_problem_key` from an already-resolved problem.

    Callers that need both the key and the resolved design (the replay
    key helpers) resolve once and key from the result, instead of
    paying a second XML parse inside :func:`partition_problem_key_text`.
    """
    options = _job_options(max_candidate_sets)
    if problem.device is not None:
        assert problem.capacity is not None
        return problem_key(
            problem.design,
            problem.capacity,
            options,
            extra={"device": problem.device.name},
        )
    return problem_key(
        problem.design,
        None,
        options,
        extra={"device": None, "library": list(problem.library.names)},
    )


def _compute(
    problem: ResolvedProblem,
    options: PartitionerOptions,
    tracer: Tracer = NULL_TRACER,
) -> tuple[PartitionResult, str]:
    """Run the partitioner for a resolved problem; returns (result, device)."""
    if problem.device is not None:
        assert problem.capacity is not None
        return partition(
            problem.design, problem.capacity, options, tracer=tracer
        ), problem.device.name
    selected = partition_with_device_selection(
        problem.design, problem.library, options, tracer=tracer
    )
    return selected.result, selected.device.name


class _Heartbeat:
    """Worker-side beat emitter: rewrite ``path`` every ``interval_s``.

    Runs on a daemon thread so it beats *while the search computes*,
    with no cooperation from the pipeline.  ``stop()`` silences it --
    which is also how an injected ``hang`` simulates a wedged worker.

    Each beat atomically rewrites the file with the current timestamp;
    the supervisor watches only the file's mtime for staleness.
    """

    def __init__(self, path: str | Path, interval_s: float):
        self.path = Path(path)
        self.interval_s = interval_s
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _beat(self) -> None:
        write_text_atomic(self.path, json.dumps({"ts": time.time()}))

    def start(self) -> "_Heartbeat":
        self._beat()
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stopped.wait(self.interval_s):
            try:
                self._beat()
            except OSError:
                return

    def stop(self) -> None:
        self._stopped.set()


def execute_job_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: run one job, write the cache, report as data.

    Must stay a module-level function (it is pickled to pool workers)
    and must never let a job failure raise -- exceptions become
    ``ok=False`` payloads so one bad job cannot take down the pool.
    Interrupts (``KeyboardInterrupt``/``SystemExit``) still propagate:
    with ``workers=1`` this runs inline in the parent, and Ctrl-C must
    stop the batch, not count as a job failure.

    Optional payload slots: ``heartbeat_path``/``heartbeat_interval_s``
    start a :class:`_Heartbeat` for the duration of the job; ``fault``
    (a :meth:`FaultSpec.to_payload` dict) fires a deterministic
    injected fault before the compute; ``collect_trace`` runs the
    pipeline under a private :class:`~repro.obs.RecordingTracer` and
    ships its serialised trace back in the outcome (``"trace"``) so the
    parent can re-root it -- the worker half of cross-process telemetry.
    """
    started = time.perf_counter()
    started_resources = sample_self()
    heartbeat = None
    worker_tracer: RecordingTracer | None = None
    if payload.get("collect_trace"):
        worker_tracer = RecordingTracer()
    if payload.get("heartbeat_path"):
        heartbeat = _Heartbeat(
            payload["heartbeat_path"],
            payload.get("heartbeat_interval_s") or DEFAULT_HEARTBEAT_INTERVAL_S,
        ).start()
    try:
        if payload.get("fault"):
            inject(spec_from_payload(payload["fault"]), heartbeat=heartbeat)
        if payload.get("kind") == "replay-batch":
            from ..replay.service import run_replay_batch_payload

            outcome = run_replay_batch_payload(
                payload, started=started, tracer=worker_tracer or NULL_TRACER
            )
        else:
            problem = resolve_problem_text(
                payload["design_xml"], payload["device"], payload.get("library")
            )
            options = _job_options(payload["max_candidate_sets"])
            result, device_name = _compute(
                problem, options, worker_tracer or NULL_TRACER
            )
            compute_s = time.perf_counter() - started
            ResultCache(payload["cache_root"]).put(
                payload["key"],
                result,
                device_name=device_name,
                compute_s=compute_s,
            )
            outcome = {
                "job_id": payload["job_id"],
                "ok": True,
                "key": payload["key"],
                "device": device_name,
                "total_frames": result.total_frames,
                "compute_s": compute_s,
            }
        if worker_tracer is not None:
            outcome["trace"] = worker_tracer.trace().to_dict()
        outcome["resources"] = job_resources(started_resources)
        return outcome
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException:
        outcome = {
            "job_id": payload["job_id"],
            "ok": False,
            "error": traceback.format_exc(),
            "compute_s": time.perf_counter() - started,
        }
        if worker_tracer is not None:
            # The spans up to the failure point still tell the story.
            outcome["trace"] = worker_tracer.trace().to_dict()
        outcome["resources"] = job_resources(started_resources)
        return outcome
    finally:
        if heartbeat is not None:
            heartbeat.stop()


def _worker_main(payload: dict[str, Any], result_path: str) -> None:
    """Supervised-process entry: run the job, spool the outcome to disk.

    The outcome file is the worker's *only* report channel -- written
    atomically, so the parent either sees a complete outcome or none at
    all (a killed/dead worker leaves nothing, which the supervisor
    treats as a worker death).
    """
    write_text_atomic(result_path, json.dumps(execute_job_payload(payload)))


@dataclass
class _Running:
    """Parent-side view of one supervised in-flight worker."""

    job: Job
    key: str
    process: multiprocessing.process.BaseProcess
    result_path: Path
    heartbeat_path: Path
    started_perf: float
    started_wall: float
    last_beat_wall: float


@dataclass
class BatchReport:
    """Aggregate outcome and throughput metrics of one ``run_batch``."""

    total: int
    done: int
    failed: int
    cache_hits: int
    computed: int
    retries: int
    timeouts: int
    workers: int
    duration_s: float
    busy_s: float
    failed_ids: tuple[str, ...] = ()
    results: dict[str, str] = field(default_factory=dict)  # job id -> key

    @property
    def jobs_per_s(self) -> float:
        """Jobs drained (done + failed) per wall second."""
        return self.total / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    @property
    def worker_utilisation(self) -> float:
        """Summed worker compute time over the pool's wall-time budget."""
        budget = self.duration_s * self.workers
        return min(1.0, self.busy_s / budget) if budget > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "workers": self.workers,
            "duration_s": self.duration_s,
            "busy_s": self.busy_s,
            "jobs_per_s": self.jobs_per_s,
            "cache_hit_rate": self.cache_hit_rate,
            "worker_utilisation": self.worker_utilisation,
            "failed_ids": list(self.failed_ids),
        }


class _PoolTelemetry:
    """Occupancy gauges and per-job resource records for one ``run_batch``.

    One instance per run, shared by every drain mode.  It deduplicates
    occupancy samples (a poll loop observes the same shape thousands of
    times; only *changes* land in the sink) and keeps the tracer's
    ``service.pool_in_flight`` / ``service.pool_queue_depth`` gauges
    current.
    """

    def __init__(self, sink: TelemetrySink | None, tracer: Tracer):
        self.sink = sink
        self.tracer = tracer
        self._last: tuple[int, int] | None = None
        self.peak_in_flight = 0

    def occupancy(self, in_flight: int, queue_depth: int) -> None:
        """Record the pool shape; no-op unless it changed."""
        self.peak_in_flight = max(self.peak_in_flight, in_flight)
        shape = (in_flight, queue_depth)
        if shape == self._last:
            return
        self._last = shape
        self.tracer.gauge("service.pool_in_flight", float(in_flight))
        self.tracer.gauge("service.pool_queue_depth", float(queue_depth))
        if self.sink is not None:
            self.sink.append(
                "pool", in_flight=in_flight, queue_depth=queue_depth
            )

    def job(self, outcome: dict[str, Any]) -> None:
        """Record one job's resource delta (shipped in its outcome)."""
        resources = outcome.get("resources")
        if not resources:
            return
        self.tracer.observe(
            "service.job_cpu_s",
            (resources.get("cpu_user_s") or 0.0)
            + (resources.get("cpu_sys_s") or 0.0),
        )
        if self.sink is not None:
            self.sink.append(
                "resource", job=outcome["job_id"], live=False, **resources
            )


def _kill(process: multiprocessing.process.BaseProcess) -> None:
    """Stop a hung worker: SIGTERM, then SIGKILL if it ignores that."""
    process.terminate()
    process.join(timeout=1.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=5.0)


def run_batch(
    store: JobStore,
    cache: ResultCache,
    workers: int = 1,
    library: DeviceLibrary | None = None,
    tracer: Tracer | None = None,
    job_timeout_s: float | None = None,
    heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    heartbeat_timeout_s: float | None = None,
    faults: FaultPlan | None = None,
    poll_s: float = DEFAULT_POLL_S,
    sink: TelemetrySink | None = None,
    collect_worker_traces: bool | None = None,
) -> BatchReport:
    """Drain every pending job in ``store`` through ``cache`` + pool.

    ``job_timeout_s`` is the per-job wall deadline; ``heartbeat_timeout_s``
    the staleness threshold on worker beats (beats are emitted every
    ``heartbeat_interval_s``).  Setting either -- or injecting
    ``faults`` (the deterministic test-only plan from
    :mod:`repro.service.faults`, which may crash or wedge workers on
    purpose) -- engages *supervision*: jobs run in dedicated killable
    processes even with ``workers=1``.  Without supervision,
    ``workers=1`` runs jobs inline in the parent (nothing can preempt
    the caller's own thread) and ``workers>1`` runs them on a
    persistent warm process pool that survives across batches, keeping
    per-worker scheme caches hot (``pool.warm_hits``).

    ``sink`` persists the run's telemetry (progress events, one ``job``
    record per outcome keyed by job id + problem key, one end-of-run
    ``run`` record) to a :class:`~repro.obs.TelemetrySink` directory.
    ``collect_worker_traces`` makes each worker record its pipeline run
    on a private tracer and ship the spans back for re-rooting under
    this run's ``batch_run`` span; it defaults to on exactly when
    someone is looking (a recording ``tracer`` or a ``sink``).
    """
    if workers < 1:
        raise ServiceError("workers must be at least 1")
    if job_timeout_s is not None and job_timeout_s <= 0:
        raise ServiceError("job_timeout_s must be positive")
    if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
        raise ServiceError("heartbeat_timeout_s must be positive")
    # Supervision (one killable process per job) engages only when the
    # caller asks for something that needs it: deadlines, heartbeat
    # staleness, or injected faults (which may crash/wedge workers on
    # purpose).  Plain multi-worker batches instead run on a persistent
    # *warm* pool -- workers survive across jobs and batches, so their
    # module-level scheme caches keep paying off (pool.warm_hits).
    supervised = (
        job_timeout_s is not None
        or heartbeat_timeout_s is not None
        or bool(faults)
    )
    if faults and faults.has_hang and not (
        job_timeout_s is not None or heartbeat_timeout_s is not None
    ):
        raise ServiceError(
            "a 'hang' fault needs a job_timeout_s or heartbeat_timeout_s "
            "to ever be detected -- refusing to deadlock the batch"
        )
    tracer = tracer or NULL_TRACER
    if collect_worker_traces is None:
        collect_worker_traces = tracer.enabled or sink is not None
    if sink is not None:
        sink.attach(tracer)
    started = time.perf_counter()
    hits = computed = failed = retries = timeouts = 0
    busy_s = 0.0
    failed_ids: list[Job] = []
    results: dict[str, str] = {}
    job_started_rel: dict[str, float] = {}
    initial = len(store.pending())
    pool_tele = _PoolTelemetry(sink, tracer)

    if sink is not None:
        sink.append(
            "pool", phase="start", pending=initial, workers=workers,
            in_flight=0, queue_depth=initial,
        )

    with tracer.span(
        "batch_run", workers=workers, pending=initial, supervised=supervised
    ):
        # Phase 1: serve every job already answered by the cache.  A job
        # whose spec cannot even be keyed (unparseable XML, unknown
        # device) fails terminally here -- the failure is deterministic
        # before any worker could run, so retrying it is pointless.
        # Replay jobs probe the replay record store (a sibling subtree
        # of the partition cache) instead of the cache itself -- in ONE
        # bulk ``probe_many`` over every member record key, so a fully
        # cached N-trace sweep costs O(segments) reads, not N file
        # opens.  A replay-batch job is a hit exactly when
        # every one of its member records is stored.
        keyed: list[tuple[Job, str, list[str] | None]] = []
        replay_members: list[str] = []
        for job in store.pending():
            try:
                if job.kind == "replay-batch":
                    from ..replay.service import replay_probe_keys

                    key, members = replay_probe_keys(job, library)
                else:
                    key, members = partition_problem_key(job, library), None
            except Exception:
                error = traceback.format_exc()
                while True:
                    store.mark_running(job.id)
                    job = store.mark_failed(job.id, error)
                    if job.state == "failed":
                        break
                failed += 1
                failed_ids.append(job)
                if tracer.enabled:
                    tracer.progress(
                        "batch.job_failed",
                        job=job.id,
                        key=None,
                        attempts=job.attempts,
                    )
                if sink is not None:
                    sink.append(
                        "job", job=job.id, key=None, status="failed",
                        attempts=job.attempts, timeout=False,
                    )
                continue
            keyed.append((job, key, members))
            if members is not None:
                replay_members.extend(members)

        present: set[str] = set()
        if replay_members:
            from ..replay.service import replay_store_for

            replay_store = replay_store_for(cache)
            probe_started = time.perf_counter()
            present = replay_store.probe_many(replay_members)
            tracer.observe(
                "service.cache_probe_s", time.perf_counter() - probe_started
            )

        misses: list[tuple[Job, str]] = []
        for job, key, members in keyed:
            if members is not None:
                hit = all(m in present for m in members)
            else:
                probe_started = time.perf_counter()
                hit = cache.probe(key)
                tracer.observe(
                    "service.cache_probe_s", time.perf_counter() - probe_started
                )
            if hit:
                store.mark_done(job.id, key, cache_hit=True)
                results[job.id] = key
                hits += 1
                if tracer.enabled:
                    tracer.progress("batch.job_cached", job=job.id, key=key)
                if sink is not None:
                    sink.append("job", job=job.id, key=key, status="cached")
            else:
                misses.append((job, key))
        tracer.count("service.cache_hits", hits)
        tracer.count("service.cache_misses", len(misses))

        # Phase 2: compute the misses, re-queueing failures until their
        # attempt caps.  The work heap preserves the store's (priority,
        # round-robin, FIFO) dispatch order -- ``seq`` rises
        # monotonically, so a retry rejoins *behind* queued work of its
        # own priority but still ahead of lower priorities.
        key_of = {job.id: key for job, key in misses}
        heap: list[tuple[int, int, Job, str]] = []
        seq = 0

        def push(job: Job, key: str) -> None:
            nonlocal seq
            heapq.heappush(heap, (-job.priority, seq, job, key))
            seq += 1

        for job, key in misses:
            push(job, key)

        def adopt(outcome: dict[str, Any], job_id: str, key: str) -> None:
            """Re-root a worker's shipped trace under the batch span."""
            if not outcome.get("trace"):
                return
            if isinstance(tracer, RecordingTracer):
                tracer.adopt_trace(
                    outcome["trace"],
                    name="job",
                    start_s=job_started_rel.get(job_id),
                    job=job_id,
                    key=key,
                )

        def handle(outcome: dict[str, Any]) -> None:
            nonlocal computed, failed, retries, timeouts, busy_s
            busy_s += outcome.get("compute_s") or 0.0
            job_id = outcome["job_id"]
            key = key_of[job_id]
            adopt(outcome, job_id, key)
            pool_tele.job(outcome)
            if outcome["ok"]:
                store.mark_done(
                    job_id,
                    outcome["key"],
                    cache_hit=False,
                    compute_s=outcome["compute_s"],
                )
                results[job_id] = outcome["key"]
                computed += 1
                if outcome.get("batch"):
                    tracer.count("replay.batch_jobs", 1)
                tracer.observe("service.job_wall_s", outcome["compute_s"])
                if tracer.enabled:
                    tracer.progress(
                        "batch.job_done",
                        job=job_id,
                        key=outcome["key"],
                        total_frames=outcome["total_frames"],
                        compute_s=outcome["compute_s"],
                    )
                if sink is not None:
                    extra: dict[str, Any] = {}
                    if outcome.get("replay") is not None:
                        extra["replay"] = outcome["replay"]
                    sink.append(
                        "job", job=job_id, key=outcome["key"], status="done",
                        compute_s=outcome["compute_s"],
                        total_frames=outcome["total_frames"],
                        **extra,
                    )
                return
            timed_out = bool(outcome.get("timeout"))
            if timed_out:
                timeouts += 1
            job = store.mark_failed(job_id, outcome["error"])
            if job.state == "failed":
                failed += 1
                failed_ids.append(job)
                status = "failed"
                if tracer.enabled:
                    tracer.progress(
                        "batch.job_failed",
                        job=job_id,
                        key=key,
                        attempts=job.attempts,
                    )
            else:
                retries += 1
                push(job, key)
                status = "retried"
                if tracer.enabled:
                    tracer.progress(
                        "batch.job_retried",
                        job=job_id,
                        key=key,
                        attempts=job.attempts,
                    )
            if sink is not None:
                sink.append(
                    "job", job=job_id, key=key, status=status,
                    attempts=job.attempts, timeout=timed_out,
                )

        def payload_for(job: Job, key: str) -> dict[str, Any]:
            claimed = store.mark_running(job.id)
            job_started_rel[job.id] = tracer.now()
            if tracer.enabled:
                tracer.progress("batch.job_started", job=job.id, key=key)
            payload: dict[str, Any] = {
                "job_id": job.id,
                "design_xml": job.design_xml,
                "device": job.device,
                "max_candidate_sets": job.max_candidate_sets,
                "kind": job.kind,
                "replay": job.replay,
                "cache_root": str(cache.root),
                "key": key,
                "library": library,
                "collect_trace": collect_worker_traces,
            }
            if faults:
                payload["fault"] = faults.payload_for(job.name, claimed.attempts)
            return payload

        if not supervised:
            if workers == 1:
                while heap:
                    _prio, _seq, job, key = heapq.heappop(heap)
                    pool_tele.occupancy(1, len(heap))
                    handle(execute_job_payload(payload_for(job, key)))
                pool_tele.occupancy(0, 0)
            else:
                _drain_warm(
                    heap=heap,
                    workers=workers,
                    payload_for=payload_for,
                    handle=handle,
                    pool_tele=pool_tele,
                )
        else:
            _drain_supervised(
                heap=heap,
                workers=workers,
                payload_for=payload_for,
                handle=handle,
                store=store,
                tracer=tracer,
                job_timeout_s=job_timeout_s,
                heartbeat_interval_s=heartbeat_interval_s,
                heartbeat_timeout_s=heartbeat_timeout_s,
                poll_s=poll_s,
                pool_tele=pool_tele,
            )

        duration = time.perf_counter() - started
        tracer.count("service.jobs_done", hits + computed)
        tracer.count("service.jobs_failed", failed)
        tracer.count("service.job_retries", retries)
        tracer.count("service.timeouts", timeouts)
        # Same definition as BatchReport.jobs_per_s: jobs drained
        # (total == done + failed once the queue is empty) per second.
        tracer.gauge(
            "service.jobs_per_s", initial / duration if duration > 0 else 0.0
        )
        tracer.gauge(
            "service.cache_hit_rate",
            hits / initial if initial else 0.0,
        )

    report = BatchReport(
        total=initial,
        done=hits + computed,
        failed=failed,
        cache_hits=hits,
        computed=computed,
        retries=retries,
        timeouts=timeouts,
        workers=workers,
        duration_s=duration,
        busy_s=busy_s,
        failed_ids=tuple(j.id for j in failed_ids),
        results=results,
    )
    if sink is not None:
        record: dict[str, Any] = {"report": report.to_dict()}
        if isinstance(tracer, RecordingTracer):
            trace = tracer.trace()
            record["counters"] = dict(trace.counters)
            record["gauges"] = dict(trace.gauges)
            record["histograms"] = {
                name: h.to_dict() for name, h in trace.histograms.items()
            }
        sink.append("run", **record)
    return report


#: Persistent warm batch pools, cached per worker count.  Workers
#: survive across jobs *and* ``run_batch`` calls, which is what lets the
#: replay service's module-level scheme cache keep paying off
#: (``pool.warm_hits``) fleet-wide.
_WARM_EXECUTORS: dict[int, Any] = {}


def _warm_executor(workers: int):
    executor = _WARM_EXECUTORS.get(workers)
    if executor is None:
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=workers)
        _WARM_EXECUTORS[workers] = executor
    return executor


def _retire_warm_executor(workers: int) -> None:
    executor = _WARM_EXECUTORS.pop(workers, None)
    if executor is not None:
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


def _drain_warm(heap, workers, payload_for, handle, pool_tele=None) -> None:
    """Unsupervised multi-worker drain on the persistent warm pool.

    At most ``workers`` jobs in flight; each completion refills the
    slot (and may push a retry back onto ``heap`` via ``handle``).  A
    broken pool (a worker killed hard, e.g. by the OOM killer) fails
    every in-flight job -- their attempt caps still apply, so they
    re-queue like any other failure -- and the pool is rebuilt before
    the drain continues, so one dead worker never strands the batch.
    """
    from concurrent.futures import FIRST_COMPLETED, wait
    from concurrent.futures.process import BrokenProcessPool

    in_flight: dict[Any, tuple[str, float]] = {}

    def fail(job_id: str, started_perf: float, error: str) -> None:
        handle({
            "job_id": job_id,
            "ok": False,
            "error": error,
            "compute_s": time.perf_counter() - started_perf,
        })

    while heap or in_flight:
        executor = _warm_executor(workers)
        while heap and len(in_flight) < workers:
            _prio, _seq, job, key = heapq.heappop(heap)
            started_perf = time.perf_counter()
            try:
                future = executor.submit(
                    execute_job_payload, payload_for(job, key)
                )
            except BrokenProcessPool:
                _retire_warm_executor(workers)
                fail(
                    job.id, started_perf,
                    "warm worker pool broke before dispatch; pool rebuilt",
                )
                executor = _warm_executor(workers)
                continue
            in_flight[future] = (job.id, started_perf)
        if pool_tele is not None:
            pool_tele.occupancy(len(in_flight), len(heap))
        if not in_flight:
            continue
        done, _pending = wait(set(in_flight), return_when=FIRST_COMPLETED)
        broken = False
        for future in done:
            job_id, started_perf = in_flight.pop(future)
            try:
                outcome = future.result()
            except (KeyboardInterrupt, SystemExit):
                raise
            except BrokenProcessPool:
                broken = True
                fail(
                    job_id, started_perf,
                    "worker process died without reporting (warm pool broke)",
                )
            except BaseException:
                fail(job_id, started_perf, traceback.format_exc())
            else:
                handle(outcome)
        if broken:
            # The executor is unusable; every remaining in-flight
            # future fails with it.  Fail them now (their retries go
            # back on the heap) and start the next round on a fresh
            # pool.
            for job_id, started_perf in in_flight.values():
                fail(
                    job_id, started_perf,
                    "worker process died without reporting (warm pool broke)",
                )
            in_flight.clear()
            _retire_warm_executor(workers)
    if pool_tele is not None:
        pool_tele.occupancy(0, 0)


def _shutdown_warm_executors() -> None:
    while _WARM_EXECUTORS:
        workers, _executor = next(iter(_WARM_EXECUTORS.items()))
        _retire_warm_executor(workers)


atexit.register(_shutdown_warm_executors)


def _drain_supervised(
    heap,
    workers,
    payload_for,
    handle,
    store,
    tracer,
    job_timeout_s,
    heartbeat_interval_s,
    heartbeat_timeout_s,
    poll_s,
    pool_tele=None,
) -> None:
    """The supervised drain loop: one killable process per job.

    At most ``workers`` processes run at once; each slot is refilled the
    moment its worker reports, dies or is killed, so the loop terminates
    whenever every job reaches a terminal state -- a hung worker cannot
    stall it.  Detection channels, checked every ``poll_s``:

    * an outcome spool file -- the worker finished (ok or not);
    * a dead process with no outcome -- the worker crashed hard;
    * ``job_timeout_s`` exceeded -- the job overran its deadline;
    * no heartbeat for ``heartbeat_timeout_s`` -- the worker is wedged
      (detected well before a generous deadline would fire).
    """
    ctx = multiprocessing.get_context()
    workdir = store.directory / WORK_DIRNAME
    workdir.mkdir(parents=True, exist_ok=True)
    running: dict[str, _Running] = {}

    def spawn(job: Job, key: str) -> None:
        payload = payload_for(job, key)
        result_path = workdir / f"{job.id}.outcome.json"
        heartbeat_path = workdir / f"{job.id}.heartbeat"
        result_path.unlink(missing_ok=True)
        heartbeat_path.unlink(missing_ok=True)
        payload["heartbeat_path"] = str(heartbeat_path)
        payload["heartbeat_interval_s"] = heartbeat_interval_s
        process = ctx.Process(
            target=_worker_main,
            args=(payload, str(result_path)),
            daemon=True,
            name=f"repro-batch-{job.id}",
        )
        process.start()
        now = time.time()
        running[job.id] = _Running(
            job=job,
            key=key,
            process=process,
            result_path=result_path,
            heartbeat_path=heartbeat_path,
            started_perf=time.perf_counter(),
            started_wall=now,
            last_beat_wall=now,
        )

    def retire(entry: _Running) -> None:
        entry.result_path.unlink(missing_ok=True)
        entry.heartbeat_path.unlink(missing_ok=True)

    try:
        while heap or running:
            while heap and len(running) < workers:
                _prio, _seq, job, key = heapq.heappop(heap)
                spawn(job, key)
            if pool_tele is not None:
                pool_tele.occupancy(len(running), len(heap))

            time.sleep(poll_s)
            now_wall = time.time()
            for job_id, entry in list(running.items()):
                # Channel 1: the worker reported an outcome.
                if entry.result_path.exists():
                    outcome = json.loads(
                        entry.result_path.read_text(encoding="utf-8")
                    )
                    entry.process.join(timeout=5.0)
                    if entry.process.is_alive():  # pragma: no cover
                        _kill(entry.process)
                    retire(entry)
                    del running[job_id]
                    handle(outcome)
                    continue
                # Channel 2: the worker died without reporting.
                if not entry.process.is_alive():
                    retire(entry)
                    del running[job_id]
                    handle({
                        "job_id": job_id,
                        "ok": False,
                        "error": (
                            "worker process died without reporting "
                            f"(exit code {entry.process.exitcode})"
                        ),
                        "compute_s": time.perf_counter() - entry.started_perf,
                    })
                    continue
                # Observe heartbeats (and surface them to the tracer).
                try:
                    beat = entry.heartbeat_path.stat().st_mtime
                except OSError:
                    beat = entry.started_wall
                if beat > entry.last_beat_wall:
                    entry.last_beat_wall = beat
                    if tracer.enabled:
                        tracer.progress(
                            "batch.heartbeat",
                            job=job_id,
                            key=entry.key,
                            elapsed_s=time.perf_counter() - entry.started_perf,
                        )
                # Channels 3 + 4: deadline and heartbeat staleness.
                elapsed = time.perf_counter() - entry.started_perf
                reason = None
                if job_timeout_s is not None and elapsed > job_timeout_s:
                    reason = f"deadline {job_timeout_s:g}s exceeded"
                elif (
                    heartbeat_timeout_s is not None
                    and now_wall - entry.last_beat_wall > heartbeat_timeout_s
                ):
                    reason = (
                        f"no heartbeat for {now_wall - entry.last_beat_wall:.2f}s "
                        f"(threshold {heartbeat_timeout_s:g}s)"
                    )
                if reason is None:
                    continue
                _kill(entry.process)
                retire(entry)
                del running[job_id]
                if tracer.enabled:
                    tracer.progress(
                        "batch.job_timeout",
                        job=job_id,
                        key=entry.key,
                        reason=reason,
                        elapsed_s=elapsed,
                    )
                handle({
                    "job_id": job_id,
                    "ok": False,
                    "error": f"timeout after {elapsed:.2f}s: {reason}",
                    "compute_s": elapsed,
                    "timeout": True,
                })
        if pool_tele is not None:
            pool_tele.occupancy(0, 0)
    finally:
        # Never leak workers, whatever interrupted the drain.
        for entry in running.values():
            _kill(entry.process)
            retire(entry)
