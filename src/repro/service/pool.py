"""Supervised multiprocessing batch runner: fan pending jobs out across
cores and never let one of them wedge the batch.

``run_batch`` validates its arguments, then drains a
:class:`~repro.service.jobs.JobStore` phase by phase on one private run
state (``_Batch``: the work heap, the per-job keys and a
:class:`BatchReport` tallied in place):

1. ``serve_cached``: every pending job's :func:`repro.core.problem_key`
   is computed in the parent (cheap: one XML parse + one SHA-256 per
   distinct problem) and probed in the
   :class:`~repro.service.cache.ResultCache` (envelope check only, no
   result deserialisation) -- hits complete immediately, **without
   dispatching a worker or re-running any search stage**;
2. misses are executed in (priority desc, fair round-robin, FIFO) order
   -- the :meth:`~repro.service.jobs.JobStore.pending` schedule --
   inline for an unsupervised ``workers=1`` run, else (``_drain``) on
   one persistent *warm* pool of owned worker processes (workers
   survive across jobs and batches, so no job pays a process start).
   Every job reaches its partition result through one step,
   :func:`~repro.service.problem.partition_cached`: the result cache
   first, the search only on a miss;
3. ``settle``: a worker exception never poisons the batch: the
   traceback travels back as data, the job re-queues until its attempt
   cap, then lands in ``failed`` while every other job keeps flowing;
4. supervision is a policy on that same pool: with a ``job_timeout_s``
   deadline or a ``heartbeat_timeout_s`` staleness threshold set, each
   worker **heartbeats** (touches a per-job file every
   ``heartbeat_interval_s``) while computing, and the drain loop wakes
   every :data:`DEFAULT_POLL_S` to check both -- a hung worker is
   killed and replaced, its job fails with a ``timeout ...`` error and
   re-queues until its attempt cap, and every other worker runs on.  A
   worker that *dies* without reporting (OOM kill, segfault) fails only
   its own job, detected through its process sentinel without waiting
   for any deadline;
5. ``finish`` reads the ``service.*`` job counters and gauges off the
   report and writes the sink's end-of-run ``run`` record.

Deterministic fault injection for all of the above lives in
:mod:`repro.service.faults` and threads through the worker payload --
production runs never construct a plan.

Progress streams through the :mod:`repro.obs` tracer (``batch.*``
events, ``service.*`` counters -- see docs/OBSERVABILITY.md); one
method, ``_Batch.emit``, publishes each job outcome's event and sink
``job`` record.
"""

from __future__ import annotations

import atexit
import heapq
import itertools
import json
import multiprocessing
import sys
import threading
import time
import traceback
from contextlib import suppress
from dataclasses import dataclass, field, fields
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Iterator

from ..arch.library import DeviceLibrary
from ..obs import NULL_TRACER, RecordingTracer, TelemetrySink, Tracer
from ..obs.resources import job_resources, sample_self
from ..util import write_text_atomic
from .cache import ResultCache
from .faults import FaultPlan, inject, spec_from_payload
from .jobs import Job, JobStore
from .problem import (
    ResolvedProblem,
    partition_cached,
    resolve_problem_text,
)

#: Default worker beat period under supervision (seconds).
DEFAULT_HEARTBEAT_INTERVAL_S = 0.5

#: Wake-up period of the drain loop under supervision (seconds).
DEFAULT_POLL_S = 0.05

#: Scratch space (per-job heartbeat files) inside the queue dir.
WORK_DIRNAME = ".work"


class ServiceError(RuntimeError):
    """Raised for batch-service misuse (not for per-job failures)."""


def partition_problem_key(job: Job, library: DeviceLibrary | None = None) -> str:
    """The content-address of a job's *partitioning* problem.

    The result-cache key of the job's partition half, whatever its kind
    (:meth:`~repro.service.problem.ResolvedProblem.key`).
    """
    problem = resolve_problem_text(job.design_xml, job.device, library)
    return problem.key(job.max_candidate_sets)


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
        # Join so no beat lands after the job reports: the worker
        # outlives its job, and the parent deletes the file on outcome.
        self._stopped.set()
        self._thread.join()


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
    worker_tracer = RecordingTracer() if payload.get("collect_trace") else None
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
            result, device_name = partition_cached(
                payload, ResultCache(payload["cache_root"]), started,
                worker_tracer or NULL_TRACER,
            )
            outcome = {
                "job_id": payload["job_id"],
                "ok": True,
                "key": payload["partition_key"],
                "device": device_name,
                "total_frames": result.total_frames,
                "compute_s": time.perf_counter() - started,
            }
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException:
        outcome = _failed(payload["job_id"], traceback.format_exc(), started)
    finally:
        if heartbeat is not None:
            heartbeat.stop()
    if worker_tracer is not None:
        # After a failure, the spans up to it still tell the story.
        outcome["trace"] = worker_tracer.trace().to_dict()
    outcome["resources"] = job_resources(started_resources)
    return outcome


def _failed(job_id: str, error: str, started: float,
            **extra: Any) -> dict[str, Any]:
    """The outcome of a failed attempt begun at ``started`` (perf clock)."""
    return {
        "job_id": job_id,
        "ok": False,
        "error": error,
        "compute_s": time.perf_counter() - started,
        **extra,
    }


@dataclass
class BatchReport:
    """Aggregate outcome and throughput metrics of one ``run_batch``."""

    total: int = 0
    done: int = 0
    failed: int = 0
    cache_hits: int = 0
    computed: int = 0
    retries: int = 0
    timeouts: int = 0
    workers: int = 1
    duration_s: float = 0.0
    busy_s: float = 0.0
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
        """The count and time fields, the derived rates, then the failed
        ids; ``results`` (one entry per job) stays out of the summary."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("failed_ids", "results")}
        doc.update(
            jobs_per_s=self.jobs_per_s,
            cache_hit_rate=self.cache_hit_rate,
            worker_utilisation=self.worker_utilisation,
            failed_ids=list(self.failed_ids),
        )
        return doc


@dataclass
class _Batch:
    """One ``run_batch`` call's run state (see the module docstring)."""

    store: JobStore
    cache: ResultCache
    library: DeviceLibrary | None
    tracer: Tracer
    sink: TelemetrySink | None
    faults: FaultPlan | None
    report: BatchReport
    started: float = field(default_factory=time.perf_counter)
    # The work heap preserves the store's (priority, round-robin, FIFO)
    # dispatch order -- ``seq`` rises monotonically, so a retry rejoins
    # *behind* queued work of its own priority but still ahead of lower
    # priorities.
    heap: list[tuple[int, int, Job, str]] = field(default_factory=list)
    seq: Iterator[int] = field(default_factory=itertools.count)
    partition_keys: dict[str, str] = field(default_factory=dict)
    # job id -> (result key, tracer time) of its attempt in flight
    claims: dict[str, tuple[str, float]] = field(default_factory=dict)
    shape: tuple[int, int] | None = None  # last recorded occupancy

    def push(self, job: Job, key: str) -> None:
        heapq.heappush(self.heap, (-job.priority, next(self.seq), job, key))

    def pop(self) -> tuple[Job, str]:
        _prio, _seq, job, key = heapq.heappop(self.heap)
        return job, key

    def serve_cached(self) -> None:
        """Phase 1: serve every job already answered by the cache.

        A job whose spec cannot even be keyed (unparseable XML, unknown
        device) fails terminally here -- the failure is deterministic
        before any worker could run, so retrying it is pointless.
        Replay jobs probe the replay record store (a sibling subtree of
        the partition cache) instead of the cache itself -- in ONE bulk
        ``probe_many`` over every member record key, so a fully cached
        N-trace sweep costs O(segments) reads, not N file opens.  A
        replay-batch job is a hit exactly when every one of its member
        records is stored.  Each distinct problem spec is parsed and
        keyed once per call, however many policies and trace batches
        replay it; the worker payload carries the partition key, so a
        worker parses the XML only when it has to search.  Misses go
        onto the work heap.
        """
        store, report, tracer = self.store, self.report, self.tracer
        keyed: list[tuple[Job, str, list[str] | None]] = []
        replay_members: list[str] = []
        problems: dict[tuple, tuple[str, ResolvedProblem]] = {}
        for job in store.pending():
            spec = (job.design_xml, job.device, job.max_candidate_sets)
            try:
                if spec not in problems:
                    problem = resolve_problem_text(
                        job.design_xml, job.device, self.library
                    )
                    problems[spec] = (
                        problem.key(job.max_candidate_sets), problem
                    )
                pkey, problem = problems[spec]
                if job.kind == "replay-batch":
                    from ..replay.service import replay_keys

                    key, members = replay_keys(job, pkey, problem.design)
                else:
                    key, members = pkey, None
            except Exception:
                error = traceback.format_exc()
                while job.state != "failed":
                    store.mark_running(job.id)
                    job = store.mark_failed(job.id, error)
                self.failure(job, None, timed_out=False)
                continue
            self.partition_keys[job.id] = pkey
            keyed.append((job, key, members))
            if members is not None:
                replay_members.extend(members)

        present: set[str] = set()
        if replay_members:
            from ..replay.service import replay_store_for

            replay_store = replay_store_for(self.cache)
            probe_started = time.perf_counter()
            present = replay_store.probe_many(replay_members)
            tracer.observe(
                "service.cache_probe_s", time.perf_counter() - probe_started
            )
        for job, key, members in keyed:
            if members is not None:
                hit = all(m in present for m in members)
            else:
                probe_started = time.perf_counter()
                hit = self.cache.probe(key)
                tracer.observe(
                    "service.cache_probe_s", time.perf_counter() - probe_started
                )
            if not hit:
                self.push(job, key)
                continue
            store.mark_done(job.id, key, cache_hit=True)
            report.results[job.id] = key
            report.cache_hits += 1
            report.done += 1
            self.emit("cached", job.id, key)
        tracer.count("service.cache_hits", report.cache_hits)
        tracer.count("service.cache_misses", len(self.heap))

    def payload_for(self, job: Job, key: str) -> dict[str, Any]:
        """Claim ``job`` and build its worker payload."""
        claimed = self.store.mark_running(job.id)
        self.claims[job.id] = (key, self.tracer.now())
        if self.tracer.enabled:
            self.tracer.progress("batch.job_started", job=job.id, key=key)
        payload: dict[str, Any] = {
            "job_id": job.id,
            "design_xml": job.design_xml,
            "device": job.device,
            "max_candidate_sets": job.max_candidate_sets,
            "kind": job.kind,
            "replay": job.replay,
            "cache_root": str(self.cache.root),
            "partition_key": self.partition_keys[job.id],
            "library": self.library,
            "collect_trace": self.tracer.enabled or self.sink is not None,
        }
        if self.faults:
            payload["fault"] = self.faults.payload_for(
                job.name, claimed.attempts
            )
        return payload

    def settle(self, outcome: dict[str, Any]) -> None:
        """Book one worker outcome: its trace, resources and result."""
        tracer, report = self.tracer, self.report
        report.busy_s += outcome.get("compute_s") or 0.0
        job_id = outcome["job_id"]
        key, started_rel = self.claims.pop(job_id)
        if outcome.get("trace") and isinstance(tracer, RecordingTracer):
            # Re-root the worker's shipped trace under the batch span.
            tracer.adopt_trace(
                outcome["trace"], name="job", start_s=started_rel,
                job=job_id, key=key,
            )
        resources = outcome.get("resources")
        if resources:
            tracer.observe(
                "service.job_cpu_s",
                (resources.get("cpu_user_s") or 0.0)
                + (resources.get("cpu_sys_s") or 0.0),
            )
            if self.sink is not None:
                self.sink.append(
                    "resource", job=job_id, live=False, **resources
                )
        if not outcome["ok"]:
            job = self.store.mark_failed(job_id, outcome["error"])
            self.failure(job, key, bool(outcome.get("timeout")))
            return
        self.store.mark_done(
            job_id, outcome["key"], cache_hit=False,
            compute_s=outcome["compute_s"],
        )
        report.results[job_id] = outcome["key"]
        report.computed += 1
        report.done += 1
        if outcome.get("batch"):
            tracer.count("replay.batch_jobs", 1)
        tracer.observe("service.job_wall_s", outcome["compute_s"])
        replay = outcome.get("replay")
        self.emit(
            "done", job_id, outcome["key"],
            record={} if replay is None else {"replay": replay},
            total_frames=outcome["total_frames"],
            compute_s=outcome["compute_s"],
        )

    def failure(self, job: Job, key: str | None, timed_out: bool) -> None:
        """Re-queue a failed attempt under its attempt cap, else fail it
        (an unkeyable job arrives already ``failed``, with no key)."""
        self.report.timeouts += timed_out
        if job.state == "failed":
            self.report.failed += 1
            self.report.failed_ids += (job.id,)
            status = "failed"
        else:
            self.report.retries += 1
            self.push(job, key)
            status = "retried"
        self.emit(status, job.id, key, record={"timeout": timed_out},
                  attempts=job.attempts)

    def emit(self, status: str, job_id: str, key: str | None,
             record: dict[str, Any] | None = None, **payload: Any) -> None:
        """Publish one job outcome: the ``batch.job_<status>`` progress
        event carries ``payload``; the sink ``job`` record carries it
        plus ``record``."""
        if self.tracer.enabled:
            self.tracer.progress(
                f"batch.job_{status}", job=job_id, key=key, **payload
            )
        if self.sink is not None:
            self.sink.append(
                "job", job=job_id, key=key, status=status, **payload,
                **(record or {}),
            )

    def occupancy(self, in_flight: int, queue_depth: int) -> None:
        """Record the pool shape in the ``service.pool_*`` gauges and the
        sink -- only on a change: a supervised drain observes the same
        shape thousands of times."""
        if (in_flight, queue_depth) == self.shape:
            return
        self.shape = (in_flight, queue_depth)
        self.tracer.gauge("service.pool_in_flight", float(in_flight))
        self.tracer.gauge("service.pool_queue_depth", float(queue_depth))
        if self.sink is not None:
            self.sink.append(
                "pool", in_flight=in_flight, queue_depth=queue_depth
            )

    def finish(self) -> BatchReport:
        """Close the drained run: its duration, the ``service.jobs_*``
        counters and gauges, and the sink's end-of-run ``run`` record."""
        self.occupancy(0, 0)
        report, tracer = self.report, self.tracer
        report.duration_s = time.perf_counter() - self.started
        tracer.count("service.jobs_done", report.done)
        tracer.count("service.jobs_failed", report.failed)
        tracer.count("service.job_retries", report.retries)
        tracer.count("service.timeouts", report.timeouts)
        tracer.gauge("service.jobs_per_s", report.jobs_per_s)
        tracer.gauge("service.cache_hit_rate", report.cache_hit_rate)
        if self.sink is not None:
            record: dict[str, Any] = {"report": report.to_dict()}
            if isinstance(tracer, RecordingTracer):
                record["counters"] = dict(tracer.counters)
                record["gauges"] = dict(tracer.gauges)
                record["histograms"] = {
                    name: h.to_dict() for name, h in tracer.histograms.items()
                }
            self.sink.append("run", **record)
        return report


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
    sink: TelemetrySink | None = None,
) -> BatchReport:
    """Drain every pending job in ``store`` through ``cache`` + pool.

    ``job_timeout_s`` is the per-job wall deadline; ``heartbeat_timeout_s``
    the staleness threshold on worker beats (beats are emitted every
    ``heartbeat_interval_s``).  Setting either engages supervision (see
    the module docstring), and jobs then run on the pool even with
    ``workers=1``; unsupervised, ``workers=1`` runs them inline in the
    parent, since nothing can preempt the caller's own thread.
    ``faults`` is the deterministic test-only plan from
    :mod:`repro.service.faults`; a ``hang`` in it needs one of the two
    thresholds, or nothing could ever end the batch.

    ``sink`` persists the run's telemetry (progress events, one ``job``
    record per outcome keyed by job id + problem key, one end-of-run
    ``run`` record) to a :class:`~repro.obs.TelemetrySink` directory.
    Whenever someone is looking (a recording ``tracer`` or a ``sink``),
    each worker records its pipeline run on a private tracer and ships
    the spans back for re-rooting under this run's ``batch_run`` span.
    """
    if workers < 1:
        raise ServiceError("workers must be at least 1")
    if job_timeout_s is not None and job_timeout_s <= 0:
        raise ServiceError("job_timeout_s must be positive")
    if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
        raise ServiceError("heartbeat_timeout_s must be positive")
    supervised = job_timeout_s is not None or heartbeat_timeout_s is not None
    if faults and faults.has_hang and not supervised:
        raise ServiceError(
            "a 'hang' fault needs a job_timeout_s or heartbeat_timeout_s "
            "to ever be detected -- refusing to deadlock the batch"
        )
    tracer = tracer or NULL_TRACER
    pending = len(store.pending())
    batch = _Batch(store, cache, library, tracer, sink, faults,
                   BatchReport(total=pending, workers=workers))
    if sink is not None:
        sink.attach(tracer)
        sink.append(
            "pool", phase="start", pending=pending, workers=workers,
            in_flight=0, queue_depth=pending,
        )

    with tracer.span("batch_run", workers=workers, pending=pending):
        batch.serve_cached()
        if workers == 1 and not supervised:
            # Nothing to preempt: run in the caller's own process.
            while batch.heap:
                job, key = batch.pop()
                batch.occupancy(1, len(batch.heap))
                batch.settle(execute_job_payload(batch.payload_for(job, key)))
        elif batch.heap:
            policy = _Supervision(
                store.directory / WORK_DIRNAME, job_timeout_s,
                heartbeat_interval_s, heartbeat_timeout_s,
            )
            _drain(batch, workers, policy if supervised else None)
        return batch.finish()


def _serve(conn) -> None:
    """A pool worker's whole life: run each call the parent sends."""
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        conn.send(fn(*args))


class _Worker:
    """One owned pool process and the parent's end of its pipe."""

    def __init__(self) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_serve, args=(child,), daemon=True,
            name="repro-batch-worker",
        )
        self.process.start()
        child.close()

    def submit(self, fn, *args) -> "_Worker":
        """Start ``fn(*args)`` in the worker; :meth:`result` receives it."""
        self.conn.send((fn, args))
        return self

    def result(self) -> Any:
        return self.conn.recv()

    def stop(self, wait: bool = True) -> None:
        """End the worker: after its current call (``wait``) or now.

        The stop order travels the pipe like any call, so it needs no
        EOF -- which a sibling forked later, holding a copy of this
        pipe's parent end, would withhold.  Idempotent.
        """
        if wait:
            with suppress(OSError):
                self.conn.send((sys.exit, (0,)))
        else:
            self.process.kill()
        self.process.join()
        self.conn.close()


class _Pool:
    """A fixed number of owned, persistent worker processes.

    Unlike a ``ProcessPoolExecutor``, one worker can be killed and
    replaced without breaking the others, so supervision can preempt a
    single job while every other job in flight runs on.
    """

    def __init__(self, size: int) -> None:
        self.workers = [_Worker() for _ in range(size)]
        self._turn = 0

    def submit(self, fn, *args) -> _Worker:
        """Send a call to the next worker in turn (``Executor`` style)."""
        worker = self.workers[self._turn % len(self.workers)]
        self._turn += 1
        return worker.submit(fn, *args)

    def replace(self, worker: _Worker) -> _Worker:
        """Kill ``worker`` and fork a fresh one into its slot."""
        worker.stop(wait=False)
        fresh = _Worker()
        self.workers[self.workers.index(worker)] = fresh
        return fresh

    def shutdown(self, wait: bool = True) -> None:
        """Stop every worker (see :meth:`_Worker.stop`).  Idempotent."""
        for worker in self.workers:
            worker.stop(wait)


#: The persistent warm batch pools (module docstring, phase 2), cached
#: per worker count.
_WARM_EXECUTORS: dict[int, _Pool] = {}


def _warm_executor(workers: int) -> _Pool:
    executor = _WARM_EXECUTORS.get(workers)
    if executor is None:
        executor = _WARM_EXECUTORS[workers] = _Pool(workers)
    return executor


def _retire_warm_executor(workers: int) -> None:
    executor = _WARM_EXECUTORS.pop(workers, None)
    if executor is not None:
        executor.shutdown(wait=False)


def _shutdown_warm_executors() -> None:
    while _WARM_EXECUTORS:
        _retire_warm_executor(next(iter(_WARM_EXECUTORS)))


atexit.register(_shutdown_warm_executors)


@dataclass
class _Flight:
    """Parent-side view of the job one busy worker is running."""

    job: Job
    key: str
    started_perf: float
    last_beat_wall: float  # the dispatch time until a beat lands
    heartbeat_path: Path | None = None


@dataclass(frozen=True)
class _Supervision:
    """The deadline and heartbeat policy the drain loop applies."""

    workdir: Path
    job_timeout_s: float | None
    heartbeat_interval_s: float
    heartbeat_timeout_s: float | None

    def arm(self, payload: dict[str, Any], flight: _Flight) -> None:
        """Make the job's worker beat into a fresh per-job file."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        flight.heartbeat_path = self.workdir / f"{flight.job.id}.heartbeat"
        flight.heartbeat_path.unlink(missing_ok=True)
        payload["heartbeat_path"] = str(flight.heartbeat_path)
        payload["heartbeat_interval_s"] = self.heartbeat_interval_s

    def overdue(self, flight: _Flight, tracer: Tracer) -> str | None:
        """Why the flight's worker must be killed now, or ``None``."""
        assert flight.heartbeat_path is not None
        elapsed = time.perf_counter() - flight.started_perf
        try:
            beat = flight.heartbeat_path.stat().st_mtime
        except OSError:
            beat = flight.last_beat_wall
        if beat > flight.last_beat_wall:
            flight.last_beat_wall = beat
            if tracer.enabled:
                tracer.progress(
                    "batch.heartbeat", job=flight.job.id, key=flight.key,
                    elapsed_s=elapsed,
                )
        if self.job_timeout_s is not None and elapsed > self.job_timeout_s:
            return f"deadline {self.job_timeout_s:g}s exceeded"
        stale = time.time() - flight.last_beat_wall
        if (
            self.heartbeat_timeout_s is not None
            and stale > self.heartbeat_timeout_s
        ):
            return (
                f"no heartbeat for {stale:.2f}s "
                f"(threshold {self.heartbeat_timeout_s:g}s)"
            )
        return None


def _drain(batch: _Batch, workers: int,
           policy: _Supervision | None) -> None:
    """The one multi-process drain loop, on the warm pool of ``workers``.

    Every idle worker takes the next job off ``batch.heap``; every
    outcome frees its worker for the next one (``batch.settle`` may push
    a retry back onto the heap).  The loop waits on the busy workers'
    pipes and process sentinels: with no ``policy`` it blocks until one
    reports or dies; under a policy it also wakes every
    :data:`DEFAULT_POLL_S` and kills and replaces each worker the policy
    finds overdue.  A worker that dies unprompted fails only its own job
    and is replaced before its slot is used again.
    """
    pool = _warm_executor(workers)
    busy: dict[_Worker, _Flight] = {}
    try:
        while batch.heap or busy:
            for worker in list(pool.workers):
                if not batch.heap:
                    break
                if worker in busy:
                    continue
                if not worker.process.is_alive():
                    worker = pool.replace(worker)
                job, key = batch.pop()
                payload = batch.payload_for(job, key)
                flight = _Flight(job, key, time.perf_counter(), time.time())
                if policy is not None:
                    policy.arm(payload, flight)
                # A worker that died since the liveness check fails the
                # send; its sentinel then reports the death like any other.
                with suppress(OSError):
                    worker.submit(execute_job_payload, payload)
                busy[worker] = flight
            batch.occupancy(len(busy), len(batch.heap))
            ready = set(wait(
                [w.conn for w in busy] + [w.process.sentinel for w in busy],
                timeout=None if policy is None else DEFAULT_POLL_S,
            ))
            for worker, flight in list(busy.items()):
                if worker.conn in ready or worker.process.sentinel in ready:
                    outcome = _collect(worker, flight, pool)
                elif policy is not None:
                    reason = policy.overdue(flight, batch.tracer)
                    if reason is None:
                        continue
                    pool.replace(worker)
                    outcome = _timeout(flight, reason, batch.tracer)
                else:
                    continue
                del busy[worker]
                if flight.heartbeat_path is not None:
                    flight.heartbeat_path.unlink(missing_ok=True)
                batch.settle(outcome)
    finally:
        if busy:
            # Interrupted with jobs in flight: never leak a busy worker
            # into the next batch.
            _retire_warm_executor(workers)
            for flight in busy.values():
                if flight.heartbeat_path is not None:
                    flight.heartbeat_path.unlink(missing_ok=True)


def _collect(worker: _Worker, flight: _Flight, pool: _Pool) -> dict[str, Any]:
    """A ready worker's outcome -- or its death, which replaces it."""
    with suppress(EOFError, OSError):
        if worker.conn.poll():
            return worker.result()
    worker.process.join(timeout=5.0)
    exitcode = worker.process.exitcode
    pool.replace(worker)
    return _failed(
        flight.job.id,
        f"worker process died without reporting (exit code {exitcode})",
        flight.started_perf,
    )


def _timeout(flight: _Flight, reason: str, tracer: Tracer) -> dict[str, Any]:
    """The outcome of a killed, overdue attempt."""
    elapsed = time.perf_counter() - flight.started_perf
    if tracer.enabled:
        tracer.progress(
            "batch.job_timeout", job=flight.job.id, key=flight.key,
            reason=reason, elapsed_s=elapsed,
        )
    return _failed(flight.job.id, f"timeout after {elapsed:.2f}s: {reason}",
                   flight.started_perf, timeout=True)
