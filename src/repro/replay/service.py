"""Replay jobs: the batch service's second workload class.

A replay job (``Job.kind == "replay-batch"``) is a partition job plus a
workload: its ``replay`` spec carries N
:class:`~repro.replay.trace.TraceSpec` documents and one
:class:`~repro.replay.policies.PolicySpec` document, all canonical
dicts, so they survive the job log and the worker pickle boundary
unchanged.  A single trace is simply a batch of one.  Execution is two
cache layers deep:

1. the *partition* result is looked up in the
   :class:`~repro.service.cache.ResultCache` under the ordinary
   partition problem key and computed (and cached) on a miss -- so a
   sweep of 30 policies x traces over one design runs the expensive
   search once;
2. each member trace's *replay* record is keyed by
   :func:`~repro.replay.engine.replay_result_key` (problem x trace x
   policy x version) and the job's records are stored as one segment
   of the :class:`ReplayResultStore` under ``<cache_root>/replay`` -- a
   re-run of the whole sweep completes in phase 1 of
   :func:`repro.service.run_batch` without dispatching a single worker.

:func:`submit_replay_suite` is the fan-out entry: it crosses a
:class:`~repro.replay.trace.WorkloadSuite` (synthesized designs x
environments x seeds) with a policy list and enqueues one job per
``batch_size`` traces of one (design, policy), which amortises
dispatch, scheme resolution and store IO N x.  Member records keep
their individual keys, so sweeps at any batch size fill and hit the
same store.

The partition half runs through the batch service's one partition
step, :func:`repro.service.problem.partition_cached`, exactly as a
``partition`` job's does: the worker payload carries the partition key
computed in phase 1, the worker reads the scheme from the result cache,
and only a miss parses the XML and searches.  No scheme or key is
memoised per process, so a job's outcome never depends on what its
worker ran before.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..arch.library import DeviceLibrary
from ..core.model import PRDesign
# Re-exported: outside instrumentation (perfbench/tracing.py) wraps the
# device-selection entry point under this module's name too.
from ..core.partitioner import partition_with_device_selection  # noqa: F401
from ..flow.xmlio import design_to_xml
from ..obs import NULL_TRACER, Tracer
from ..obs.metrics import Histogram
from ..service.cache import ResultCache
from ..service.jobs import Job, JobStore
from ..service.problem import partition_cached, resolve_problem_text
from .engine import (
    REPLAY_LATENCY_BOUNDS,
    ReplayError,
    ReplayResult,
    replay_batch_key,
    replay_record,
    replay_result_keys,
    replay_trace,
)
from .policies import PolicySpec, resolve_policy
from .store import ReplayResultStore
from .trace import TraceSpec, WorkloadSuite, config_names, generator_matrix, iter_trace, trace_key

#: Subdirectory of the result-cache root holding replay records; kept
#: out of the cache's own shard tree so ``ResultCache.keys()`` never
#: sees a replay entry.
REPLAY_STORE_DIRNAME = "replay"


def replay_store_for(cache: ResultCache) -> ReplayResultStore:
    """The replay record store co-located with a result cache."""
    return ReplayResultStore(Path(cache.root) / REPLAY_STORE_DIRNAME)


def _replay_batch_docs(
    replay: Mapping[str, Any] | None,
) -> tuple[list[TraceSpec], PolicySpec]:
    if not isinstance(replay, Mapping):
        raise ReplayError("replay-batch job carries no replay spec")
    try:
        trace_docs = replay["traces"]
        policy_doc = replay["policy"]
    except KeyError as exc:
        raise ReplayError(f"replay-batch spec is missing {exc}") from exc
    if not isinstance(trace_docs, (list, tuple)) or not trace_docs:
        raise ReplayError(
            "replay-batch spec needs a non-empty 'traces' sequence"
        )
    return (
        [TraceSpec.from_dict(doc) for doc in trace_docs],
        resolve_policy(policy_doc),
    )


def replay_keys(
    job: Job,
    partition_key: str,
    design: PRDesign,
    trace_keys: dict[tuple[tuple[str, ...], str], str] | None = None,
) -> tuple[str, list[str]]:
    """``(job key, member record keys)`` of a replay-batch job.

    ``partition_key`` and ``design`` are the job's already-resolved
    partitioning problem.  The job key is
    :func:`~repro.replay.engine.replay_batch_key` while the members are
    the per-trace record keys -- phase 1 of the batch runner declares
    the job cached exactly when **every** member has a stored record.

    ``trace_keys`` memoises :func:`~repro.replay.trace.trace_key` across
    calls, keyed by (config names, spec ``repr``): a design's policy
    jobs carry the same trace specs, so phase 1 keys each once.  The
    ``repr`` tells apart exactly the specs whose canonical documents
    differ (``0.0`` and ``-0.0`` compare equal but key apart).
    """
    names = config_names(design)
    specs, policy = _replay_batch_docs(job.replay)
    if trace_keys is None:
        trace_keys = {}
    tkeys = []
    for spec in specs:
        memo = (names, repr(spec))
        tk = trace_keys.get(memo)
        if tk is None:
            tk = trace_keys[memo] = trace_key(names, spec)
        tkeys.append(tk)
    members = replay_result_keys(partition_key, tkeys, policy)
    return replay_batch_key(partition_key, tkeys, policy), members


def replay_probe_keys(
    job: Job, library: DeviceLibrary | None = None
) -> tuple[str, list[str]]:
    """:func:`replay_keys` of a job, resolving its problem first.

    One XML parse covers both halves (the problem key and the trace
    keys).
    """
    problem = resolve_problem_text(job.design_xml, job.device, library)
    return replay_keys(
        job, problem.key(job.max_candidate_sets), problem.design
    )


def run_replay_batch_payload(
    payload: Mapping[str, Any],
    started: float | None = None,
    tracer: Tracer = NULL_TRACER,
) -> dict[str, Any]:
    """Worker body of one micro-batched replay job.

    The scheme/policy are resolved **once** for all N member traces,
    each member replays under its individual record key, and the store
    write is ONE atomic segment append
    (:meth:`~repro.replay.store.ReplayResultStore.put_many`) -- the
    three per-trace overheads the batch amortises.  The outcome's
    ``replay`` summary is the fold of the members (``traces`` carries
    N, the latency histograms merge), and ``batch`` marks the outcome
    for the parent's ``replay.batch_jobs`` counter.
    """
    t0 = time.perf_counter() if started is None else started
    specs, policy = _replay_batch_docs(payload.get("replay"))
    cache = ResultCache(payload["cache_root"])
    store = replay_store_for(cache)
    partition_key = payload["partition_key"]
    result, device_name = partition_cached(payload, cache, t0, tracer)

    scheme = result.scheme
    names = config_names(scheme.design)
    markov = policy.predictor == "markov"
    records: list[dict[str, Any]] = []
    tkeys: list[str] = []
    summary = _BatchSummary(policy)
    with tracer.span("replay_batch", policy=policy.name, traces=len(specs)):
        for spec in specs:
            tk = trace_key(names, spec)
            tkeys.append(tk)
            replayed = replay_trace(
                scheme,
                iter_trace(names, spec),
                policy,
                # Only the markov predictor reads the environment matrix.
                matrix=generator_matrix(names, spec) if markov else None,
                problem_key=partition_key,
                trace_key=tk,
                tracer=tracer,
            )
            records.append(replay_record(replayed))
            summary.add(replayed)
    store.put_many(
        dict(zip(replay_result_keys(partition_key, tkeys, policy), records))
    )
    return {
        "job_id": payload["job_id"],
        "ok": True,
        "key": replay_batch_key(partition_key, tkeys, policy),
        "device": device_name,
        "total_frames": result.total_frames,
        "compute_s": time.perf_counter() - t0,
        "replay": summary.to_dict(),
        "batch": len(specs),
    }


class _BatchSummary:
    """The compact replay summary a batch job ships in its outcome.

    This is what lands in the telemetry sink's ``job`` records (and so
    in ``repro obs report``): enough to aggregate per-policy latency
    fleet-wide without re-reading the replay store.  Member counts sum,
    the member latency histograms merge into one live
    :class:`~repro.obs.metrics.Histogram` (serialised once, by
    :meth:`to_dict`), and utilisation is computed over the folded
    totals -- the same aggregation
    :class:`repro.obs.report.ReplayPolicyStats` applies across jobs,
    done once in-worker so a batch ships one summary, not N.
    """

    __slots__ = (
        "policy", "traces", "events", "switches", "stall_events",
        "total_seconds", "latency",
    )

    def __init__(self, policy: PolicySpec):
        self.policy = policy
        self.traces = self.events = self.switches = self.stall_events = 0
        self.total_seconds = 0.0
        self.latency = Histogram(bounds=REPLAY_LATENCY_BOUNDS)

    def add(self, result: ReplayResult) -> None:
        self.traces += 1
        self.events += result.events
        self.switches += result.switches
        self.stall_events += result.stall_events
        self.total_seconds += result.total_seconds
        self.latency.merge(result.latency)

    def to_dict(self) -> dict[str, Any]:
        budget = self.events * self.policy.dwell_s
        return {
            "policy": self.policy.name,
            "events": self.events,
            "switches": self.switches,
            "stall_events": self.stall_events,
            "total_seconds": self.total_seconds,
            "icap_utilisation": (
                self.total_seconds / budget if budget > 0 else 0.0
            ),
            "latency": self.latency.to_dict(),
            "traces": self.traces,
        }


def submit_replay_suite(
    store: JobStore,
    suite: WorkloadSuite,
    policies: Iterable[PolicySpec | str | Mapping],
    device: str | None = None,
    max_candidate_sets: int | None = None,
    max_attempts: int | None = None,
    priority: int = 0,
    submitter: str = "",
    batch_size: int = 1,
) -> list[Job]:
    """Fan a workload suite x policy list out as replay-batch jobs.

    Each design's traces are chunked ``batch_size`` at a time into one
    ``replay-batch`` job per policy, named
    ``<design>/batch<i>[<n>]/<policy>``; the default ``batch_size=1``
    submits one-trace batches.  Member records keep their per-trace
    keys, so sweeps of the same suite at any batch size serve each
    other's cached records.  Submission dedupes identical jobs, so
    re-submitting a suite onto a queue that already holds it is a
    no-op.  Returns the jobs in submission order.
    """
    if batch_size < 1:
        raise ReplayError("batch_size must be at least 1")
    resolved = [resolve_policy(p) for p in policies]
    if not resolved:
        raise ReplayError("submit_replay_suite needs at least one policy")
    kwargs: dict[str, Any] = {}
    if max_attempts is not None:
        kwargs["max_attempts"] = max_attempts
    jobs: list[Job] = []

    # iter_workloads yields each design's specs consecutively; chunk
    # them per design so a batch never straddles two schemes.
    current: Any = None
    current_xml = ""
    pending_specs: list[TraceSpec] = []

    def flush() -> None:
        if current is None:
            return
        for policy in resolved:
            for i in range(0, len(pending_specs), batch_size):
                chunk = pending_specs[i : i + batch_size]
                jobs.append(
                    store.submit(
                        name=f"{current.name}/batch{i // batch_size}"
                        f"[{len(chunk)}]/{policy.name}",
                        design_xml=current_xml,
                        device=device,
                        max_candidate_sets=max_candidate_sets,
                        priority=priority,
                        submitter=submitter,
                        kind="replay-batch",
                        replay={
                            "traces": [s.to_dict() for s in chunk],
                            "policy": policy.to_dict(),
                        },
                        **kwargs,
                    )
                )

    for design, spec in suite.iter_workloads():
        if design is not current:
            flush()
            current = design
            current_xml = design_to_xml(design, device_name=device)
            pending_specs = []
        pending_specs.append(spec)
    flush()
    return jobs
