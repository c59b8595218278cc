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

Workers stay *warm*: resolved partition results are kept in a
module-level LRU keyed by partition problem key, so a persistent
worker process replaying many traces of one design deserialises the
scheme once, not once per job (``pool.warm_hits`` counts the reuses).
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..arch.library import DeviceLibrary
from ..core.partitioner import (
    PartitionerOptions,
    PartitionResult,
    partition,
    partition_with_device_selection,
)
from ..flow.xmlio import design_to_xml
from ..obs import NULL_TRACER, Tracer
from ..service.cache import ResultCache
from ..service.jobs import Job, JobStore
from ..service.problem import resolve_problem_text
from .engine import (
    ReplayError,
    ReplayResult,
    replay_batch_key,
    replay_record,
    replay_result_key,
    replay_trace,
)
from .policies import PolicySpec, resolve_policy
from .store import ReplayResultStore
from .trace import TraceSpec, WorkloadSuite, config_names, generator_matrix, iter_trace, trace_key

#: Subdirectory of the result-cache root holding replay records; kept
#: out of the cache's own shard tree so ``ResultCache.keys()`` never
#: sees a replay entry.
REPLAY_STORE_DIRNAME = "replay"

#: Cap of the per-process warm scheme cache (resolved partition results
#: keyed by partition problem key).  Schemes are small relative to the
#: traces replayed against them; the cap only bounds pathological
#: many-design single-process sweeps.
WARM_SCHEME_LIMIT = 64

#: partition key -> (PartitionResult, device name), most recent last.
_WARM_SCHEMES: "OrderedDict[str, tuple[PartitionResult, str | None]]" = (
    OrderedDict()
)

#: (xml sha256, device, max_candidate_sets) -> (partition key, config
#: names).  A sweep keys the same design once per policy in phase 1 and
#: once more in the worker; the memo collapses those repeat XML parses.
#: Only populated for the default library -- a caller-supplied library
#: changes the key of auto-select problems.
_KEY_MEMO_LIMIT = 256
_KEY_MEMO: "OrderedDict[tuple, tuple[str, tuple[str, ...]]]" = OrderedDict()


def _problem_key_names(
    design_xml: str,
    device: str | None,
    max_candidate_sets: int | None,
    library: DeviceLibrary | None,
) -> tuple[str, tuple[str, ...]]:
    """(partition problem key, configuration names) of one design spec."""
    from ..service.pool import partition_problem_key_resolved

    memo_key = None
    if library is None:
        digest = hashlib.sha256(design_xml.encode("utf-8")).hexdigest()
        memo_key = (digest, device, max_candidate_sets)
        hit = _KEY_MEMO.get(memo_key)
        if hit is not None:
            _KEY_MEMO.move_to_end(memo_key)
            return hit
    problem = resolve_problem_text(design_xml, device, library)
    out = (
        partition_problem_key_resolved(problem, max_candidate_sets),
        config_names(problem.design),
    )
    if memo_key is not None:
        _KEY_MEMO[memo_key] = out
        while len(_KEY_MEMO) > _KEY_MEMO_LIMIT:
            _KEY_MEMO.popitem(last=False)
    return out


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


def replay_probe_keys(
    job: Job, library: DeviceLibrary | None = None
) -> tuple[str, list[str]]:
    """``(job key, member record keys)`` of a replay-batch job.

    One XML parse covers both halves (the problem key and the trace
    keys).  The job key is :func:`~repro.replay.engine.replay_batch_key`
    while the members are the per-trace record keys -- phase 1 of the
    batch runner declares the job cached exactly when **every** member
    has a stored record.
    """
    partition_key, names = _problem_key_names(
        job.design_xml, job.device, job.max_candidate_sets, library
    )
    specs, policy = _replay_batch_docs(job.replay)
    tkeys = [trace_key(names, spec) for spec in specs]
    members = [replay_result_key(partition_key, tk, policy) for tk in tkeys]
    return replay_batch_key(partition_key, tkeys, policy), members


def replay_summary(result: ReplayResult) -> dict[str, Any]:
    """The compact per-job summary shipped in worker outcomes.

    This is what lands in the telemetry sink's ``job`` records (and so
    in ``repro obs report``): enough to aggregate per-policy latency
    fleet-wide without re-reading the replay store.
    """
    return {
        "policy": str(result.policy.get("name", "?")),
        "events": result.events,
        "switches": result.switches,
        "stall_events": result.stall_events,
        "total_seconds": result.total_seconds,
        "icap_utilisation": result.icap_utilisation,
        "latency": result.latency.to_dict(),
    }


def _partition_for(
    payload: Mapping[str, Any],
    cache: ResultCache,
    t0: float,
    tracer: Tracer = NULL_TRACER,
) -> tuple[str, PartitionResult, str | None]:
    """Resolve the payload's partition half, warm-cache first.

    Three layers, cheapest first: the module-level warm LRU (a
    persistent worker re-serving a design it has seen skips even the
    cache-entry deserialisation -- counted as ``pool.warm_hits``), then
    the on-disk :class:`~repro.service.cache.ResultCache`, then the
    actual partitioning search (cached for everyone afterwards).  The
    warm path still guarantees the cache entry exists, so cross-process
    lookups never depend on which worker computed the scheme.
    """
    partition_key, _names = _problem_key_names(
        payload["design_xml"],
        payload["device"],
        payload["max_candidate_sets"],
        payload.get("library"),
    )
    warm = _WARM_SCHEMES.get(partition_key)
    if warm is not None:
        _WARM_SCHEMES.move_to_end(partition_key)
        result, device_name = warm
        tracer.count("pool.warm_hits", 1)
        if partition_key not in cache:
            cache.put(partition_key, result, device_name=device_name)
        return partition_key, result, device_name
    cached = cache.lookup(partition_key)
    if cached is not None:
        result, device_name = cached.result, cached.device_name
    else:
        problem = resolve_problem_text(
            payload["design_xml"], payload["device"], payload.get("library")
        )
        options = PartitionerOptions(
            max_candidate_sets=payload["max_candidate_sets"]
        )
        if problem.device is not None:
            assert problem.capacity is not None
            result = partition(
                problem.design, problem.capacity, options, tracer=tracer
            )
            device_name = problem.device.name
        else:
            selected = partition_with_device_selection(
                problem.design, problem.library, options, tracer=tracer
            )
            result, device_name = selected.result, selected.device.name
        cache.put(
            partition_key,
            result,
            device_name=device_name,
            compute_s=time.perf_counter() - t0,
        )
    _WARM_SCHEMES[partition_key] = (result, device_name)
    while len(_WARM_SCHEMES) > WARM_SCHEME_LIMIT:
        _WARM_SCHEMES.popitem(last=False)
    return partition_key, result, device_name


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
    partition_key, result, device_name = _partition_for(
        payload, cache, t0, tracer
    )

    scheme = result.scheme
    names = config_names(scheme.design)
    records: dict[str, dict[str, Any]] = {}
    tkeys: list[str] = []
    summary: dict[str, Any] | None = None
    with tracer.span("replay_batch", policy=policy.name, traces=len(specs)):
        for spec in specs:
            tk = trace_key(names, spec)
            tkeys.append(tk)
            replayed = replay_trace(
                scheme,
                iter_trace(names, spec),
                policy,
                matrix=generator_matrix(names, spec),
                problem_key=partition_key,
                trace_key=tk,
                tracer=tracer,
            )
            key = replay_result_key(partition_key, tk, policy)
            records[key] = replay_record(replayed)
            summary = _fold_summary(summary, replayed)
    store.put_many(records)
    assert summary is not None  # specs is validated non-empty
    return {
        "job_id": payload["job_id"],
        "ok": True,
        "key": replay_batch_key(partition_key, tkeys, policy),
        "device": device_name,
        "total_frames": result.total_frames,
        "compute_s": time.perf_counter() - t0,
        "replay": summary,
        "batch": len(specs),
        "record_keys": list(records),
    }


def _fold_summary(
    summary: dict[str, Any] | None, result: ReplayResult
) -> dict[str, Any]:
    """Fold one member result into a batch's aggregate replay summary.

    Counts sum, latency histograms merge, and utilisation is recomputed
    over the folded totals -- the same aggregation
    :class:`repro.obs.report.ReplayPolicyStats` applies across jobs,
    done once in-worker so a batch ships one summary, not N.
    """
    member = replay_summary(result)
    if summary is None:
        member["traces"] = 1
        return member
    from ..obs.metrics import Histogram

    summary["traces"] = int(summary.get("traces", 1)) + 1
    for field in ("events", "switches", "stall_events"):
        summary[field] += member[field]
    summary["total_seconds"] += member["total_seconds"]
    budget = summary["events"] * result.dwell_s
    summary["icap_utilisation"] = (
        summary["total_seconds"] / budget if budget > 0 else 0.0
    )
    merged = Histogram.from_dict(summary["latency"])
    merged.merge(result.latency)
    summary["latency"] = merged.to_dict()
    return summary


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
