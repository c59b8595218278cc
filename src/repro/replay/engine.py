"""The replay loop: one scheme x one trace x one policy -> measured latency.

Runs a partition scheme against a streamed configuration-request trace
through the policy's manager, predictor and bitstream store, emitting
per-switch latency into a :class:`repro.obs.Histogram`.  What the paper
scores analytically (Eq. 7/8 total frames) becomes a delivered-latency
distribution: p50/p95/p99 switch latency, stall events (latency past
the policy's per-event slot budget), ICAP utilisation and prefetch hit
rate.

Determinism is the contract everything downstream leans on: the trace
is a seeded stream, the managers and stores are clock- and rng-free,
and :func:`replay_record` serialises without wall-clock fields -- so
the same (problem key, trace key, policy) always produces byte-
identical records, which is what makes fleet sweeps cache-first
(:mod:`repro.replay.store`) and the dashboard ``--check``-able.

The oracle predictor needs one-step lookahead; the engine buffers a
single upcoming event while consuming the stream, so laziness is
preserved (million-event traces still never materialise).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..core.result import PartitioningScheme
from ..obs import NULL_TRACER, Tracer
from ..obs.metrics import Histogram
from ..runtime.manager import ConfigurationManager
from ..runtime.prefetch import PrefetchingManager, markov_predictor
from . import kernel
from .policies import BitstreamStore, PolicySpec, resolve_policy

#: The replay engines ``replay_trace`` dispatches between.  ``auto``
#: picks the vectorized kernel when the policy is history-free and the
#: inlined scalar loop otherwise; ``reference`` is the original
#: manager-based loop, kept as the differential oracle (``auto`` is
#: pinned bit-identical to it by tests/replay/test_kernel.py).
REPLAY_ENGINES = ("auto", "reference")

#: Bumped whenever replay semantics change -- part of every result key,
#: so stale cached records miss instead of aliasing.
REPLAY_VERSION = 1

#: Placeholder for the trace key in a serialised result-key payload.
_SPLICE = "\0"

#: Latency bucket bounds tuned to ICAP switch times (tens of us to
#: hundreds of ms); the embedded quantile summary supplies the accurate
#: percentiles, buckets shape the dashboard's bucketed view.
REPLAY_LATENCY_BOUNDS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 1.0,
)


class ReplayError(ValueError):
    """Raised for invalid replay requests (not per-event trace errors)."""


@dataclass
class ReplayResult:
    """The measured outcome of one replay."""

    policy: dict[str, Any]
    events: int = 0
    switches: int = 0
    rewrites: int = 0
    total_frames: int = 0
    total_seconds: float = 0.0
    stall_events: int = 0
    dwell_s: float = 0.01
    prefetch: dict[str, int] | None = None
    store: dict[str, int] | None = None
    latency: Histogram = field(
        default_factory=lambda: Histogram(bounds=REPLAY_LATENCY_BOUNDS)
    )
    problem_key: str | None = None
    trace_key: str | None = None

    @property
    def icap_utilisation(self) -> float:
        """Reconfiguration seconds over the trace's total slot budget."""
        budget = self.events * self.dwell_s
        return self.total_seconds / budget if budget > 0 else 0.0

    @property
    def prefetch_hit_rate(self) -> float:
        if not self.prefetch:
            return 0.0
        hits = self.prefetch.get("hits", 0)
        attempts = hits + self.rewrites
        return hits / attempts if attempts else 0.0

    def percentile(self, pct: float) -> float | None:
        """Delivered switch-latency percentile (seconds)."""
        return self.latency.percentile(pct)


def replay_record(result: ReplayResult) -> dict[str, Any]:
    """The canonical serialisation of a result (no wall-clock fields)."""
    return {
        "policy": dict(result.policy),
        "problem_key": result.problem_key,
        "trace_key": result.trace_key,
        "events": result.events,
        "switches": result.switches,
        "rewrites": result.rewrites,
        "total_frames": result.total_frames,
        "total_seconds": result.total_seconds,
        "stall_events": result.stall_events,
        "dwell_s": result.dwell_s,
        "icap_utilisation": result.icap_utilisation,
        "prefetch": result.prefetch,
        "store": result.store,
        "latency": result.latency.to_dict(),
    }


def result_from_record(doc: Mapping[str, Any]) -> ReplayResult:
    """Rebuild a :class:`ReplayResult` from its canonical record."""
    try:
        return ReplayResult(
            policy=dict(doc["policy"]),
            events=int(doc["events"]),
            switches=int(doc["switches"]),
            rewrites=int(doc["rewrites"]),
            total_frames=int(doc["total_frames"]),
            total_seconds=float(doc["total_seconds"]),
            stall_events=int(doc["stall_events"]),
            dwell_s=float(doc["dwell_s"]),
            prefetch=None if doc.get("prefetch") is None else dict(doc["prefetch"]),
            store=None if doc.get("store") is None else dict(doc["store"]),
            latency=Histogram.from_dict(doc["latency"]),
            problem_key=doc.get("problem_key"),
            trace_key=doc.get("trace_key"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReplayError(f"malformed replay record: {exc}") from exc


def replay_result_key(
    problem_key: str, trace_key: str, policy: PolicySpec | str | Mapping
) -> str:
    """Content address of one replay: (problem, trace, policy, version)."""
    return replay_result_keys(problem_key, [trace_key], policy)[0]


def replay_result_keys(
    problem_key: str,
    trace_keys: Iterable[str],
    policy: PolicySpec | str | Mapping,
) -> list[str]:
    """:func:`replay_result_key` of each trace key, in order.

    A batch job's member payloads differ only in their trace key, so the
    rest -- the policy included -- is serialised once and each trace key
    is spliced in where the sorted payload holds it (only the integer
    ``version`` follows it).
    """
    head, tail = json.dumps(
        {
            "format": "repro-replay",
            "version": REPLAY_VERSION,
            "problem": problem_key,
            "trace": _SPLICE,
            "policy": resolve_policy(policy).to_dict(),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).rsplit(json.dumps(_SPLICE), 1)
    return [
        hashlib.sha256(
            (head + json.dumps(tk) + tail).encode("utf-8")
        ).hexdigest()
        for tk in trace_keys
    ]


def replay_batch_key(
    problem_key: str,
    trace_keys: Iterable[str],
    policy: PolicySpec | str | Mapping,
) -> str:
    """Content address of one micro-batched replay job.

    A batch job is the ordered set of its member replays, so its key
    hashes (problem, ordered trace keys, policy, version); the members
    themselves stay individually addressed by
    :func:`replay_result_key`, which is what lets sweeps at any batch
    size share one record store.
    """
    payload = json.dumps(
        {
            "format": "repro-replay-batch",
            "version": REPLAY_VERSION,
            "problem": problem_key,
            "traces": list(trace_keys),
            "policy": resolve_policy(policy).to_dict(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def replay_trace(
    scheme: PartitioningScheme,
    trace: Iterable[str],
    policy: PolicySpec | str | Mapping = "no-prefetch",
    matrix: Mapping[str, Mapping[str, float]] | None = None,
    problem_key: str | None = None,
    trace_key: str | None = None,
    engine: str = "auto",
    tracer: Tracer = NULL_TRACER,
) -> ReplayResult:
    """Replay ``trace`` (any iterable of configuration names) under a policy.

    ``matrix`` primes the markov predictor with the environment's true
    next-state distribution (:func:`repro.replay.trace.generator_matrix`);
    required exactly when the policy asks for that predictor.  The
    initial full configuration is never charged (it loads at power-up,
    matching :class:`~repro.runtime.manager.ConfigurationManager`).

    ``engine`` selects the implementation (:data:`REPLAY_ENGINES`); both
    produce bit-identical results.  ``auto`` materialises the trace as
    an id array for history-free policies (the vector kernel, which
    counts the events it absorbs on ``tracer`` as
    ``replay.vector_events``) and streams it through the scalar loop
    otherwise; ``reference`` always streams.
    """
    policy = resolve_policy(policy)
    if engine not in REPLAY_ENGINES:
        raise ReplayError(
            f"unknown replay engine {engine!r}; expected one of "
            f"{REPLAY_ENGINES}"
        )
    if policy.predictor == "markov" and matrix is None:
        raise ReplayError(
            "the markov predictor needs the environment's "
            "transition matrix (see generator_matrix)"
        )
    if engine == "reference":
        return _replay_reference(
            scheme, trace, policy, matrix, problem_key, trace_key
        )
    result = ReplayResult(
        policy=policy.to_dict(),
        dwell_s=policy.dwell_s,
        problem_key=problem_key,
        trace_key=trace_key,
    )
    tables = kernel.tables_for(scheme)
    if kernel.vector_eligible(policy):
        ids = kernel.encode_trace(tables, trace)
        kernel.run_vector(scheme, tables, ids, policy, result)
        tracer.count("replay.vector_events", int(ids.size))
    else:
        kernel.run_scalar(scheme, tables, trace, policy, matrix, result)
    return result


def _replay_reference(
    scheme: PartitioningScheme,
    trace: Iterable[str],
    policy: PolicySpec,
    matrix: Mapping[str, Mapping[str, float]] | None = None,
    problem_key: str | None = None,
    trace_key: str | None = None,
) -> ReplayResult:
    """The original manager-based replay loop -- the semantic oracle."""
    store: BitstreamStore | None = None
    if policy.eviction != "none":
        store = BitstreamStore(scheme, policy)

    lookahead: list[str | None] = [None]
    if policy.manager == "prefetch":
        if policy.predictor == "markov":
            if matrix is None:
                raise ReplayError(
                    "the markov predictor needs the environment's "
                    "transition matrix (see generator_matrix)"
                )
            predict = markov_predictor(matrix)
        else:  # oracle: the engine's one-step lookahead slot
            def predict(_current: str) -> str | None:
                return lookahead[0]

        manager: Any = PrefetchingManager(
            scheme, predict, icap=policy.icap_model
        )
    else:
        manager = ConfigurationManager(scheme, icap=policy.icap_model)

    result = ReplayResult(
        policy=policy.to_dict(),
        dwell_s=policy.dwell_s,
        problem_key=problem_key,
        trace_key=trace_key,
    )
    region_index = {r.name: i for i, r in enumerate(scheme.regions)}

    it = iter(trace)
    try:
        current = next(it)
    except StopIteration:
        current = None
    while current is not None:
        upcoming = next(it, None)
        lookahead[0] = upcoming
        rec = manager.goto(current)
        initial = rec.step == 0
        if not initial:
            latency = rec.seconds
            if store is not None and rec.regions_rewritten:
                # The store replaces the flat fast-path estimate with
                # residency-dependent fetch times per rewritten region.
                loaded = manager.loaded_contents
                latency = 0.0
                for name in rec.regions_rewritten:
                    label = loaded[region_index[name]]
                    seconds, _resident = store.fetch(name, label)
                    latency += seconds
            result.events += 1
            if rec.to_configuration != rec.from_configuration:
                result.switches += 1
                result.latency.observe(latency)
            result.rewrites += len(rec.regions_rewritten)
            result.total_frames += rec.frames
            result.total_seconds += latency
            if latency > policy.dwell_s:
                result.stall_events += 1
        else:
            # Power-up load: uncharged, but the store still starts warm
            # with the initial configuration's bitstreams resident.
            if store is not None:
                for region, label in zip(
                    scheme.regions, scheme.activity(rec.to_configuration)
                ):
                    if label is not None:
                        store.preload(region.name, label)
            result.events += 1
        current = upcoming

    if isinstance(manager, PrefetchingManager):
        result.prefetch = {
            "hits": manager.stats.prefetch_hits,
            "prefetched_frames": manager.stats.prefetched_frames,
            "wasted_frames": manager.stats.prefetch_wasted,
        }
    if store is not None:
        result.store = store.stats()
    return result
