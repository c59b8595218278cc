"""Trace-driven workload replay: measured reconfiguration latency under load.

The paper optimizes a *static* objective -- total reconfiguration time
over all configuration pairs (Eq. 7/8) -- but the adaptive systems it
targets live online: what matters in deployment is the *delivered*
mode-switch latency under real traffic.  This package turns that into a
measured quantity, wired through every existing layer:

* :mod:`repro.replay.trace` -- :class:`TraceSpec` / :class:`WorkloadSuite`:
  deterministic, content-addressable synthesis of traffic-trace fleets
  from the :mod:`repro.runtime.adaptive` environment models and the
  :mod:`repro.synth` design generator, streamed lazily so million-event
  traces never materialise in memory;
* :mod:`repro.replay.policies` -- the pluggable policy matrix: plain
  :class:`~repro.runtime.manager.ConfigurationManager` vs
  :class:`~repro.runtime.prefetch.PrefetchingManager` with
  markov/oracle/none predictors, plus bitstream-store eviction policies
  (LRU / static pinning / activity-weighted, after the reconfigurable-
  region management literature, arXiv 1803.03331);
* :mod:`repro.replay.engine` -- the replay loop: run one partition
  scheme against one trace under one policy, emitting per-switch
  latency into :mod:`repro.obs` histograms (p50/p95/p99 delivered
  switch latency, stall events, ICAP utilisation, prefetch hit rate);
* :mod:`repro.replay.store` -- content-addressed on-disk segments of
  replay records, keyed by (problem key, trace key, policy);
* :mod:`repro.replay.service` -- replay jobs as the batch service's
  second workload class: sweeps (schemes x environments x policies x
  seeds) fan out over :func:`repro.service.run_batch` with cache-first
  completion, supervision and telemetry like partition jobs;
* :mod:`repro.replay.compare` -- fold stored replay records into a
  per-policy comparison for ``repro replay compare`` and the
  deterministic latency dashboard (:func:`repro.render.render_replay_html`).

Full guide: docs/REPLAY.md.  CLI: ``repro-pr replay run|sweep|compare``.
"""

from .compare import (
    PolicyComparison,
    PolicyLatency,
    collect_policy_comparison,
    comparison_key,
    render_policy_comparison,
)
from .engine import (
    REPLAY_ENGINES,
    REPLAY_LATENCY_BOUNDS,
    REPLAY_VERSION,
    ReplayError,
    ReplayResult,
    replay_batch_key,
    replay_record,
    replay_result_key,
    replay_trace,
)
from .policies import (
    EVICTION_POLICIES,
    POLICY_PRESETS,
    BitstreamStore,
    PolicySpec,
    resolve_policy,
)
from .service import (
    replay_probe_keys,
    replay_store_for,
    replay_summary,
    run_replay_batch_payload,
    submit_replay_suite,
)
from .store import ReplayResultStore
from .trace import (
    ENVIRONMENTS,
    TraceSpec,
    WorkloadSuite,
    generator_matrix,
    iter_trace,
    ring_matrix,
    trace_key,
)

__all__ = [
    "ENVIRONMENTS",
    "EVICTION_POLICIES",
    "POLICY_PRESETS",
    "REPLAY_ENGINES",
    "REPLAY_LATENCY_BOUNDS",
    "REPLAY_VERSION",
    "BitstreamStore",
    "PolicyComparison",
    "PolicyLatency",
    "PolicySpec",
    "ReplayError",
    "ReplayResult",
    "ReplayResultStore",
    "TraceSpec",
    "WorkloadSuite",
    "collect_policy_comparison",
    "comparison_key",
    "generator_matrix",
    "iter_trace",
    "render_policy_comparison",
    "replay_batch_key",
    "replay_probe_keys",
    "replay_record",
    "replay_result_key",
    "replay_store_for",
    "replay_summary",
    "replay_trace",
    "resolve_policy",
    "ring_matrix",
    "run_replay_batch_payload",
    "submit_replay_suite",
    "trace_key",
]
