"""Batch partitioning service: job store, worker pool, result cache.

The one-shot CLI answers one partitioning problem per process; this
package turns the same pipeline into a servable batch engine for
design-space sweeps, per-device what-if queries and CI re-runs:

* :mod:`repro.service.problem` -- one resolution path from a design
  description (XML text or file) to the concrete problem (design,
  device, budget), shared by the CLI handlers and the workers, and the
  workers' one cache-first partition step;
* :mod:`repro.service.cache` -- a content-addressed on-disk cache of
  finished :class:`~repro.core.partitioner.PartitionResult`s, keyed by
  :func:`repro.core.problem_key`;
* :mod:`repro.service.jobs` -- a crash-safe JSON-lines job store with
  ``pending -> running -> done/failed`` states, capped retries and
  (priority, fair round-robin, FIFO) scheduling;
* :mod:`repro.service.pool` -- a supervised multiprocessing worker pool
  fanning pending jobs across cores with per-job deadlines and
  heartbeat-staleness detection of hung workers, streaming progress
  through :mod:`repro.obs` and aggregating batch throughput metrics;
* :mod:`repro.service.faults` -- deterministic, opt-in fault injection
  (``hang``/``crash``/``slow``/``fail-once``) for testing all of the
  above on demand.

Full guide: docs/SERVICE.md.  CLI: ``repro-pr batch submit|run|status``.
"""

from ..util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cache": ("ArtifactStore", "CachedResult", "ResultCache"),
        "faults": (
            "FAULT_KINDS", "FaultError", "FaultPlan", "FaultSpec", "InjectedFault",
            "parse_fault",
        ),
        "jobs": (
            "DEFAULT_MAX_ATTEMPTS", "JOB_KINDS", "JOB_STATES", "Job", "JobStore",
            "JobStoreError",
        ),
        "pool": ("BatchReport", "ServiceError", "partition_problem_key", "run_batch"),
        "problem": ("ResolvedProblem", "resolve_problem", "resolve_problem_text"),
    },
)
