"""Process resource sampling: ``getrusage`` snapshots and per-job deltas.

The batch service answers "how fast" with histograms; this module is
the "how heavy" half.  Workers sample :func:`resource.getrusage` around
each job and ship the result back inside the outcome dict
(``outcome["resources"]``); the parent writes each one to the sink
as a ``resource`` record.

Semantics worth being precise about:

* ``rss_peak_mb`` is the process's **high-water mark** (``ru_maxrss``),
  not its current size -- it only rises, and on a warm pool it is
  cumulative across every job the worker ever ran.  That is the right
  number for capacity planning ("how big must a worker box be"), which
  is what the ``worker_peak_rss_mb`` SLO guards.
* ``cpu_user_s``/``cpu_sys_s`` in a **job** sample are *deltas* over
  the job (end minus start), so they sum cleanly into a run's CPU
  total.  Older sink directories also hold **live** samples (one per
  heartbeat, ``live: true``) whose CPU fields are cumulative process
  counters; report folding reads only their RSS, never their CPU.

``resource`` is POSIX-only; every entry point degrades to ``None`` /
no-op where it is missing, so importing this module never breaks a
platform.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Any, Mapping

try:  # pragma: no cover - exercised only where resource exists
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None  # type: ignore[assignment]

#: True when ``resource.getrusage`` is available on this platform.
RUSAGE_AVAILABLE = _resource is not None


def _maxrss_mb(ru_maxrss: int) -> float:
    """``ru_maxrss`` in MiB -- Linux reports KiB, macOS reports bytes."""
    if sys.platform == "darwin":
        return ru_maxrss / (1024.0 * 1024.0)
    return ru_maxrss / 1024.0


@dataclass(frozen=True)
class ResourceSample:
    """One ``getrusage(RUSAGE_SELF)`` snapshot of the calling process."""

    pid: int
    rss_peak_mb: float
    cpu_user_s: float
    cpu_sys_s: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "rss_peak_mb": self.rss_peak_mb,
            "cpu_user_s": self.cpu_user_s,
            "cpu_sys_s": self.cpu_sys_s,
        }


def sample_self() -> ResourceSample | None:
    """Snapshot the calling process, or ``None`` where unsupported."""
    if _resource is None:  # pragma: no cover - non-POSIX platforms
        return None
    ru = _resource.getrusage(_resource.RUSAGE_SELF)
    return ResourceSample(
        pid=os.getpid(),
        rss_peak_mb=_maxrss_mb(ru.ru_maxrss),
        cpu_user_s=float(ru.ru_utime),
        cpu_sys_s=float(ru.ru_stime),
    )


def job_resources(start: ResourceSample | None) -> dict[str, Any] | None:
    """The per-job resource delta since ``start`` (a pre-job snapshot).

    CPU fields are deltas (clamped at zero against clock weirdness);
    ``rss_peak_mb`` is the process high-water mark at job end.  Returns
    ``None`` where sampling is unsupported.
    """
    end = sample_self()
    if end is None or start is None:
        return None
    return {
        "pid": end.pid,
        "rss_peak_mb": end.rss_peak_mb,
        "cpu_user_s": max(0.0, end.cpu_user_s - start.cpu_user_s),
        "cpu_sys_s": max(0.0, end.cpu_sys_s - start.cpu_sys_s),
    }


@dataclass
class WorkerResources:
    """Aggregated resource telemetry for one worker process (by pid)."""

    pid: int
    rss_peak_mb: float = 0.0
    cpu_user_s: float = 0.0
    cpu_sys_s: float = 0.0
    jobs: int = 0

    @property
    def cpu_s(self) -> float:
        return self.cpu_user_s + self.cpu_sys_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "rss_peak_mb": self.rss_peak_mb,
            "cpu_user_s": self.cpu_user_s,
            "cpu_sys_s": self.cpu_sys_s,
            "cpu_s": self.cpu_s,
            "jobs": self.jobs,
        }


def fold_resource_records(
    records: list[Mapping[str, Any]],
) -> dict[int, WorkerResources]:
    """Fold ``kind == "resource"`` sink records into per-pid aggregates.

    Job samples (``live`` falsy) contribute CPU deltas and a job count;
    every sample -- including the live heartbeat samples older sink
    directories hold -- raises the RSS high-water mark (it is monotone
    per process, so ``max`` is exact, not an approximation).
    """
    workers: dict[int, WorkerResources] = {}
    for record in records:
        pid = record.get("pid")
        if not isinstance(pid, int):
            continue
        worker = workers.setdefault(pid, WorkerResources(pid=pid))
        rss = record.get("rss_peak_mb")
        if isinstance(rss, (int, float)):
            worker.rss_peak_mb = max(worker.rss_peak_mb, float(rss))
        if not record.get("live"):
            worker.jobs += 1
            for attr, field_name in (
                ("cpu_user_s", "cpu_user_s"),
                ("cpu_sys_s", "cpu_sys_s"),
            ):
                value = record.get(field_name)
                if isinstance(value, (int, float)):
                    setattr(worker, attr, getattr(worker, attr) + float(value))
    return workers
