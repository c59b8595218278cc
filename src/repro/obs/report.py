"""Aggregation toolchain over telemetry directories and BENCH files.

Its entry points:

* :func:`aggregate_run` folds a telemetry directory into a
  :class:`RunReport` -- job-latency percentiles, cache hit rate,
  timeout/retry counts, merged counters/gauges/histograms across every
  ``run`` record (multi-run directories sum associatively);
* :func:`render_run_report` renders it for ``repro obs report``;
* :func:`bench_diff` compares two committed ``BENCH_*.json`` artifacts
  (benchmarks/conftest.py writes them) against a configurable
  regression threshold for ``repro obs bench-diff`` -- the CI smoke
  that notices a slowdown before a human does;
* :func:`merge_bench` folds a partial bench run into the committed
  ``BENCH_*.json`` so a ``-k`` run keeps the entries it did not re-run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .metrics import Histogram, merge_histogram_maps
from .resources import WorkerResources, fold_resource_records
from .sink import _segments, iter_telemetry, sink_stats

#: Default relative regression threshold of ``bench_diff`` (25% -- wide
#: enough for shared-runner noise, tight enough to catch real cliffs).
DEFAULT_BENCH_THRESHOLD = 0.25


def _percentile(ordered: list[float], pct: float) -> float | None:
    """Exact linear-interpolated percentile of a pre-sorted list."""
    if not ordered:
        return None
    pos = (pct / 100.0) * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class ReplayPolicyStats:
    """Per-policy replay aggregates folded out of ``job`` records.

    Only *computed* replay jobs ship a summary (cached completions are
    served without re-running the replay), so these numbers cover the
    work this telemetry directory actually performed.
    """

    policy: str
    jobs: int = 0
    events: int = 0
    switches: int = 0
    stall_events: int = 0
    total_seconds: float = 0.0
    latency: Histogram | None = None

    def fold(self, summary: Mapping[str, Any]) -> None:
        # A replay job ships one summary covering ``traces`` member
        # replays; summaries from older single-trace jobs carry no
        # field and count as one, so jobs counts *traces*.
        self.jobs += int(summary.get("traces", 1))
        self.events += int(summary.get("events", 0))
        self.switches += int(summary.get("switches", 0))
        self.stall_events += int(summary.get("stall_events", 0))
        self.total_seconds += float(summary.get("total_seconds", 0.0))
        doc = summary.get("latency")
        if isinstance(doc, Mapping):
            incoming = Histogram.from_dict(doc)
            if self.latency is None:
                self.latency = incoming
            else:
                self.latency.merge(incoming)

    def percentile(self, pct: float) -> float | None:
        return None if self.latency is None else self.latency.percentile(pct)

    def to_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "jobs": self.jobs,
            "events": self.events,
            "switches": self.switches,
            "stall_events": self.stall_events,
            "total_seconds": self.total_seconds,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
        }


@dataclass
class RunReport:
    """Aggregate view of one telemetry directory."""

    directory: str
    runs: int = 0
    jobs_done: int = 0
    jobs_cached: int = 0
    jobs_failed: int = 0
    retries: int = 0
    timeouts: int = 0
    events: int = 0
    #: Sorted wall times of *computed* (non-cached) job completions.
    job_latencies_s: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    #: Policy name -> replay aggregates (from replay-job summaries).
    replay_policies: dict[str, ReplayPolicyStats] = field(default_factory=dict)
    #: pid -> folded worker resource telemetry (``resource`` records).
    worker_resources: dict[int, WorkerResources] = field(default_factory=dict)
    #: Pool occupancy timeline: (ts, in_flight, queue_depth) samples.
    occupancy: list[tuple[float, int, int]] = field(default_factory=list)
    #: Summed ``duration_s * workers`` across run records -- the wall
    #: budget that CPU utilisation is measured against.
    wall_budget_s: float = 0.0
    #: On-disk shape of the directory (segments / bytes / rotations).
    sink_segments: int = 0
    sink_bytes: int = 0
    sink_rotations: int = 0

    @property
    def jobs_total(self) -> int:
        return self.jobs_done + self.jobs_cached + self.jobs_failed

    @property
    def is_empty(self) -> bool:
        """True when the directory contributed no records at all.

        An empty (or record-less) telemetry directory is a normal state
        -- a sink that was opened but never written, or a run that died
        before its first record -- so consumers render explicit "no
        data" output instead of failing (``repro obs report`` exits 0).
        """
        return (
            self.runs == 0
            and self.jobs_total == 0
            and self.retries == 0
            and self.events == 0
            and not self.counters
            and not self.gauges
            and not self.histograms
            and not self.replay_policies
        )

    @property
    def cache_hit_rate(self) -> float:
        total = self.jobs_total
        return self.jobs_cached / total if total else 0.0

    def latency_percentile(self, pct: float) -> float | None:
        return _percentile(self.job_latencies_s, pct)

    @property
    def timeout_rate(self) -> float:
        total = self.jobs_total
        return self.timeouts / total if total else 0.0

    @property
    def failure_rate(self) -> float:
        total = self.jobs_total
        return self.jobs_failed / total if total else 0.0

    @property
    def events_dropped(self) -> float:
        """Ring-buffer drops (``obs.events_dropped``): silent event loss."""
        return float(self.counters.get("obs.events_dropped", 0.0))

    @property
    def worker_peak_rss_mb(self) -> float | None:
        """High-water RSS across every worker, or ``None`` unsampled."""
        if not self.worker_resources:
            return None
        return max(w.rss_peak_mb for w in self.worker_resources.values())

    @property
    def cpu_total_s(self) -> float:
        """Summed per-job CPU (user + sys deltas) across all workers."""
        return sum(w.cpu_s for w in self.worker_resources.values())

    @property
    def cpu_utilisation(self) -> float | None:
        """CPU seconds burned over the pool's wall budget, or ``None``.

        The budget is ``duration_s * workers`` summed over run records,
        so it needs at least one completed run *and* resource samples.
        """
        if not self.worker_resources or self.wall_budget_s <= 0:
            return None
        return min(1.0, self.cpu_total_s / self.wall_budget_s)

    @property
    def peak_in_flight(self) -> int:
        return max((s[1] for s in self.occupancy), default=0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "directory": self.directory,
            "runs": self.runs,
            "jobs_total": self.jobs_total,
            "jobs_done": self.jobs_done,
            "jobs_cached": self.jobs_cached,
            "jobs_failed": self.jobs_failed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "events": self.events,
            "cache_hit_rate": self.cache_hit_rate,
            "latency_p50_s": self.latency_percentile(50),
            "latency_p90_s": self.latency_percentile(90),
            "latency_p99_s": self.latency_percentile(99),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: h.to_dict() for name, h in self.histograms.items()
            },
            "replay": {
                name: stats.to_dict()
                for name, stats in sorted(self.replay_policies.items())
            },
            "timeout_rate": self.timeout_rate,
            "failure_rate": self.failure_rate,
            "events_dropped": self.events_dropped,
            "sink": {
                "segments": self.sink_segments,
                "bytes": self.sink_bytes,
                "rotations": self.sink_rotations,
            },
            "workers": [
                self.worker_resources[pid].to_dict()
                for pid in sorted(self.worker_resources)
            ],
            "worker_peak_rss_mb": self.worker_peak_rss_mb,
            "cpu_total_s": self.cpu_total_s,
            "cpu_utilisation": self.cpu_utilisation,
            "occupancy": [
                {"ts": ts, "in_flight": in_flight, "queue_depth": depth}
                for ts, in_flight, depth in self.occupancy
            ],
            "peak_in_flight": self.peak_in_flight,
        }


def aggregate_run(directory: str | Path) -> RunReport:
    """Fold every record of a telemetry directory into a report.

    ``job`` records drive the outcome counts and exact latency
    percentiles; ``run`` records contribute counters/gauges/histograms
    (summed / last-write / merged respectively across runs) plus the
    wall budget CPU utilisation divides by; ``resource`` records fold
    into per-worker aggregates (peak RSS, CPU totals); ``pool`` records
    build the occupancy timeline; ``event`` records are counted.
    Unknown kinds are skipped -- forward compatibility within a schema
    version.

    A directory that exists but holds no telemetry segments yet (a sink
    opened and never written, a run killed before its first record)
    aggregates to an *empty* report (:attr:`RunReport.is_empty`) rather
    than raising -- only a missing directory or structurally corrupt
    records raise :class:`~repro.obs.sink.SinkError`.
    """
    report = RunReport(directory=str(directory))
    path = Path(directory)
    if path.is_dir() and not _segments(path):
        return report
    stats = sink_stats(path)
    report.sink_segments = stats.segments
    report.sink_bytes = stats.bytes
    report.sink_rotations = stats.rotations
    resource_records: list[Mapping[str, Any]] = []
    for record in iter_telemetry(directory):
        kind = record["kind"]
        if kind == "event":
            report.events += 1
        elif kind == "job":
            status = record.get("status")
            if status == "cached":
                report.jobs_cached += 1
            elif status == "done":
                report.jobs_done += 1
                latency = record.get("compute_s")
                if latency is not None:
                    report.job_latencies_s.append(float(latency))
                summary = record.get("replay")
                if isinstance(summary, Mapping):
                    name = str(summary.get("policy", "?"))
                    report.replay_policies.setdefault(
                        name, ReplayPolicyStats(policy=name)
                    ).fold(summary)
            elif status == "failed":
                report.jobs_failed += 1
            elif status == "retried":
                report.retries += 1
            if record.get("timeout"):
                report.timeouts += 1
        elif kind == "run":
            report.runs += 1
            for name, value in (record.get("counters") or {}).items():
                report.counters[name] = report.counters.get(name, 0) + value
            report.gauges.update(record.get("gauges") or {})
            merge_histogram_maps(
                report.histograms,
                {
                    name: Histogram.from_dict(doc)
                    for name, doc in (record.get("histograms") or {}).items()
                },
            )
            summary = record.get("report")
            if isinstance(summary, Mapping):
                duration = summary.get("duration_s")
                workers = summary.get("workers")
                if isinstance(duration, (int, float)) and isinstance(
                    workers, (int, float)
                ):
                    report.wall_budget_s += float(duration) * float(workers)
        elif kind == "resource":
            resource_records.append(record)
        elif kind == "pool":
            in_flight = record.get("in_flight")
            depth = record.get("queue_depth")
            if isinstance(in_flight, int) and isinstance(depth, int):
                report.occupancy.append(
                    (float(record.get("ts") or 0.0), in_flight, depth)
                )
    report.worker_resources = fold_resource_records(resource_records)
    report.job_latencies_s.sort()
    return report


def render_run_report(report: RunReport) -> str:
    """Human-readable summary for ``repro obs report``."""
    def fmt_s(value: float | None) -> str:
        return "-" if value is None else f"{value:.4f} s"

    if report.is_empty:
        return "\n".join(
            [
                f"telemetry: {report.directory}",
                "runs: no data",
                "jobs: no data",
                "job latency: no data",
                "replay: no data",
                "(no telemetry records -- run the batch service with "
                "--telemetry-dir to populate this directory)",
            ]
        )

    lines = [
        f"telemetry: {report.directory}",
        f"runs: {report.runs}; events: {report.events}",
        (
            f"jobs: {report.jobs_total} total = {report.jobs_done} computed"
            f" + {report.jobs_cached} cached + {report.jobs_failed} failed"
        ),
        (
            f"cache hit rate: {100.0 * report.cache_hit_rate:.1f}%; "
            f"timeouts: {report.timeouts}; retries: {report.retries}"
        ),
        (
            "job latency (computed): "
            f"p50 {fmt_s(report.latency_percentile(50))}, "
            f"p90 {fmt_s(report.latency_percentile(90))}, "
            f"p99 {fmt_s(report.latency_percentile(99))}"
        ),
    ]
    if report.replay_policies:
        lines.append("replay (computed jobs, switch latency):")
        width = max(len(name) for name in report.replay_policies)
        for name, stats in sorted(report.replay_policies.items()):
            lines.append(
                f"  {name.ljust(width)} : jobs={stats.jobs}"
                f" switches={stats.switches}"
                f" stalls={stats.stall_events}"
                f" p50={_fmt_opt(stats.percentile(50))}"
                f" p95={_fmt_opt(stats.percentile(95))}"
                f" p99={_fmt_opt(stats.percentile(99))}"
            )
    else:
        lines.append(
            "replay: no data (no computed replay jobs in this directory)"
        )
    if report.histograms:
        lines.append("per-stage distributions:")
        width = max(len(name) for name in report.histograms)
        for name, h in sorted(report.histograms.items()):
            lines.append(
                f"  {name.ljust(width)} : n={h.count}"
                f" p50={_fmt_opt(h.percentile(50))}"
                f" p90={_fmt_opt(h.percentile(90))}"
                f" p99={_fmt_opt(h.percentile(99))}"
                f" max={_fmt_opt(h.maximum)}"
            )
    if report.worker_resources:
        lines.append("worker resources (per pid):")
        for pid in sorted(report.worker_resources):
            worker = report.worker_resources[pid]
            lines.append(
                f"  pid {pid} : peak_rss={worker.rss_peak_mb:.1f} MiB"
                f" cpu={worker.cpu_s:.3f} s"
                f" (user {worker.cpu_user_s:.3f} + sys {worker.cpu_sys_s:.3f})"
                f" jobs={worker.jobs}"
            )
        peak = report.worker_peak_rss_mb
        util = report.cpu_utilisation
        lines.append(
            f"  fleet : peak_rss={peak:.1f} MiB"
            + (f" cpu_utilisation={100.0 * util:.1f}%" if util is not None
               else " cpu_utilisation=-")
        )
    if report.occupancy:
        lines.append(
            f"pool occupancy: {len(report.occupancy)} samples, "
            f"peak in-flight {report.peak_in_flight}"
        )
    lines.append(
        f"sink: {report.sink_segments} segment(s), {report.sink_bytes} bytes, "
        f"{report.sink_rotations} rotation(s); "
        f"events dropped: {report.events_dropped:g}"
    )
    if report.counters:
        lines.append("counters:")
        width = max(len(name) for name in report.counters)
        for name, value in sorted(report.counters.items()):
            lines.append(f"  {name.ljust(width)} : {value:g}")
    return "\n".join(lines)


def _fmt_opt(value: float | None) -> str:
    return "-" if value is None else f"{value:.4g}"


# ----------------------------------------------------------------------
# BENCH_*.json comparison
# ----------------------------------------------------------------------

class BenchDiffError(ValueError):
    """Raised for unreadable or structurally invalid BENCH documents."""


@dataclass(frozen=True)
class BenchDelta:
    """One benchmark compared across two BENCH documents."""

    name: str
    old: float
    new: float

    @property
    def ratio(self) -> float:
        return self.new / self.old if self.old > 0 else float("inf")

    @property
    def delta_pct(self) -> float:
        return 100.0 * (self.ratio - 1.0)


@dataclass
class BenchDiff:
    """The comparison of two BENCH documents at a threshold."""

    threshold: float
    deltas: list[BenchDelta] = field(default_factory=list)
    only_old: list[str] = field(default_factory=list)
    only_new: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.ratio > 1.0 + self.threshold]

    @property
    def improvements(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.ratio < 1.0 - self.threshold]


def load_bench(path: str | Path) -> dict[str, Any]:
    """Load and structurally validate one ``BENCH_*.json`` document."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchDiffError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, Mapping) or "suite" not in doc:
        raise BenchDiffError(f"{path}: not a BENCH document (no 'suite')")
    return dict(doc)


def merge_bench(
    existing: Mapping[str, Any] | None, fresh: Mapping[str, Any]
) -> dict[str, Any]:
    """Fold a (possibly partial) bench run into the document on disk.

    A run of some of a suite's tests (``pytest -k``) must not erase what
    the others recorded.  ``fresh`` benchmark entries replace the
    same-named ``existing`` ones in place and the rest are appended;
    ``fresh`` records replace ``existing`` records key by key; every
    other key is taken from ``fresh`` when it has one and kept otherwise.
    Neither input is modified.
    """
    out = dict(existing or {})
    for key, value in fresh.items():
        if key == "benchmarks":
            new = {bench["name"]: bench for bench in value}
            kept = [
                new.pop(bench.get("name"), bench)
                for bench in out.get("benchmarks") or []
            ]
            out[key] = kept + list(new.values())
        elif key == "records":
            out[key] = {**(out.get("records") or {}), **value}
        else:
            out[key] = value
    return out


def bench_timings(doc: Mapping[str, Any]) -> dict[str, float]:
    """name -> representative seconds (mean, falling back to min).

    A perfbench ledger document (one with ``sides``) is represented by
    its measured side: the ``sides.after.end_to_end.<metric>.median`` of
    every seconds-valued metric, named ``"<suite>: <metric>"`` because
    every workload's record has a ``wall_s``.  Shared by
    :func:`bench_diff` and the bench-trend renderer
    (:func:`repro.render.render_bench_trend_html`), so both agree on
    what "the" time of a benchmark is.
    """
    out: dict[str, float] = {}
    sides = doc.get("sides")
    if isinstance(sides, Mapping):
        after = sides.get("after")
        metrics = after.get("end_to_end") if isinstance(after, Mapping) else None
        if not isinstance(metrics, Mapping):
            return out
        for name, metric in metrics.items():
            if not isinstance(metric, Mapping) or metric.get("unit") != "s":
                continue
            value = metric.get("median")
            if isinstance(value, (int, float)) and value > 0:
                out[f"{doc.get('suite')}: {name}"] = float(value)
        return out
    for bench in doc.get("benchmarks") or []:
        if not isinstance(bench, Mapping) or "name" not in bench:
            continue
        value = bench.get("mean", bench.get("min"))
        if isinstance(value, (int, float)) and value > 0:
            out[str(bench["name"])] = float(value)
    return out


#: ``records`` entries that state a BENCH document's workload size.
SIZE_KEYS = ("config", "designs", "sweep_traces")


def bench_diff(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    threshold: float = DEFAULT_BENCH_THRESHOLD,
) -> BenchDiff:
    """Compare two BENCH documents; flag timings past the threshold.

    ``threshold`` is relative: 0.25 flags any benchmark whose
    representative time grew (regression) or shrank (improvement) by
    more than 25%.  Benchmarks present on only one side are listed but
    never flagged -- suite membership changes are not slowdowns.  Two
    documents whose ``records`` both state a size key
    (:data:`SIZE_KEYS`) and disagree on it measured different
    workloads; comparing their times would read a size change as a
    speed change, so that raises :class:`BenchDiffError`, and so do two
    documents of different ``suite``.
    """
    if threshold < 0:
        raise BenchDiffError("threshold must be non-negative")
    if old.get("suite") != new.get("suite"):
        raise BenchDiffError(
            f"suites differ ({old.get('suite')!r} vs {new.get('suite')!r}): "
            "the two documents measured different workloads"
        )
    old_records = old.get("records") or {}
    new_records = new.get("records") or {}
    for name in SIZE_KEYS:
        was, now = old_records.get(name), new_records.get(name)
        if was is not None and now is not None and was != now:
            raise BenchDiffError(
                f"records.{name} differ ({was!r} vs {now!r}): the two "
                "documents measured different workloads"
            )
    old_timings = bench_timings(old)
    new_timings = bench_timings(new)
    diff = BenchDiff(threshold=threshold)
    for name in sorted(old_timings.keys() & new_timings.keys()):
        diff.deltas.append(
            BenchDelta(name=name, old=old_timings[name], new=new_timings[name])
        )
    diff.only_old = sorted(old_timings.keys() - new_timings.keys())
    diff.only_new = sorted(new_timings.keys() - old_timings.keys())
    return diff


def render_bench_diff(diff: BenchDiff) -> str:
    """Comparison table plus a one-line verdict."""
    lines = []
    if diff.deltas:
        width = max(len(d.name) for d in diff.deltas)
        for d in diff.deltas:
            flag = ""
            if d.ratio > 1.0 + diff.threshold:
                flag = "  REGRESSION"
            elif d.ratio < 1.0 - diff.threshold:
                flag = "  improved"
            lines.append(
                f"  {d.name.ljust(width)} : {d.old:.6g} s -> {d.new:.6g} s "
                f"({d.delta_pct:+.1f}%){flag}"
            )
    for name in diff.only_old:
        lines.append(f"  {name} : removed")
    for name in diff.only_new:
        lines.append(f"  {name} : new")
    if not lines:
        lines.append("  (no comparable benchmarks)")
    verdict = (
        f"{len(diff.regressions)} regression(s) past "
        f"{100.0 * diff.threshold:.0f}% of {len(diff.deltas)} compared"
    )
    return "\n".join([f"bench-diff (threshold {100.0 * diff.threshold:.0f}%):",
                      *lines, verdict])

