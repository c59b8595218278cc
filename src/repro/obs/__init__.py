"""Observability for the partitioning pipeline: tracing, metrics, events.

See docs/OBSERVABILITY.md for the full API, the JSON trace schema and
the durable telemetry pipeline (sink format, ``repro obs`` toolchain).
Dependency-free by design -- :mod:`repro.core` imports this package, so
it must not import anything above :mod:`repro.obs` itself
(:mod:`repro.util` sits below and is fair game).
"""

from .metrics import (
    DEFAULT_BOUNDS,
    Histogram,
    MetricsError,
    QuantileSummary,
    merge_histogram_maps,
)
from .render import render_trace_summary, stage_summary_rows
from .report import (
    BenchDiff,
    BenchDiffError,
    ReplayPolicyStats,
    RunReport,
    aggregate_run,
    bench_diff,
    bench_timings,
    load_bench,
    render_bench_diff,
    render_run_report,
)
from .resources import (
    ResourceSample,
    WorkerResources,
    fold_resource_records,
    job_resources,
    sample_self,
)
from .sink import (
    SINK_VERSION,
    SinkError,
    SinkStats,
    TelemetrySink,
    iter_telemetry,
    load_telemetry,
    sink_stats,
)
from .slo import (
    SloError,
    SloResult,
    SloRule,
    SloVerdict,
    evaluate_slo,
    load_slo,
    render_slo_result,
    resolve_metric,
)
from .tracer import (
    NULL_TRACER,
    TRACE_FORMAT,
    TRACE_VERSION,
    ProgressEvent,
    RecordingTracer,
    Span,
    Trace,
    TraceError,
    Tracer,
    trace_from_dict,
    trace_from_json,
)

__all__ = [
    "BenchDiff",
    "BenchDiffError",
    "DEFAULT_BOUNDS",
    "Histogram",
    "MetricsError",
    "NULL_TRACER",
    "ProgressEvent",
    "QuantileSummary",
    "RecordingTracer",
    "ReplayPolicyStats",
    "ResourceSample",
    "RunReport",
    "SINK_VERSION",
    "SinkError",
    "SinkStats",
    "SloError",
    "SloResult",
    "SloRule",
    "SloVerdict",
    "Span",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TelemetrySink",
    "Trace",
    "TraceError",
    "Tracer",
    "WorkerResources",
    "aggregate_run",
    "bench_diff",
    "bench_timings",
    "evaluate_slo",
    "fold_resource_records",
    "iter_telemetry",
    "job_resources",
    "load_bench",
    "load_slo",
    "load_telemetry",
    "merge_histogram_maps",
    "render_bench_diff",
    "render_run_report",
    "render_slo_result",
    "render_trace_summary",
    "resolve_metric",
    "sample_self",
    "sink_stats",
    "stage_summary_rows",
    "trace_from_dict",
    "trace_from_json",
]
