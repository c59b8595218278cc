"""Observability for the partitioning pipeline: tracing, metrics, events.

See docs/OBSERVABILITY.md for the full API, the JSON trace schema and
the durable telemetry pipeline (sink format, ``repro obs`` toolchain).
Dependency-free by design -- :mod:`repro.core` imports this package, so
it must not import anything above :mod:`repro.obs` itself
(:mod:`repro.util` sits below and is fair game).
"""

from ..util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "metrics": (
            "DEFAULT_BOUNDS", "Histogram", "MetricsError", "QuantileSummary",
            "merge_histogram_maps",
        ),
        "render": ("render_trace_summary", "stage_summary_rows"),
        "report": (
            "BenchDiff", "BenchDiffError", "ReplayPolicyStats", "RunReport",
            "aggregate_run", "bench_diff", "bench_timings", "load_bench",
            "render_bench_diff", "render_run_report",
        ),
        "resources": (
            "ResourceSample", "WorkerResources", "fold_resource_records",
            "job_resources", "sample_self",
        ),
        "sink": (
            "SINK_VERSION", "SinkError", "SinkStats", "TelemetrySink", "iter_telemetry",
            "load_telemetry", "sink_stats",
        ),
        "slo": (
            "SloError", "SloResult", "SloRule", "SloVerdict", "evaluate_slo",
            "load_slo", "render_slo_result", "resolve_metric",
        ),
        "tracer": (
            "NULL_TRACER", "TRACE_FORMAT", "TRACE_VERSION", "ProgressEvent",
            "RecordingTracer", "Span", "Trace", "TraceError", "Tracer",
            "trace_from_dict", "trace_from_json",
        ),
    },
)
