"""Run dashboard: one HTML page over a :class:`repro.obs.RunReport`.

``repro obs report`` prints the aggregate as text; this renderer turns
the same :class:`~repro.obs.report.RunReport` into a self-contained
HTML dashboard -- stat tiles for the job outcomes and cache behaviour,
the latency percentiles, and one inline-SVG sparkline per merged
histogram (bucket-count profile, so the *shape* of each per-stage
distribution is visible at a glance).

An empty report (fresh or record-less telemetry directory) renders a
valid page whose sections carry explicit "no data" notices -- the
graceful-degradation contract shared with ``repro obs report``.

Pure function ``report -> str`` (docs/REPORTING.md): the report object
is the only input; the renderer performs no IO of its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import renderer_meta
from ._markup import (
    Raw,
    fnum,
    html_page,
    html_table,
    sparkline,
    stat_tiles,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.report import RunReport

_NO_DATA = '<p class="nodata">no data recorded</p>'


def _fmt_seconds(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f} s"


def render_report_html(report: "RunReport") -> str:
    """Render an aggregated telemetry report as a standalone HTML page."""
    sections: list[str] = []
    empty = (
        report.runs == 0
        and report.jobs_total == 0
        and report.events == 0
        and not report.counters
        and not report.histograms
    )

    sections.append(
        f"<p>telemetry directory: <code>{_code(report.directory)}</code>"
        f" &#183; {report.runs} run(s), {report.events} progress "
        "event(s)</p>"
    )
    if empty:
        sections.append(
            '<p class="nodata">this telemetry directory contains no '
            "records yet &#8212; run the batch service with "
            "<code>--telemetry-dir</code> to populate it</p>"
        )

    # -- job outcomes ----------------------------------------------------
    sections.append("<h2>Jobs</h2>")
    if report.jobs_total == 0:
        sections.append(_NO_DATA)
    else:
        sections.append(
            stat_tiles(
                [
                    ("jobs total", str(report.jobs_total)),
                    ("computed", str(report.jobs_done)),
                    ("cached", str(report.jobs_cached)),
                    ("failed", str(report.jobs_failed)),
                    ("cache hit rate",
                     f"{100.0 * report.cache_hit_rate:.1f}%"),
                    ("timeouts", str(report.timeouts)),
                    ("retries", str(report.retries)),
                ]
            )
        )

    # -- latency percentiles ---------------------------------------------
    sections.append("<h2>Job latency (computed jobs)</h2>")
    if not report.job_latencies_s:
        sections.append(_NO_DATA)
    else:
        sections.append(
            stat_tiles(
                [
                    ("p50", _fmt_seconds(report.latency_percentile(50))),
                    ("p90", _fmt_seconds(report.latency_percentile(90))),
                    ("p99", _fmt_seconds(report.latency_percentile(99))),
                    ("samples", str(len(report.job_latencies_s))),
                ]
            )
        )
        sections.append(
            "<p>latency profile (sorted samples):</p>"
            + sparkline(report.job_latencies_s, width=420, height=48)
        )

    # -- per-stage distributions -----------------------------------------
    sections.append("<h2>Per-stage distributions</h2>")
    if not report.histograms:
        sections.append(_NO_DATA)
    else:
        rows = []
        for name in sorted(report.histograms):
            hist = report.histograms[name]
            profile = [float(c) for c in hist.bucket_counts]
            rows.append(
                (
                    name,
                    hist.count,
                    fnum(hist.percentile(50)),
                    fnum(hist.percentile(90)),
                    fnum(hist.percentile(99)),
                    fnum(hist.maximum),
                    Raw(sparkline(profile, width=160, height=26,
                                  color="#59a14f")),
                )
            )
        sections.append(
            html_table(
                ("histogram", "count", "p50", "p90", "p99", "max",
                 "bucket profile"),
                rows,
                numeric=(1, 2, 3, 4, 5),
            )
        )

    # -- counters / gauges ------------------------------------------------
    sections.append("<h2>Counters</h2>")
    if not report.counters:
        sections.append(_NO_DATA)
    else:
        sections.append(
            html_table(
                ("counter", "value"),
                [(k, fnum(v)) for k, v in sorted(report.counters.items())],
                numeric=(1,),
            )
        )
    sections.append("<h2>Gauges</h2>")
    if not report.gauges:
        sections.append(_NO_DATA)
    else:
        sections.append(
            html_table(
                ("gauge", "value"),
                [(k, fnum(v)) for k, v in sorted(report.gauges.items())],
                numeric=(1,),
            )
        )

    return html_page(
        "repro run dashboard", sections, meta=renderer_meta("report")
    )


def _code(value: object) -> str:
    from ._markup import esc

    return esc(value)
