"""Bench-trend page: a directory of ``BENCH_*.json`` files as HTML.

``benchmarks/conftest.py`` writes one ``BENCH_<group>.json`` artifact
per bench file and ``repro obs bench-diff`` compares exactly two of
them; this renderer takes a whole *history* -- an ordered sequence of
``(label, document)`` pairs -- and draws the trend: one sparkline per
benchmark across the history, first/last representative times, and the
same ±threshold verdicts bench-diff uses, so a directory of committed
BENCH artifacts becomes a perf-trend page in one command
(``repro render bench``).

Pure function ``history -> str``: callers (the CLI) load the files;
the renderer itself performs no IO and iterates the history strictly in
the order given (docs/REPORTING.md).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..obs.report import DEFAULT_BENCH_THRESHOLD, bench_timings
from . import renderer_meta
from ._markup import Raw, fnum, html_page, html_table, sparkline

_NO_DATA = '<p class="nodata">no BENCH documents given</p>'


def render_bench_trend_html(
    history: Sequence[tuple[str, Mapping[str, Any]]],
    threshold: float = DEFAULT_BENCH_THRESHOLD,
) -> str:
    """Render an ordered BENCH history as a standalone trend page.

    ``history`` pairs a label (typically the file name) with one loaded
    BENCH document, oldest first.  ``threshold`` flags first-to-last
    movements the way ``repro obs bench-diff`` would: a relative growth
    past it is a regression, a shrink past it an improvement.  An empty
    history renders a valid page with an explicit no-data notice.
    """
    sections: list[str] = []

    if not history:
        sections.append(_NO_DATA)
        return html_page("repro bench trend", sections,
                         meta=renderer_meta("bench"))

    # -- suites overview -------------------------------------------------
    sections.append("<h2>Documents</h2>")
    sections.append(
        html_table(
            ("label", "suite", "python", "machine", "benchmarks"),
            [
                (
                    label,
                    str(doc.get("suite", "-")),
                    str(doc.get("python", "-")),
                    str(doc.get("machine", "-")),
                    len(bench_timings(doc)),
                )
                for label, doc in history
            ],
            numeric=(4,),
        )
    )

    # -- per-benchmark trends --------------------------------------------
    timings = [bench_timings(doc) for _, doc in history]
    names = sorted({name for t in timings for name in t})
    sections.append("<h2>Trends</h2>")
    if not names:
        sections.append(
            '<p class="nodata">no comparable benchmark timings</p>'
        )
    else:
        sections.append(
            f"<p>representative seconds per document (mean, falling back "
            f"to min); first&#8594;last movements past "
            f"&#177;{100.0 * threshold:.0f}% are flagged like "
            "<code>repro obs bench-diff</code></p>"
        )
        rows = []
        for name in names:
            series = [t[name] for t in timings if name in t]
            first, last = series[0], series[-1]
            if first > 0:
                delta_pct = 100.0 * (last / first - 1.0)
                delta = f"{delta_pct:+.1f}%"
                if last / first > 1.0 + threshold:
                    flag = Raw('<span class="flag-bad">REGRESSION</span>')
                elif last / first < 1.0 - threshold:
                    flag = Raw('<span class="flag-good">improved</span>')
                else:
                    flag = ""
            else:
                delta, flag = "-", ""
            rows.append(
                (
                    name,
                    len(series),
                    f"{first:.6g}",
                    f"{last:.6g}",
                    delta,
                    flag,
                    Raw(sparkline(series, width=180, height=26)),
                )
            )
        sections.append(
            html_table(
                ("benchmark", "points", "first (s)", "last (s)", "delta",
                 "verdict", "trend"),
                rows,
                numeric=(1, 2, 3, 4),
            )
        )

    # -- custom records ---------------------------------------------------
    record_rows = []
    for label, doc in history:
        records = doc.get("records")
        if not isinstance(records, Mapping):
            continue
        for key in sorted(records):
            value = records[key]
            if isinstance(value, (int, float, str, bool)):
                record_rows.append((label, key, fnum(value)
                                    if isinstance(value, (int, float))
                                    and not isinstance(value, bool)
                                    else str(value)))
    if record_rows:
        sections.append("<h2>Custom records</h2>")
        sections.append(
            html_table(("label", "record", "value"), record_rows,
                       numeric=(2,))
        )

    return html_page(
        "repro bench trend", sections, meta=renderer_meta("bench")
    )


__all__ = ["render_bench_trend_html"]
