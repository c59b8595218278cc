"""The replay latency dashboard: one PolicyComparison -> HTML.

Pure function under the :mod:`repro.render` contract -- no IO, clocks
or randomness; the same comparison renders to the same bytes.  The
comparison itself is deterministic (records folded in sorted-key
order, histograms merged over fixed bounds), so the page is cacheable
under :func:`repro.render.artifact_key` with the comparison's content
address (:func:`repro.replay.comparison_key`) as the problem key.
"""

from __future__ import annotations

from . import renderer_meta
from ._markup import Raw, esc, fnum, html_page, html_table, sparkline, stat_tiles


def _seconds(value: float | None) -> str:
    """Fixed human-scale latency formatting (us/ms/s), ``-`` for None."""
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.1f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def render_replay_html(comparison) -> str:
    """Render a :class:`repro.replay.PolicyComparison` dashboard page."""
    meta = renderer_meta("replay")
    sections: list[str] = []
    policies = comparison.policies
    if not policies:
        sections.append(
            '<p class="nodata">no replay records &#8212; run '
            "<code>repro replay sweep</code> first</p>"
        )
        return html_page("Replay latency dashboard", sections, meta=meta)

    best = comparison.best_by(95)
    tiles = [
        ("policies", str(len(policies))),
        ("traces replayed", str(comparison.traces)),
        ("switches", fnum(sum(p.switches for p in policies))),
        ("stall events", fnum(sum(p.stall_events for p in policies))),
    ]
    if best is not None:
        tiles.append(("best p95", f"{best.policy} ({_seconds(best.percentile(95))})"))
    sections.append("<h2>Overview</h2>")
    sections.append(stat_tiles(tiles))

    sections.append("<h2>Delivered switch latency by policy</h2>")
    rows = []
    for p in policies:
        flag = (
            '<span class="flag-good">&#9733; best p95</span>'
            if best is not None and p.policy == best.policy
            else ""
        )
        rows.append(
            (
                Raw(f"<code>{esc(p.policy)}</code> {flag}"),
                p.traces,
                p.events,
                p.switches,
                _seconds(p.percentile(50)),
                _seconds(p.percentile(95)),
                _seconds(p.percentile(99)),
                f"{p.stall_events} ({p.stall_rate * 100:.1f}%)",
                f"{p.icap_utilisation * 100:.2f}%",
                Raw(sparkline([float(c) for c in p.latency.bucket_counts])),
            )
        )
    sections.append(
        html_table(
            (
                "policy", "traces", "events", "switches", "p50", "p95",
                "p99", "stalls", "ICAP util", "latency buckets",
            ),
            rows,
            numeric=(1, 2, 3, 4, 5, 6, 7, 8),
        )
    )

    prefetching = [p for p in policies if p.prefetch_hits or p.store_misses]
    sections.append("<h2>Prefetch and bitstream-store effects</h2>")
    if prefetching:
        sections.append(
            html_table(
                ("policy", "prefetch hits", "store misses", "rewrites",
                 "frames streamed"),
                [
                    (
                        Raw(f"<code>{esc(p.policy)}</code>"),
                        p.prefetch_hits,
                        p.store_misses,
                        p.rewrites,
                        fnum(p.total_frames),
                    )
                    for p in prefetching
                ],
                numeric=(1, 2, 3, 4),
            )
        )
    else:
        sections.append(
            '<p class="nodata">no prefetching or eviction policies in '
            "this comparison</p>"
        )
    return html_page("Replay latency dashboard", sections, meta=meta)
