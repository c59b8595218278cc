"""Partition-scheme diagram: configurations x regions as one SVG.

The paper's core deliverable is the activity table -- which base
partition each region holds in each configuration -- plus the Eq. 7/8/11
costs it implies.  :func:`render_scheme_svg` draws exactly that:

* one column per region, headed by its name, frame footprint (Eq. 6)
  and quantised resource footprint;
* one row per configuration; each cell shows the active base partition,
  coloured consistently per partition label (a region's colour is
  stable across this diagram and the floorplan diagram);
* the Eq. 8 transition-cost half-matrix, one cell per unordered
  configuration pair, shaded by cost relative to the worst transition;
* a footer with the Eq. 7 total, the Eq. 11 worst case and the resource
  usage against the budget.

Pure function: ``(result | scheme) -> str``; no IO, no clock, no
randomness (the determinism contract in docs/REPORTING.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.cost import (
    DEFAULT_POLICY,
    TransitionPolicy,
    total_reconfiguration_frames,
    transition_matrix,
    worst_case_frames,
)
from . import renderer_meta
from ._markup import (
    color_for,
    fnum,
    svg_document,
    svg_rect,
    svg_text,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.partitioner import PartitionResult
    from ..core.result import PartitioningScheme

_CELL_W = 92.0
_CELL_H = 26.0
_HEADER_H = 58.0
_MATRIX_CELL = 34.0
_MARGIN = 16.0
_TITLE_H = 30.0


def _scheme_of(result: "PartitionResult | PartitioningScheme"):
    scheme = getattr(result, "scheme", None)
    return scheme if scheme is not None else result


def _label_colors(scheme: "PartitioningScheme") -> dict[str, str]:
    labels = sorted(lbl for region in scheme.regions for lbl in region.labels)
    return {lbl: color_for(i) for i, lbl in enumerate(labels)}


def render_scheme_svg(
    result: "PartitionResult | PartitioningScheme",
    policy: TransitionPolicy = DEFAULT_POLICY,
) -> str:
    """Render a partitioning scheme (or full result) as a standalone SVG.

    Accepts either a :class:`repro.core.partitioner.PartitionResult` or
    a bare :class:`repro.core.result.PartitioningScheme`; degenerate
    schemes (zero regions, a single configuration) render a valid
    document with explicit placeholders instead of raising.
    """
    scheme = _scheme_of(result)
    design = scheme.design
    configs = [c.name for c in design.configurations]
    regions = scheme.regions
    colors = _label_colors(scheme)

    label_w = max(
        [64.0] + [8.0 + 7.2 * len(name) for name in configs]
    )
    grid_x = _MARGIN + label_w
    grid_y = _MARGIN + _TITLE_H + _HEADER_H
    grid_w = max(_CELL_W * len(regions), _CELL_W * 1.5)
    grid_h = _CELL_H * max(len(configs), 1)

    body: list[str] = []
    body.append(
        svg_text(
            _MARGIN,
            _MARGIN + 14,
            f"scheme {scheme.strategy!r} for design {design.name!r}",
            size=15,
            weight="bold",
        )
    )

    # -- region headers ------------------------------------------------
    if regions:
        for j, region in enumerate(regions):
            x = grid_x + j * _CELL_W
            body.append(
                svg_rect(
                    x, grid_y - _HEADER_H, _CELL_W, _HEADER_H,
                    fill="#f2f5f9", stroke="#c9d2dd",
                )
            )
            footprint = region.footprint
            body.append(
                svg_text(x + _CELL_W / 2, grid_y - _HEADER_H + 17,
                         region.name, anchor="middle", weight="bold")
            )
            body.append(
                svg_text(x + _CELL_W / 2, grid_y - _HEADER_H + 33,
                         f"{region.frames} frames", anchor="middle", size=10,
                         fill="#444444")
            )
            body.append(
                svg_text(
                    x + _CELL_W / 2, grid_y - _HEADER_H + 48,
                    f"{footprint.clb}c/{footprint.bram}b/{footprint.dsp}d",
                    anchor="middle", size=10, fill="#444444",
                )
            )
    else:
        body.append(
            svg_text(grid_x, grid_y - _HEADER_H / 2,
                     "(no reconfigurable regions -- fully static scheme)",
                     size=11, fill="#777777")
        )

    # -- activity grid -------------------------------------------------
    if not configs:
        body.append(
            svg_text(grid_x, grid_y + _CELL_H / 2 + 4,
                     "(no configurations)", size=11, fill="#777777")
        )
    for i, cname in enumerate(configs):
        y = grid_y + i * _CELL_H
        body.append(
            svg_text(grid_x - 8, y + _CELL_H / 2 + 4, cname, anchor="end",
                     size=11)
        )
        activity = scheme.activity(cname)
        for j in range(len(regions)):
            x = grid_x + j * _CELL_W
            label = activity[j]
            if label is None:
                body.append(
                    svg_rect(x, y, _CELL_W, _CELL_H, fill="#fafafa",
                             stroke="#e0e0e0")
                )
                body.append(
                    svg_text(x + _CELL_W / 2, y + _CELL_H / 2 + 4, "·",
                             anchor="middle", fill="#bbbbbb")
                )
            else:
                body.append(
                    svg_rect(x, y, _CELL_W, _CELL_H, fill=colors[label],
                             stroke="#ffffff", opacity=0.82)
                )
                body.append(
                    svg_text(x + _CELL_W / 2, y + _CELL_H / 2 + 4, label,
                             anchor="middle", size=11, fill="#ffffff",
                             weight="bold")
                )

    cursor = grid_y + grid_h + 22

    # -- static modes ---------------------------------------------------
    if scheme.static_modes:
        body.append(
            svg_text(
                _MARGIN, cursor,
                "static logic: " + ", ".join(sorted(scheme.static_modes)),
                size=11, fill="#444444",
            )
        )
        cursor += 20

    # -- Eq. 8 transition-cost half-matrix ------------------------------
    if len(configs) >= 2:
        body.append(
            svg_text(_MARGIN, cursor,
                     "transition cost (frames rewritten, Eq. 8) "
                     f"under the {policy.value!r} policy:",
                     size=12, weight="bold")
        )
        cursor += 10
        matrix = transition_matrix(scheme, policy)
        peak = max(matrix.values()) if matrix else 0
        mx = _MARGIN + label_w
        my = cursor + 18
        for j, cname in enumerate(configs[1:], start=1):
            body.append(
                svg_text(mx + (j - 1) * _MATRIX_CELL + _MATRIX_CELL / 2,
                         my - 5, cname.split(".")[-1], anchor="middle",
                         size=9, fill="#444444")
            )
        for i, a in enumerate(configs[:-1]):
            y = my + i * _MATRIX_CELL
            body.append(
                svg_text(mx - 8, y + _MATRIX_CELL / 2 + 3, a, anchor="end",
                         size=9, fill="#444444")
            )
            for j, b in enumerate(configs[1:], start=1):
                if j <= i:
                    continue
                frames = matrix.get((a, b), matrix.get((b, a), 0))
                x = mx + (j - 1) * _MATRIX_CELL
                share = frames / peak if peak else 0.0
                # White -> palette blue ramp on the cost share.
                body.append(
                    svg_rect(x, y, _MATRIX_CELL, _MATRIX_CELL,
                             fill="#4e79a7", stroke="#d9d9d9",
                             opacity=round(0.08 + 0.8 * share, 2))
                )
                body.append(
                    svg_text(x + _MATRIX_CELL / 2, y + _MATRIX_CELL / 2 + 3,
                             fnum(frames), anchor="middle", size=9)
                )
        cursor = my + (len(configs) - 1) * _MATRIX_CELL + 24
        matrix_w = label_w + _MATRIX_CELL * (len(configs) - 1)
    else:
        body.append(
            svg_text(_MARGIN, cursor,
                     "(fewer than two configurations -- no transitions)",
                     size=11, fill="#777777")
        )
        cursor += 20
        matrix_w = 0.0

    # -- footer ---------------------------------------------------------
    total = total_reconfiguration_frames(scheme, policy)
    worst = worst_case_frames(scheme, policy)
    usage = scheme.resource_usage()
    budget = getattr(result, "capacity", None)
    footer = (
        f"total reconfiguration {total} frames (Eq. 7); "
        f"worst case {worst} frames (Eq. 11); "
        f"usage {usage.clb} CLB / {usage.bram} BRAM / {usage.dsp} DSP"
    )
    if budget is not None:
        footer += (
            f" of budget {budget.clb}/{budget.bram}/{budget.dsp}"
        )
    body.append(svg_text(_MARGIN, cursor, footer, size=11, fill="#1a1a1a"))
    cursor += 12

    width = max(grid_x + grid_w, _MARGIN + matrix_w,
                _MARGIN + 7.0 * len(footer)) + _MARGIN
    height = cursor + _MARGIN
    return svg_document(
        width, height, "".join(body), meta=renderer_meta("scheme")
    )
