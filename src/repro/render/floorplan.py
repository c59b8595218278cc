"""Floorplan diagram: device grid + placed regions + fragmentation.

Draws the synthesised column grid of a :class:`repro.arch.device.Device`
(one cell per tile, shaded by column resource type, row 0 at the bottom
like the Xilinx coordinate system), overlays every
:class:`repro.flow.floorplan.Placement` as a coloured rectangle, and
annotates the free-space structure the partitioner's feedback loop
cares about: occupancy, free-tile count and the largest free rectangle
(dashed outline) -- the window the next region would have to fit.

Pure function ``plan -> str``: the renderer never touches the
filesystem, clock or RNG (docs/REPORTING.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import renderer_meta
from ._markup import (
    FREE_TILE_FILL,
    color_for,
    svg_document,
    svg_rect,
    svg_text,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..flow.floorplan import Floorplan

_TILE = 11.0
_MARGIN = 16.0
_TITLE_H = 26.0
_AXIS_W = 34.0
_LEGEND_H = 64.0


def largest_free_rectangle(
    occupied: list[list[bool]],
) -> tuple[int, int, int, int] | None:
    """Largest all-free rectangle as (row_lo, col_lo, row_hi, col_hi).

    Classic histogram scan over the occupancy grid; ties resolve to the
    first maximal rectangle in row-major scan order, so the result is
    deterministic.  ``None`` when every tile is occupied (or the grid is
    empty).
    """
    if not occupied or not occupied[0]:
        return None
    n_cols = len(occupied[0])
    heights = [0] * n_cols
    best_area = 0
    best: tuple[int, int, int, int] | None = None
    for row_idx, row in enumerate(occupied):
        for col in range(n_cols):
            heights[col] = 0 if row[col] else heights[col] + 1
        # Largest rectangle in the histogram ending at this row.
        stack: list[tuple[int, int]] = []  # (start column, height)
        for col in range(n_cols + 1):
            height = heights[col] if col < n_cols else 0
            start = col
            while stack and stack[-1][1] >= height:
                top, top_height = stack.pop()
                area = top_height * (col - top)
                if area > best_area and top_height > 0:
                    best_area = area
                    best = (row_idx - top_height + 1, top, row_idx, col - 1)
                start = top
            if col < n_cols:
                stack.append((start, height))
    return best


def fragmentation_stats(plan: "Floorplan") -> dict[str, float]:
    """Free-space structure of a floorplan.

    ``occupancy`` is the covered-tile fraction; ``fragmentation`` is
    ``1 - largest_free_rect / free_tiles`` (0.0 when the free space is
    one solid rectangle, approaching 1.0 as it shatters) -- the signal
    the floorplan-feedback direction (ROADMAP) feeds back into the
    merge-search cost.
    """
    device = plan.device
    total = device.rows * device.column_count
    occupied = [[False] * device.column_count for _ in range(device.rows)]
    for placement in plan.placements:
        for row, col in placement.tiles():
            occupied[row][col] = True
    covered = sum(1 for row in occupied for cell in row if cell)
    free = total - covered
    rect = largest_free_rectangle(occupied)
    rect_area = 0
    if rect is not None:
        row_lo, col_lo, row_hi, col_hi = rect
        rect_area = (row_hi - row_lo + 1) * (col_hi - col_lo + 1)
    return {
        "occupancy": covered / total if total else 0.0,
        "free_tiles": float(free),
        "largest_free_rect": float(rect_area),
        "fragmentation": (1.0 - rect_area / free) if free else 0.0,
    }


def render_floorplan_svg(plan: "Floorplan") -> str:
    """Render a floorplan as a standalone SVG document.

    Handles the degenerate cases: a plan with zero placements renders
    the bare device grid (the fragmentation footer then reports 0%
    occupancy), and single-tile regions still get a readable label
    anchored outside the rectangle is skipped -- labels are drawn only
    when the rectangle is at least two tiles wide.
    """
    device = plan.device
    n_rows, n_cols = device.rows, device.column_count
    grid_x = _MARGIN + _AXIS_W
    grid_y = _MARGIN + _TITLE_H
    grid_w = n_cols * _TILE
    grid_h = n_rows * _TILE

    def tile_xy(row: int, col: int) -> tuple[float, float]:
        # Row 0 at the bottom.
        return grid_x + col * _TILE, grid_y + (n_rows - 1 - row) * _TILE

    body: list[str] = []
    body.append(
        svg_text(
            _MARGIN, _MARGIN + 12,
            f"floorplan on {device.name}: {n_rows} rows x {n_cols} columns, "
            f"{len(plan.placements)} regions",
            size=14, weight="bold",
        )
    )

    # -- base grid: one strip per column, shaded by resource type -------
    for col_idx, column in enumerate(device.columns):
        fill = FREE_TILE_FILL.get(column.rtype.name, "#f2f2f2")
        body.append(
            svg_rect(grid_x + col_idx * _TILE, grid_y, _TILE, grid_h,
                     fill=fill)
        )
    # Row separators + labels.
    for row in range(n_rows):
        x, y = tile_xy(row, 0)
        body.append(
            svg_rect(grid_x, y, grid_w, _TILE, fill="none", stroke="#e3e3e3")
        )
        body.append(
            svg_text(grid_x - 6, y + _TILE - 2.5, f"r{row}", anchor="end",
                     size=8, fill="#777777")
        )
    body.append(
        svg_rect(grid_x, grid_y, grid_w, grid_h, fill="none",
                 stroke="#999999")
    )

    # -- placed regions -------------------------------------------------
    for k, placement in enumerate(plan.placements):
        x, _ = tile_xy(placement.row_lo, placement.col_lo)
        _, y = tile_xy(placement.row_hi, placement.col_lo)
        w = placement.n_cols * _TILE
        h = placement.n_rows * _TILE
        fill = color_for(k)
        body.append(
            svg_rect(x, y, w, h, fill=fill, stroke="#333333", opacity=0.72,
                     rx=2.0)
        )
        if w >= 2 * _TILE:
            body.append(
                svg_text(x + w / 2, y + h / 2 + 4, placement.region_name,
                         anchor="middle", size=10, fill="#ffffff",
                         weight="bold")
            )

    # -- fragmentation overlay ------------------------------------------
    stats = fragmentation_stats(plan)
    occupied = [[False] * n_cols for _ in range(n_rows)]
    for placement in plan.placements:
        for row, col in placement.tiles():
            occupied[row][col] = True
    rect = largest_free_rectangle(occupied)
    if rect is not None:
        row_lo, col_lo, row_hi, col_hi = rect
        x, _ = tile_xy(row_lo, col_lo)
        _, y = tile_xy(row_hi, col_lo)
        body.append(
            svg_rect(x, y, (col_hi - col_lo + 1) * _TILE,
                     (row_hi - row_lo + 1) * _TILE, fill="none",
                     stroke="#c0392b", dash="5,3")
        )

    # -- legend + stats footer ------------------------------------------
    ly = grid_y + grid_h + 20
    lx = _MARGIN
    for name in ("CLB", "BRAM", "DSP"):
        body.append(
            svg_rect(lx, ly - 9, 11, 11, fill=FREE_TILE_FILL[name],
                     stroke="#bbbbbb")
        )
        body.append(svg_text(lx + 16, ly, f"free {name} tile", size=10))
        lx += 110
    body.append(
        svg_rect(lx, ly - 9, 11, 11, fill="none", stroke="#c0392b",
                 dash="5,3")
    )
    body.append(svg_text(lx + 16, ly, "largest free rectangle", size=10))
    ly += 20
    body.append(
        svg_text(
            _MARGIN, ly,
            f"occupancy {100.0 * stats['occupancy']:.1f}%; "
            f"free tiles {int(stats['free_tiles'])}; "
            f"largest free rectangle {int(stats['largest_free_rect'])} "
            f"tiles; fragmentation {stats['fragmentation']:.3f}",
            size=11,
        )
    )

    width = max(grid_x + grid_w, lx + 170.0) + _MARGIN
    height = ly + _MARGIN
    return svg_document(
        width, height, "".join(body), meta=renderer_meta("floorplan")
    )
