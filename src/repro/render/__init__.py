"""Deterministic rendering layer: results and telemetry as SVG/HTML.

Results and telemetry used to terminate at JSON and text tables;
this package turns them into the paper's actual deliverables -- diagrams
and dashboards -- under one strict contract (docs/REPORTING.md):

    every renderer is a **pure function** ``input -> str`` with **no
    IO, no clock access and no randomness** inside the renderer.  The
    same input object renders to the same bytes on every platform,
    every time.

That contract is what makes artifacts *testable* (golden files,
byte-identical double-render property tests), *cacheable*
(:func:`artifact_key` keys a rendered artifact by problem key +
renderer identity + :data:`RENDERER_VERSION` in the content-addressed
store) and *CI-checkable* (``repro render --check`` re-renders and
byte-compares, exit 3 on drift).

The renderers, all exposed on ``repro render``:

* :func:`render_scheme_svg` -- configurations x regions activity grid
  with per-region footprints and the Eq. 8 transition-cost matrix;
* :func:`render_floorplan_svg` -- device grid, placed region
  rectangles, fragmentation overlay (largest free rectangle);
* :func:`render_report_html` -- the run dashboard over an aggregated
  telemetry directory (``repro.obs.RunReport``);
* :func:`render_bench_trend_html` -- the perf-trend page over an
  ordered ``BENCH_*.json`` history;
* :func:`render_replay_html` -- the replay latency dashboard over a
  per-policy comparison (:func:`repro.replay.collect_policy_comparison`).

Plus the ASCII floorplan (:func:`render_floorplan`, absorbed from the
retired ``repro.flow.visualize`` module, which remains as a thin
compatibility shim).

Loading inputs (XML designs, telemetry directories, BENCH files) and
writing artifacts is the *caller's* job -- see ``repro.cli``.
"""

from __future__ import annotations

import hashlib

from .ascii import occupancy, render_floorplan
from .bench import render_bench_trend_html
from .dashboard import render_report_html
from .floorplan import (
    fragmentation_stats,
    largest_free_rectangle,
    render_floorplan_svg,
)
from .replay import render_replay_html
from .scheme import render_scheme_svg

#: Bumped whenever any renderer's output bytes can change; part of every
#: artifact cache key, so stale cached artifacts miss instead of alias.
RENDERER_VERSION = 1

#: The renderer names accepted by ``repro render`` / :func:`artifact_key`.
RENDERERS = ("scheme", "floorplan", "report", "bench", "replay")


def renderer_meta(renderer: str) -> str:
    """The self-describing stamp embedded in every rendered artifact."""
    return f"repro.render/{renderer} v{RENDERER_VERSION}"


def artifact_key(problem_key: str, renderer: str) -> str:
    """Cache key of one rendered artifact.

    SHA-256 over (renderer identity, :data:`RENDERER_VERSION`, the
    problem key) -- so a renderer change, a version bump or a different
    problem each map to a different slot in the content-addressed
    artifact store (:class:`repro.service.ArtifactStore`).
    """
    if renderer not in RENDERERS:
        raise ValueError(f"unknown renderer {renderer!r}")
    payload = f"{renderer_meta(renderer)}:{problem_key}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


__all__ = [
    "RENDERERS",
    "RENDERER_VERSION",
    "artifact_key",
    "fragmentation_stats",
    "largest_free_rectangle",
    "occupancy",
    "render_bench_trend_html",
    "render_floorplan",
    "render_floorplan_svg",
    "render_replay_html",
    "render_report_html",
    "render_scheme_svg",
    "renderer_meta",
]
