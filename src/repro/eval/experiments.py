"""Drivers that regenerate every table and figure of the paper.

Each ``exp_*`` function computes one artefact and returns structured
data; each ``render_*`` turns it into terminal output.  The synthetic
sweep behind Figs. 7-9 is shared (:func:`run_sweep`) and deterministic
per (count, seed).

The paper used 1000 designs; the benchmark default is smaller so the
suite stays fast -- set ``REPRO_SWEEP_DESIGNS=1000`` (or pass ``count``)
for the full-population run.  EXPERIMENTS.md records both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..arch.library import DeviceLibrary, virtex5_ladder
from ..core.baselines import (
    one_module_per_region_scheme,
    single_region_scheme,
    static_scheme,
)
from ..core.clustering import enumerate_base_partitions
from ..core.cost import (
    total_reconfiguration_frames,
    worst_case_frames,
)
from ..core.matrix import ConnectivityMatrix
from ..core.model import PRDesign
from ..core.partitioner import (
    InfeasibleError,
    PartitionerOptions,
    partition,
    partition_with_device_selection,
    smallest_device_for_scheme,
)
from ..core.result import PartitioningScheme
from ..obs import Tracer
from ..synth.generator import (
    DEFAULT_SWEEP_DESIGNS,
    DEFAULT_SWEEP_SEED,
    generate_population,
)
from . import report
from .casestudy import (
    CASESTUDY_BUDGET,
    TABLE4_PAPER,
    casestudy_design,
    casestudy_design_modified,
)
from .example_design import example_design
from .stats import FIG9_BIN_EDGES, ImprovementProfile, improvement_profile


# ----------------------------------------------------------------------
# Sec. IV-C example artefacts
# ----------------------------------------------------------------------


def exp_connectivity_matrix() -> ConnectivityMatrix:
    """The 5x8 connectivity matrix of the running example."""
    return ConnectivityMatrix.from_design(example_design())


def exp_table1() -> dict[str, int]:
    """Table I: base partition label -> frequency weight."""
    return {
        bp.label: bp.frequency_weight
        for bp in enumerate_base_partitions(example_design())
    }


def render_table1() -> str:
    data = exp_table1()
    rows = sorted(data.items(), key=lambda kv: (kv[0].count(",") + 1, kv[0]))
    return report.render_table(
        ("Base Part'n", "Freq wt"),
        rows,
        title="Table I -- base partitions with frequency weights",
    )


# ----------------------------------------------------------------------
# Case study: Tables III, IV, V
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CaseStudyResult:
    """Schemes + costs for one configuration set of the case study."""

    design: PRDesign
    proposed: PartitioningScheme
    schemes: dict[str, PartitioningScheme]
    totals: dict[str, int]
    worsts: dict[str, int]
    usages: dict[str, tuple[int, int, int]]


def _casestudy_result(design: PRDesign) -> CaseStudyResult:
    schemes = {
        "static": static_scheme(design),
        "modular": one_module_per_region_scheme(design),
        "single-region": single_region_scheme(design),
    }
    result = partition(design, CASESTUDY_BUDGET)
    schemes["proposed"] = result.scheme
    totals = {k: total_reconfiguration_frames(s) for k, s in schemes.items()}
    worsts = {k: worst_case_frames(s) for k, s in schemes.items()}
    usages = {k: s.resource_usage().as_tuple() for k, s in schemes.items()}
    return CaseStudyResult(
        design=design,
        proposed=result.scheme,
        schemes=schemes,
        totals=totals,
        worsts=worsts,
        usages=usages,
    )


def exp_table3() -> CaseStudyResult:
    """Proposed partitioning for the original configurations (Table III)."""
    return _casestudy_result(casestudy_design())


def exp_table5() -> CaseStudyResult:
    """Proposed partitioning for the modified configurations (Table V)."""
    return _casestudy_result(casestudy_design_modified())


def render_table3(result: CaseStudyResult | None = None) -> str:
    result = result or exp_table3()
    rows = [
        (region.name, ", ".join(region.labels))
        for region in result.proposed.regions
    ]
    static_names = {
        r.name for r in result.proposed.effectively_static_regions()
    }
    rows = [
        (name + (" (static)" if name in static_names else ""), parts)
        for name, parts in rows
    ]
    return report.render_table(
        ("Region", "Base Partitions"),
        rows,
        title="Table III -- partitions determined by the algorithm",
    )


def render_table4(result: CaseStudyResult | None = None) -> str:
    result = result or exp_table3()
    rows = []
    for key in ("static", "modular", "proposed"):
        scheme = result.schemes[key]
        clb, bram, dsp = result.usages[key]
        paper = TABLE4_PAPER[key]
        rows.append(
            (
                key,
                clb,
                bram,
                dsp,
                result.totals[key],
                f"{paper[0]}/{paper[1]}/{paper[2]}",
                paper[3],
            )
        )
    return report.render_table(
        (
            "Scheme",
            "CLBs",
            "BRAMs",
            "DSPs",
            "Total recon (frames)",
            "paper usage",
            "paper recon",
        ),
        rows,
        title="Table IV -- properties of the partitioning schemes",
    )


def render_table5(result: CaseStudyResult | None = None) -> str:
    result = result or exp_table5()
    static_names = {
        r.name for r in result.proposed.effectively_static_regions()
    }
    rows = [
        (
            region.name + (" (static)" if region.name in static_names else ""),
            ", ".join(region.labels),
        )
        for region in result.proposed.regions
    ]
    footer = (
        f"usage={result.usages['proposed']} total={result.totals['proposed']} frames "
        f"(paper: usage=(6500, 48, 144) total=92120)"
    )
    table = report.render_table(
        ("Region", "Base Partitions"),
        rows,
        title="Table V -- partitions for the modified configurations",
    )
    return table + "\n" + footer


# ----------------------------------------------------------------------
# Synthetic sweep: Figs. 7, 8, 9 + Sec. V counts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRecord:
    """Everything Figs. 7-9 need for one synthetic design."""

    design_name: str
    circuit_class: str
    device_name: str
    device_index: int
    modes: int
    configurations: int
    proposed_total: int
    modular_total: int
    single_total: int
    proposed_worst: int
    modular_worst: int
    single_worst: int
    escalations: int
    fits_smaller_than_modular: bool
    runtime_s: float


@dataclass(frozen=True)
class SweepResult:
    """A full synthetic-population evaluation."""

    records: tuple[SweepRecord, ...]
    skipped: int
    seed: int

    @property
    def n(self) -> int:
        return len(self.records)

    def sorted_by_device(self) -> tuple[SweepRecord, ...]:
        """Fig. 7/8 x-ordering: designs sorted by target device size."""
        return tuple(
            sorted(
                self.records,
                key=lambda r: (r.device_index, r.proposed_total),
            )
        )

    # -- Fig. 7 / Fig. 8 series ---------------------------------------
    def total_time_series(self) -> dict[str, list[int]]:
        ordered = self.sorted_by_device()
        return {
            "proposed": [r.proposed_total for r in ordered],
            "modular": [r.modular_total for r in ordered],
            "single-region": [r.single_total for r in ordered],
        }

    def worst_time_series(self) -> dict[str, list[int]]:
        ordered = self.sorted_by_device()
        return {
            "proposed": [r.proposed_worst for r in ordered],
            "modular": [r.modular_worst for r in ordered],
            "single-region": [r.single_worst for r in ordered],
        }

    def device_boundaries(self) -> dict[str, int]:
        """First x-index of each device group (Fig. 7/8 axis labels)."""
        out: dict[str, int] = {}
        for i, record in enumerate(self.sorted_by_device()):
            out.setdefault(record.device_name, i)
        return out

    # -- Fig. 9 profiles ------------------------------------------------
    def profiles(self) -> dict[str, ImprovementProfile]:
        recs = self.records
        return {
            "a": improvement_profile(
                "total vs modular",
                [r.modular_total for r in recs],
                [r.proposed_total for r in recs],
            ),
            "b": improvement_profile(
                "total vs single-region",
                [r.single_total for r in recs],
                [r.proposed_total for r in recs],
            ),
            "c": improvement_profile(
                "worst vs modular",
                [r.modular_worst for r in recs],
                [r.proposed_worst for r in recs],
            ),
            "d": improvement_profile(
                "worst vs single-region",
                [r.single_worst for r in recs],
                [r.proposed_worst for r in recs],
            ),
        }

    # -- Sec. V prose counts ---------------------------------------------
    def headline_counts(self) -> dict[str, float]:
        recs = self.records
        n = max(1, len(recs))
        profiles = self.profiles()
        return {
            "designs": len(recs),
            "skipped": self.skipped,
            "escalated": sum(1 for r in recs if r.escalations > 0),
            "escalated_pct": 100.0 * sum(1 for r in recs if r.escalations > 0) / n,
            "smaller_than_modular": sum(
                1 for r in recs if r.fits_smaller_than_modular
            ),
            "total_better_than_modular_pct": 100 * profiles["a"].fraction_better,
            "total_better_than_single_pct": 100 * profiles["b"].fraction_better,
            "worst_better_than_modular_pct": 100 * profiles["c"].fraction_better,
            "worst_matches_single_pct": 100
            * profiles["d"].fraction_better_or_equal,
            "mean_runtime_s": sum(r.runtime_s for r in recs) / n,
        }


def run_sweep(
    count: int = DEFAULT_SWEEP_DESIGNS,
    seed: int = DEFAULT_SWEEP_SEED,
    library: DeviceLibrary | None = None,
    options: PartitionerOptions | None = None,
    progress: Callable[[int, int], None] | None = None,
    tracer: Tracer | None = None,
) -> SweepResult:
    """Evaluate a synthetic population (the engine behind Figs. 7-9).

    An optional ``tracer`` (see docs/OBSERVABILITY.md) records one
    ``device_selection`` root span per design -- the instrumentation
    baseline in EXPERIMENTS.md is measured through this hook.
    """
    library = library or virtex5_ladder()
    records: list[SweepRecord] = []
    skipped = 0
    for i, (circuit_class, design) in enumerate(
        generate_population(count, seed=seed)
    ):
        if progress is not None:
            progress(i, count)
        t0 = time.perf_counter()
        try:
            dres = partition_with_device_selection(
                design, library, options, tracer=tracer
            )
        except InfeasibleError:
            skipped += 1
            continue
        modular = one_module_per_region_scheme(design)
        single = single_region_scheme(design)
        modular_device = smallest_device_for_scheme(modular, library)
        fits_smaller = (
            modular_device is not None
            and library.index_of(dres.device.name)
            < library.index_of(modular_device.name)
        )
        records.append(
            SweepRecord(
                design_name=design.name,
                circuit_class=circuit_class.value,
                device_name=dres.device.name,
                device_index=library.index_of(dres.device.name),
                modes=design.mode_count,
                configurations=design.configuration_count,
                proposed_total=dres.result.total_frames,
                modular_total=total_reconfiguration_frames(modular),
                single_total=total_reconfiguration_frames(single),
                proposed_worst=dres.result.worst_frames,
                modular_worst=worst_case_frames(modular),
                single_worst=worst_case_frames(single),
                escalations=dres.escalations,
                fits_smaller_than_modular=fits_smaller,
                runtime_s=time.perf_counter() - t0,
            )
        )
    return SweepResult(records=tuple(records), skipped=skipped, seed=seed)


def render_fig7(sweep: SweepResult) -> str:
    series = {k: [float(v) for v in vs] for k, vs in sweep.total_time_series().items()}
    chart = report.render_series(
        series,
        x_label="designs (sorted by target FPGA)",
        y_label="total reconfig time (frames)",
        title="Fig. 7 -- total reconfiguration time per scheme",
    )
    bounds = ", ".join(f"{k}@{v}" for k, v in sweep.device_boundaries().items())
    return chart + f"\ndevice group starts: {bounds}"


def render_fig8(sweep: SweepResult) -> str:
    series = {k: [float(v) for v in vs] for k, vs in sweep.worst_time_series().items()}
    chart = report.render_series(
        series,
        x_label="designs (sorted by target FPGA)",
        y_label="worst reconfig time (frames)",
        title="Fig. 8 -- worst-case reconfiguration time per scheme",
    )
    bounds = ", ".join(f"{k}@{v}" for k, v in sweep.device_boundaries().items())
    return chart + f"\ndevice group starts: {bounds}"


def render_fig9(sweep: SweepResult) -> str:
    paper_notes = {
        "a": "paper: better in 73% of cases",
        "b": "paper: better in all cases",
        "c": "paper: better in 70% of cases (worse for 3 designs)",
        "d": "paper: better or matching in 87.5% of cases",
    }
    blocks = []
    for key, profile in sweep.profiles().items():
        counts, edges = profile.histogram(FIG9_BIN_EDGES)
        blocks.append(
            report.render_histogram(
                edges.tolist(),
                counts.tolist(),
                title=(
                    f"Fig. 9({key}) -- % change, {profile.label} "
                    f"[better: {100 * profile.fraction_better:.1f}%, "
                    f"{paper_notes[key]}]"
                ),
            )
        )
    return "\n\n".join(blocks)


def render_headlines(sweep: SweepResult) -> str:
    counts = sweep.headline_counts()
    display = {
        "designs evaluated": int(counts["designs"]),
        "designs skipped (fit nothing)": int(counts["skipped"]),
        "device escalations (paper: 201/1000)": f"{int(counts['escalated'])} ({counts['escalated_pct']:.1f}%)",
        "fit smaller device than modular (paper: 13/1000)": int(
            counts["smaller_than_modular"]
        ),
        "total better than modular (paper: 73%)": f"{counts['total_better_than_modular_pct']:.1f}%",
        "total better than single-region (paper: 100%)": f"{counts['total_better_than_single_pct']:.1f}%",
        "worst better than modular (paper: 70%)": f"{counts['worst_better_than_modular_pct']:.1f}%",
        "worst >= single-region (paper: 87.5%)": f"{counts['worst_matches_single_pct']:.1f}%",
        "mean runtime per design": f"{counts['mean_runtime_s'] * 1e3:.0f} ms",
    }
    return report.kv_block(display, title="Sec. V headline statistics")
