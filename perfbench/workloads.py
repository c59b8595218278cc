"""The benchmark's fleets, its output digests and its invariant checks.

The design fleets are fixed at the paper's seed: the Sec. V population
is heavy-tailed (one design in a hundred costs as much as fifty median
ones), so a population drawn per seed would move the wall time by more
than any bound a regression check can use.  ``--seed`` draws what
varies around the fixed fleet instead:

* ``sweep``: the declaration order of every design's modules, modes and
  configurations, and the order the closed loop visits the designs;
* ``replay-*``: the seeds of every replayed trace.

At the default seed both are the identity, so the outputs are compared
against digests from the paper-faithful oracles (``reference.json``).
Other seeds are checked against invariants.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path
from typing import Any

from repro.core import baselines, cost, partitioner
from repro.core.compatibility import are_compatible
from repro.core.model import Module, PRDesign
from repro.replay.trace import TraceSpec, WorkloadSuite
from repro.synth import generator

DEFAULT_SEED = 2013
FLEET_SEED = 2013
SWEEP_DESIGNS = 100

#: The replay suite, in the shape of benchmarks/BENCH_replay.json.
SUITE_DESIGNS = 11
TRACES_PER_DESIGN = 96
TRACE_LENGTH = 64
MAX_CANDIDATE_SETS = 3
POLICIES = ("no-prefetch", "prefetch-oracle", "evict-lru")

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def digest(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_reference() -> dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text())


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def relabel(design: PRDesign, rng: random.Random) -> PRDesign:
    """The same design with its declaration order shuffled."""
    modules = list(design.modules)
    rng.shuffle(modules)
    modules = [
        Module(m.name, tuple(rng.sample(list(m.modes), len(m.modes))))
        for m in modules
    ]
    configurations = list(design.configurations)
    rng.shuffle(configurations)
    return dataclasses.replace(
        design, modules=tuple(modules), configurations=tuple(configurations)
    )


def sweep_fleet(seed: int) -> list[PRDesign]:
    """The Sec. V population in the seed's declaration and visiting order."""
    designs = [d for _cls, d in generator.generate_population(
        SWEEP_DESIGNS, seed=FLEET_SEED)]
    if seed == DEFAULT_SEED:
        return designs
    rng = random.Random(seed)
    designs = [relabel(d, rng) for d in designs]
    rng.shuffle(designs)
    return designs


def region_digest(scheme) -> str:
    regions = sorted(
        sorted(",".join(sorted(p.modes)) for p in region.partitions)
        for region in scheme.regions
    )
    return digest({"regions": regions, "static": sorted(scheme.static_modes)})


def partition_record(device_name: str, result) -> dict[str, Any]:
    """What the reference pins down about one design's partitioning."""
    return {
        "device": device_name,
        "total": result.total_frames,
        "worst": result.worst_frames,
        "regions": region_digest(result.scheme),
    }


def sweep_design(design: PRDesign, library, options=None) -> dict[str, Any]:
    """One design through the calls ``run_sweep`` makes, as a record.

    Every call goes through its module attribute, so the traced run's
    wrappers see it.  Keys starting with ``_`` hold the objects the
    invariant checks need and are not compared with the reference.
    """
    try:
        dres = partitioner.partition_with_device_selection(design, library, options)
    except partitioner.InfeasibleError:
        return {"infeasible": True}
    modular = baselines.one_module_per_region_scheme(design)
    single = baselines.single_region_scheme(design)
    modular_device = partitioner.smallest_device_for_scheme(modular, library)
    return {
        **partition_record(dres.device.name, dres.result),
        "modular_device": modular_device.name if modular_device else None,
        "modular_total": cost.total_reconfiguration_frames(modular),
        "modular_worst": cost.worst_case_frames(modular),
        "single_total": cost.total_reconfiguration_frames(single),
        "single_worst": cost.worst_case_frames(single),
        "_scheme": dres.scheme,
        "_device": dres.device,
    }


def published(record: dict[str, Any]) -> dict[str, Any]:
    """A sweep record without its ``_`` objects."""
    return {k: v for k, v in record.items() if not k.startswith("_")}


def scheme_invariants(design: PRDesign, scheme, device, total: int,
                      worst: int) -> list[str]:
    """Why a partitioning result is wrong, or nothing when it holds."""
    errors = []
    if not scheme.fits(device.usable_capacity(design.static_resources)):
        errors.append("scheme does not fit its device")
    for region in scheme.regions:
        parts = region.partitions
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                if not are_compatible(a, b, design):
                    errors.append(f"region {region.name} mixes incompatible "
                                  f"{a.label} and {b.label}")
    if cost.total_reconfiguration_frames(scheme) != total:
        errors.append("reported total frames differ from repro.core.cost")
    if cost.worst_case_frames(scheme) != worst:
        errors.append("reported worst frames differ from repro.core.cost")
    single = baselines.single_region_scheme(design)
    if total > cost.total_reconfiguration_frames(single):
        errors.append("total exceeds the single-region total")
    return errors


def check_sweep_record(design: PRDesign, record: dict, seed: int,
                       reference: dict) -> str | None:
    """``None`` when the record is right, else why it is not."""
    expected = reference["sweep"].get(design.name)
    if expected is None:
        return f"{design.name}: no reference"
    if record.get("infeasible") or expected.get("infeasible"):
        if record.get("infeasible") != expected.get("infeasible"):
            return f"{design.name}: feasibility differs from the reference"
        return None
    if seed == DEFAULT_SEED:
        got = published(record)
        if got != expected:
            return f"{design.name}: {got} != reference {expected}"
        return None
    errors = scheme_invariants(design, record["_scheme"], record["_device"],
                               record["total"], record["worst"])
    return f"{design.name}: {'; '.join(errors)}" if errors else None


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FleetSuite(WorkloadSuite):
    """A suite whose designs come from ``seed`` and traces from ``trace_seed``."""

    trace_seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        super().__post_init__()
        traces = WorkloadSuite(
            designs=self.designs,
            traces_per_design=self.traces_per_design,
            length=self.length,
            seed=self.trace_seed,
            dwell=self.dwell,
            environments=self.environments,
        )
        object.__setattr__(self, "_traces", traces)

    def spec_for(self, design_index: int, trace_index: int) -> TraceSpec:
        return self._traces.spec_for(design_index, trace_index)


def replay_suite(seed: int) -> FleetSuite:
    return FleetSuite(
        designs=SUITE_DESIGNS,
        traces_per_design=TRACES_PER_DESIGN,
        length=TRACE_LENGTH,
        seed=FLEET_SEED,
        trace_seed=seed,
    )
