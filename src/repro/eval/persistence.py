"""Result persistence: JSON round-trips and CSV export.

The 1000-design evaluation takes minutes; persisting its records lets
figures be regenerated, re-binned and re-analysed without recomputing.
JSON carries the full :class:`SweepResult`; CSV exports the Fig. 7/8
series in a plotting-tool-friendly layout.

The same conventions (format/version header, :class:`PersistenceError`
on any malformed input, strict schema checks) also cover single
partitioning outcomes: :func:`scheme_to_dict` / :func:`scheme_from_dict`
round-trip a :class:`~repro.core.result.PartitioningScheme`, and
:func:`result_to_dict` / :func:`result_from_dict` a full
:class:`~repro.core.partitioner.PartitionResult` -- the on-disk payload
of the :mod:`repro.service` content-addressed result cache.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ..arch.resources import ResourceVector
from ..core.clustering import BasePartition
from ..core.partitioner import PartitionResult
from ..core.result import PartitioningScheme, Region, SchemeError

if TYPE_CHECKING:
    from .experiments import SweepResult

#: Schema version embedded in saved files; bumped on field changes.
FORMAT_VERSION = 1

#: Header of serialised schemes / partition results.
SCHEME_FORMAT = "repro-scheme"
RESULT_FORMAT = "repro-result"
SCHEME_VERSION = 1


class PersistenceError(ValueError):
    """Raised for malformed or incompatible saved documents."""


def _as_mapping(doc: object, what: str) -> Mapping[str, Any]:
    """The document as a mapping, or :class:`PersistenceError`."""
    if not isinstance(doc, Mapping):
        raise PersistenceError(
            f"{what} must be a JSON object, got {type(doc).__name__}"
        )
    return doc


def _loads(text: str, what: str) -> Mapping[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"invalid JSON in {what}: {exc}") from exc
    return _as_mapping(doc, what)


def sweep_to_json(sweep: SweepResult) -> str:
    """Serialise a sweep to a JSON document."""
    return json.dumps(
        {
            "format": "repro-sweep",
            "version": FORMAT_VERSION,
            "seed": sweep.seed,
            "skipped": sweep.skipped,
            "records": [asdict(r) for r in sweep.records],
        },
        indent=1,
    )


def sweep_from_json(text: str) -> SweepResult:
    """Reload a sweep saved by :func:`sweep_to_json`.

    Any malformed input -- truncated files, non-JSON text, a non-object
    document, records of the wrong shape -- raises
    :class:`PersistenceError`, never a bare ``KeyError`` or
    ``json.JSONDecodeError``.
    """
    # The result cache imports this module for the scheme round-trip;
    # only sweep documents need the experiment drivers.
    from .experiments import SweepRecord, SweepResult

    doc = _loads(text, "sweep document")
    if doc.get("format") != "repro-sweep":
        raise PersistenceError("not a repro sweep document")
    if doc.get("version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported sweep format version {doc.get('version')!r}"
        )
    if "records" not in doc:
        raise PersistenceError("sweep document has no 'records' list")
    field_names = {f.name for f in fields(SweepRecord)}
    records = []
    for raw in doc["records"]:
        raw = _as_mapping(raw, "sweep record")
        unknown = set(raw) - field_names
        missing = field_names - set(raw)
        if unknown or missing:
            raise PersistenceError(
                f"record schema mismatch (unknown={sorted(unknown)}, "
                f"missing={sorted(missing)})"
            )
        try:
            records.append(SweepRecord(**raw))
        except (TypeError, ValueError) as exc:
            raise PersistenceError(f"invalid sweep record: {exc}") from exc
    try:
        return SweepResult(
            records=tuple(records),
            skipped=int(doc.get("skipped", 0)),
            seed=int(doc.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise PersistenceError(f"invalid sweep metadata: {exc}") from exc


def save_sweep(sweep: SweepResult, path: str | Path) -> None:
    Path(path).write_text(sweep_to_json(sweep), encoding="utf-8")


def load_sweep(path: str | Path) -> SweepResult:
    return sweep_from_json(Path(path).read_text(encoding="utf-8"))


def export_series_csv(sweep: SweepResult, path: str | Path) -> None:
    """Fig. 7/8 series as CSV: one row per design in device order."""
    ordered = sweep.sorted_by_device()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "rank",
                "design",
                "circuit_class",
                "device",
                "proposed_total",
                "modular_total",
                "single_total",
                "proposed_worst",
                "modular_worst",
                "single_worst",
            ]
        )
        for rank, r in enumerate(ordered):
            writer.writerow(
                [
                    rank,
                    r.design_name,
                    r.circuit_class,
                    r.device_name,
                    r.proposed_total,
                    r.modular_total,
                    r.single_total,
                    r.proposed_worst,
                    r.modular_worst,
                    r.single_worst,
                ]
            )


# ----------------------------------------------------------------------
# scheme / partition-result round-trips (the service cache payload)
# ----------------------------------------------------------------------


def _vector_to_list(vector: ResourceVector) -> list[int]:
    return list(vector.as_tuple())


def _vector_from_doc(raw: object, what: str) -> ResourceVector:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise PersistenceError(f"{what} must be a [clb, bram, dsp] triple")
    try:
        return ResourceVector(*(int(v) for v in raw))
    except (TypeError, ValueError) as exc:
        raise PersistenceError(f"invalid {what}: {exc}") from exc


def scheme_to_dict(scheme: PartitioningScheme) -> dict[str, Any]:
    """Serialise a scheme *relative to its design* (which travels separately).

    Base partitions carry their full content (modes, weight, footprint,
    modules) so reconstruction does not re-run clustering; the design is
    still required at load time because schemes validate against it.
    """
    return {
        "format": SCHEME_FORMAT,
        "version": SCHEME_VERSION,
        "strategy": scheme.strategy,
        "static_modes": sorted(scheme.static_modes),
        "regions": [
            {
                "name": region.name,
                "partitions": [
                    {
                        "modes": sorted(p.modes),
                        "frequency_weight": p.frequency_weight,
                        "resources": _vector_to_list(p.resources),
                        "modules": sorted(p.modules),
                    }
                    for p in region.partitions
                ],
            }
            for region in scheme.regions
        ],
        "cover": {name: list(labels) for name, labels in scheme.cover.items()},
    }


def scheme_from_dict(doc: Mapping[str, Any], design) -> PartitioningScheme:
    """Rebuild a scheme saved by :func:`scheme_to_dict` against ``design``.

    The scheme's own structural validation runs on reconstruction, so a
    stale cache entry that no longer matches the design fails loudly
    (as :class:`PersistenceError`).
    """
    doc = _as_mapping(doc, "scheme document")
    if doc.get("format") != SCHEME_FORMAT:
        raise PersistenceError("not a repro scheme document")
    if doc.get("version") != SCHEME_VERSION:
        raise PersistenceError(
            f"unsupported scheme version {doc.get('version')!r}"
        )
    try:
        regions = []
        for region_doc in doc["regions"]:
            region_doc = _as_mapping(region_doc, "region")
            partitions = tuple(
                BasePartition(
                    modes=frozenset(p["modes"]),
                    frequency_weight=int(p["frequency_weight"]),
                    resources=_vector_from_doc(p["resources"], "partition resources"),
                    modules=frozenset(p["modules"]),
                )
                for p in (_as_mapping(r, "partition") for r in region_doc["partitions"])
            )
            regions.append(Region(name=str(region_doc["name"]), partitions=partitions))
        cover = {
            str(name): tuple(labels)
            for name, labels in _as_mapping(doc["cover"], "cover").items()
        }
        return PartitioningScheme(
            design=design,
            regions=tuple(regions),
            cover=cover,
            static_modes=frozenset(doc.get("static_modes", ())),
            strategy=str(doc.get("strategy", "proposed")),
        )
    except (KeyError, TypeError, ValueError, SchemeError) as exc:
        raise PersistenceError(f"invalid scheme document: {exc}") from exc


def result_to_dict(result: PartitionResult) -> dict[str, Any]:
    """Serialise a full :class:`PartitionResult` (scheme + search stats)."""
    return {
        "format": RESULT_FORMAT,
        "version": SCHEME_VERSION,
        "scheme": scheme_to_dict(result.scheme),
        "total_frames": result.total_frames,
        "worst_frames": result.worst_frames,
        "capacity": _vector_to_list(result.capacity),
        "candidate_sets_explored": result.candidate_sets_explored,
        "states_explored": result.states_explored,
        "feasible_states": result.feasible_states,
        "only_single_region_feasible": result.only_single_region_feasible,
        "objective": result.objective,
    }


def result_from_dict(doc: Mapping[str, Any], design) -> PartitionResult:
    """Rebuild a :class:`PartitionResult` saved by :func:`result_to_dict`."""
    doc = _as_mapping(doc, "result document")
    if doc.get("format") != RESULT_FORMAT:
        raise PersistenceError("not a repro result document")
    if doc.get("version") != SCHEME_VERSION:
        raise PersistenceError(
            f"unsupported result version {doc.get('version')!r}"
        )
    try:
        return PartitionResult(
            scheme=scheme_from_dict(doc["scheme"], design),
            total_frames=int(doc["total_frames"]),
            worst_frames=int(doc["worst_frames"]),
            capacity=_vector_from_doc(doc["capacity"], "capacity"),
            candidate_sets_explored=int(doc["candidate_sets_explored"]),
            states_explored=int(doc["states_explored"]),
            feasible_states=int(doc["feasible_states"]),
            only_single_region_feasible=bool(doc["only_single_region_feasible"]),
            objective=float(doc.get("objective", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"invalid result document: {exc}") from exc


def export_histograms_csv(sweep: SweepResult, path: str | Path) -> None:
    """Fig. 9 histograms as CSV: one row per (panel, bin)."""
    from .stats import FIG9_BIN_EDGES

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["panel", "label", "bin_lo", "bin_hi", "count"])
        for panel, profile in sweep.profiles().items():
            counts, edges = profile.histogram(FIG9_BIN_EDGES)
            for i, count in enumerate(counts):
                writer.writerow(
                    [panel, profile.label, edges[i], edges[i + 1], int(count)]
                )
