"""Canonical problem descriptions and content-addressed cache keys.

A partitioning *problem* is fully determined by the design's structure
(modules, modes, footprints, configurations), the PR budget, and the
search parameters.  :func:`canonical_problem` normalises those inputs
into a stable, JSON-serialisable dict -- independent of declaration
order and of the design's display name -- and :func:`problem_key`
hashes it with SHA-256.  Two calls describing the same problem always
produce the same key, which is what lets :mod:`repro.service` cache
finished schemes content-addressed and never run the merge search twice
for the same inputs.

Normalisation rules:

* modules are sorted by name, modes by name within each module;
* configurations are keyed by name with their mode sets sorted;
* the design *name* is excluded (it does not influence the algorithm),
  but mode/module/configuration names are included -- they feed label
  ordering and tie-breaking inside the search;
* search parameters cover everything :class:`PartitionerOptions`
  exposes: transition policy, candidate-set cap, allocation caps,
  single-region fallback, and the optional pair probabilities.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Mapping

from ..arch.resources import ResourceVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from .model import PRDesign
    from .partitioner import PartitionerOptions

#: Embedded in every canonical problem; bump when the normal form changes
#: (old cache entries then simply miss instead of aliasing).
PROBLEM_FORMAT = "repro-problem"
PROBLEM_VERSION = 1


def _canonical_design(design: "PRDesign") -> dict[str, Any]:
    modules = []
    for module in sorted(design.modules, key=lambda m: m.name):
        modules.append(
            {
                "name": module.name,
                "modes": [
                    {
                        "name": mode.name,
                        "resources": list(mode.resources.as_tuple()),
                        "interface": mode.interface,
                    }
                    for mode in sorted(module.modes, key=lambda m: m.name)
                ],
            }
        )
    configurations = [
        {"name": config.name, "modes": sorted(config.modes)}
        for config in sorted(design.configurations, key=lambda c: c.name)
    ]
    return {
        "modules": modules,
        "configurations": configurations,
        "static_resources": list(design.static_resources.as_tuple()),
    }


def _canonical_options(options: "PartitionerOptions | None") -> dict[str, Any]:
    if options is None:
        return {"default": True}
    pairs = None
    if options.pair_probabilities is not None:
        # Symmetrise: {(a, b): w} and {(b, a): w} describe one problem.
        pairs = sorted(
            (sorted(key), float(weight))
            for key, weight in options.pair_probabilities.items()
        )
    return {
        "policy": options.policy.name,
        "max_candidate_sets": options.max_candidate_sets,
        # A removed knob, pinned at its one value: keys stay byte-stable.
        "include_single_region": True,
        "max_initial_pairs": options.allocation.max_initial_pairs,
        # A removed knob, pinned at its one value: keys stay byte-stable.
        "max_descent_steps": None,
        "pair_probabilities": pairs,
    }


def canonical_problem(
    design: "PRDesign",
    capacity: ResourceVector | None = None,
    options: "PartitionerOptions | None" = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The stable normal form of one partitioning problem.

    ``capacity`` is the PR budget for a fixed-budget run; pass ``None``
    for device-selection problems and describe the device/library in
    ``extra`` instead (as :mod:`repro.service` does).  ``extra`` entries
    must be JSON-serialisable; they land under their own key so they can
    never collide with the core fields.
    """
    doc: dict[str, Any] = {
        "format": PROBLEM_FORMAT,
        "version": PROBLEM_VERSION,
        "design": _canonical_design(design),
        "capacity": None if capacity is None else list(capacity.as_tuple()),
        "options": _canonical_options(options),
    }
    if extra:
        doc["extra"] = {str(k): extra[k] for k in sorted(extra)}
    return doc


def problem_key(
    design: "PRDesign",
    capacity: ResourceVector | None = None,
    options: "PartitionerOptions | None" = None,
    extra: Mapping[str, Any] | None = None,
) -> str:
    """SHA-256 hex digest of :func:`canonical_problem` (the cache key)."""
    doc = canonical_problem(design, capacity, options, extra)
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
