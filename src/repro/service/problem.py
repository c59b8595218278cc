"""One resolution path from a design description to a concrete problem,
and one partition step from a batch job spec to its result.

The ``partition``/``pareto`` CLI handlers and every batch worker share
the same preamble: parse the XML, build the design model, resolve the
target device (explicit flag, XML ``device`` attribute, or auto-select)
and derive the PR budget (XML ``budget`` override or the device's usable
capacity net of the static reservation).  :func:`resolve_problem`
implements it once; :meth:`ResolvedProblem.key` is the problem's
result-cache address, and :func:`partition_cached` is the only place a
batch worker turns a job spec into a
:class:`~repro.core.partitioner.PartitionResult`, whatever the job kind.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping

from ..arch.device import Device
from ..arch.library import DeviceLibrary, virtex5_full
from ..arch.resources import ResourceVector
from ..core import partitioner
from ..core.fingerprint import problem_key
from ..core.model import PRDesign
from ..core.partitioner import (
    PartitionerOptions,
    PartitionResult,
    select_device,
)
from ..flow.xmlio import DesignDocument, parse_design
from ..obs import NULL_TRACER, Tracer
from .cache import ResultCache


@dataclass(frozen=True)
class ResolvedProblem:
    """A parsed design plus its resolved device/budget.

    ``device`` is ``None`` when neither the caller nor the XML named
    one -- the caller then either runs the Sec. V device-selection
    protocol or calls :meth:`with_selected_device` for a smallest-fit
    device up front.  ``capacity`` is ``None`` exactly when ``device``
    is.
    """

    doc: DesignDocument
    design: PRDesign
    library: DeviceLibrary
    device: Device | None
    capacity: ResourceVector | None

    def key(self, max_candidate_sets: int | None) -> str:
        """The content address of this partitioning problem.

        Fixed-device problems hash (design, budget, options, device
        name); auto-select problems have no budget until a device is
        chosen, so they hash (design, options) plus the library's device
        ladder -- the selection protocol is deterministic given those.
        """
        options = PartitionerOptions(max_candidate_sets=max_candidate_sets)
        if self.device is not None:
            return problem_key(
                self.design, self.capacity, options,
                extra={"device": self.device.name},
            )
        return problem_key(
            self.design, None, options,
            extra={"device": None, "library": list(self.library.names)},
        )

    def with_selected_device(self) -> "ResolvedProblem":
        """Resolve ``device=None`` to the smallest fitting library device."""
        if self.device is not None:
            return self
        device = select_device(self.design, self.library)
        return replace(
            self,
            device=device,
            capacity=device.usable_capacity(self.design.static_resources),
        )


#: Shared default library: devices are frozen and the ladder never
#: changes, so every resolution (and every keying pass over a fleet of
#: jobs) can reuse one instance instead of rebuilding the column
#: synthesis per call.
_DEFAULT_LIBRARY: DeviceLibrary | None = None


def default_library() -> DeviceLibrary:
    """The cached default device library (:func:`virtex5_full`)."""
    global _DEFAULT_LIBRARY
    if _DEFAULT_LIBRARY is None:
        _DEFAULT_LIBRARY = virtex5_full()
    return _DEFAULT_LIBRARY


def resolve_problem_text(
    text: str,
    device_name: str | None = None,
    library: DeviceLibrary | None = None,
) -> ResolvedProblem:
    """Resolve a problem from XML *text* (the batch-worker entry point)."""
    library = library or default_library()
    doc = parse_design(text)
    design = doc.design
    name = device_name or doc.device_name
    if name:
        device = library.get(name)
        capacity = doc.budget or device.usable_capacity(design.static_resources)
        return ResolvedProblem(doc, design, library, device, capacity)
    return ResolvedProblem(doc, design, library, None, None)


def resolve_problem(
    path: str | Path,
    device_name: str | None = None,
    library: DeviceLibrary | None = None,
) -> ResolvedProblem:
    """Resolve a problem from a design XML *file* (the CLI entry point)."""
    return resolve_problem_text(
        Path(path).read_text(encoding="utf-8"), device_name, library
    )


def partition_cached(
    payload: Mapping[str, Any],
    cache: ResultCache,
    started: float,
    tracer: Tracer = NULL_TRACER,
) -> tuple[PartitionResult, str | None]:
    """A batch job's partition result and device: cache first, then search.

    Looks the payload's ``partition_key`` up in ``cache``.  On a miss it
    resolves the payload's XML, runs ``partition`` (fixed device) or
    ``partition_with_device_selection`` (auto-select) and caches the
    result, so a result that reached the cache after the batch was keyed
    -- a duplicate job, or another policy's replay of the same design --
    is served instead of searched again.  Both entry points are looked
    up on :mod:`repro.core.partitioner` at call time, so instrumentation
    that wraps them there sees every search.
    """
    key = payload["partition_key"]
    cached = cache.lookup(key)
    if cached is not None:
        return cached.result, cached.device_name
    problem = resolve_problem_text(
        payload["design_xml"], payload["device"], payload.get("library")
    )
    options = PartitionerOptions(
        max_candidate_sets=payload["max_candidate_sets"]
    )
    if problem.device is not None:
        assert problem.capacity is not None
        result = partitioner.partition(
            problem.design, problem.capacity, options, tracer=tracer
        )
        device_name = problem.device.name
    else:
        selected = partitioner.partition_with_device_selection(
            problem.design, problem.library, options, tracer=tracer
        )
        result, device_name = selected.result, selected.device.name
    cache.put(
        key, result, device_name=device_name,
        compute_s=time.perf_counter() - started,
    )
    return result, device_name
