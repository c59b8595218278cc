"""repro: automated partitioning for partial-reconfiguration design.

A complete reproduction of Vipin & Fahmy, "Automated Partitioning for
Partial Reconfiguration Design of Adaptive Systems" (IEEE IPDPSW 2013):

* :mod:`repro.core` -- the partitioning algorithm (connectivity matrix,
  agglomerative clustering, covering, merge search, baselines);
* :mod:`repro.arch` -- the Virtex-5 area model (tiles, frames, devices);
* :mod:`repro.flow` -- the surrounding tool flow (synthesis estimation,
  XML front end, floorplanning, constraints, bitstreams);
* :mod:`repro.runtime` -- ICAP timing and adaptation-trace simulation;
* :mod:`repro.synth` -- the synthetic design generator of Sec. V;
* :mod:`repro.eval` -- drivers regenerating every table and figure;
* :mod:`repro.service` -- the batch partitioning service (job store,
  worker pool, content-addressed result cache; docs/SERVICE.md).

Quick start::

    from repro import PRDesign, Module, Configuration, partition
    from repro.arch import ResourceVector, get_device

    design = ...                     # modules + configurations
    device = get_device("FX70T")
    result = partition(design, device.usable_capacity(design.static_resources))
    print(result.scheme.describe())
"""

from .util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "arch.resources": ("ResourceType", "ResourceVector"),
        "core.baselines": (
            "one_module_per_region_scheme", "single_region_scheme", "static_scheme",
        ),
        "core.cost": (
            "TransitionPolicy", "total_reconfiguration_frames", "transition_frames",
            "worst_case_frames",
        ),
        "core.model": (
            "Configuration", "Mode", "Module", "PRDesign", "design_from_tables",
        ),
        "core.partitioner": (
            "InfeasibleError", "PartitionerOptions", "partition",
            "partition_with_device_selection", "select_device",
        ),
        "core.result": ("PartitioningScheme", "Region"),
        "obs": (
            "NULL_TRACER", "RecordingTracer", "Trace", "Tracer", "render_trace_summary",
            "trace_from_json",
        ),
    },
    defined=("__version__",),
)

__version__ = "1.0.0"
