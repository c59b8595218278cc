"""Design-flow substrate: the boxes of the paper's Fig. 2 tool flow.

Synthesis estimation (XST substitute), XML front end, wrapper/netlist
generation, column-aware floorplanning ([11] substitute), UCF emission,
and bitstream sizing.
"""

from ..util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "bitgen": (
            "BitstreamFormatError", "BitstreamInfo", "build_partial_bitstream",
            "parse_bitstream", "write_scheme_bitstreams",
        ),
        "bitstream": (
            "FULL_OVERHEAD_WORDS", "PARTIAL_OVERHEAD_WORDS", "BitstreamSet",
            "PartialBitstream", "generate_bitstreams",
        ),
        "constraints": ("TimingConstraint", "emit_ucf", "parse_ranges"),
        "feedback": ("PlacedPartition", "partition_and_place"),
        "floorplan": (
            "Floorplan", "FloorplanError", "Placement", "floorplan", "placement_frames",
            "plan_on_smallest_device",
        ),
        "netlist": (
            "STREAM_PORTS", "NetlistVariant", "RegionNetlist", "build_netlists",
            "emit_wrapper_hdl", "variant_count",
        ),
        "visualize": ("occupancy", "render_floorplan"),
        "synthesis": (
            "ModeSpec", "ModuleSpec", "SynthesisReport", "estimate_mode", "synthesise",
            "synthesise_module",
        ),
        "xmlio": (
            "DesignDocument", "DesignXMLError", "design_to_xml", "load_design",
            "parse_design", "save_design",
        ),
    },
)
