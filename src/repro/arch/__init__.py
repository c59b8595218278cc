"""FPGA architecture substrate: resources, tiles, frames, devices.

Implements the Virtex-5 area model of the paper's Sec. IV-B (tile
capacities, frames per tile, Eqs. 1-6) and a reconstructed device library
for the Fig. 7/8 device ladder.
"""

from ..util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "device": (
            "Column", "Device", "iter_tiles", "make_device", "synthesise_columns",
        ),
        "frames": ("BitstreamSize", "FrameAddress", "frames_in_tile", "full_bitstream"),
        "library": (
            "VIRTEX5_LADDER", "DeviceLibrary", "get_device", "ladder_names",
            "virtex5_full", "virtex5_ladder",
        ),
        "resources": ("RESOURCE_TYPES", "ResourceType", "ResourceVector"),
        "tiles": (
            "BITS_PER_FRAME", "BYTES_PER_FRAME", "FRAMES_PER_TILE",
            "PRIMITIVES_PER_TILE", "TILE_CAPACITY", "TILE_FRAMES", "WORDS_PER_FRAME",
            "TileCount", "describe_tile_constants", "frames_for", "frames_to_bytes",
            "frames_to_words", "quantised_footprint", "region_frames", "tiles_for",
        ),
    },
)
