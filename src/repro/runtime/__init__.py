"""Adaptive-system runtime substrate: ICAP timing, configuration
management, environment-driven adaptation traces."""

from ..util.lazy import lazy_exports

_exported, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "adaptive": (
            "AdaptiveEnvironmentError", "BurstyEnvironment", "MarkovEnvironment",
            "UniformEnvironment", "uniform_markov",
        ),
        "icap": (
            "CUSTOM_DMA_CONTROLLER", "FLASH_STREAMING", "ICAP_CLOCK_HZ",
            "ICAP_PEAK_BYTES_PER_S", "ICAP_WIDTH_BITS", "PRESETS", "VENDOR_HWICAP",
            "IcapModel",
        ),
        "prefetch": (
            "PrefetchingManager", "PrefetchStats", "markov_predictor",
            "oracle_predictor", "replay_with_prefetch",
        ),
        "profile": (
            "estimate_markov", "pair_frequencies", "reoptimise_from_trace",
            "transition_counts",
        ),
        "stream": ("StreamReport", "consume_bitstream", "stream_scheme_bitstreams"),
        "manager": (
            "ConfigurationManager", "RuntimeStats", "TraceError", "TransitionRecord",
            "compare_schemes_on_trace", "replay",
        ),
    },
)


def __getattr__(name: str):
    # Deprecated alias: the old exception name shadowed the builtin
    # ``EnvironmentError``.  Resolving it through the defining module
    # keeps the warning text (and its single source of truth) there.
    if name == "EnvironmentError":
        from . import adaptive

        return adaptive.EnvironmentError
    return _exported(name)
