"""Synthetic design generation for the Sec. V evaluation."""

from ..util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "generator": (
            "STATIC_REGION", "GeneratorConfig", "generate_design",
            "generate_population", "population_summary",
        ),
        "profiles": (
            "CIRCUIT_CLASSES", "MAX_MODE_CLB", "MIN_MODE_CLB", "PROFILES",
            "CircuitClass", "ResourceProfile", "profile_for",
        ),
    },
)
