"""Small shared utilities."""

from .lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "atomic": ("write_text_atomic",),
        "jsonl": ("JsonlError", "replay_jsonl"),
        "ordering": ("argsort_by", "stable_unique"),
        "validation": ("require", "require_positive"),
    },
)
