"""Small shared utilities."""

from .atomic import write_text_atomic
from .jsonl import JsonlError, replay_jsonl
from .ordering import argsort_by, stable_unique
from .validation import require, require_positive

__all__ = [
    "JsonlError",
    "argsort_by",
    "replay_jsonl",
    "require",
    "require_positive",
    "stable_unique",
    "write_text_atomic",
]
