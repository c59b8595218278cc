"""Content-addressed on-disk cache of finished partitioning results.

Entries are keyed by :func:`repro.core.problem_key` -- the SHA-256 of
the canonical problem description -- and stored one JSON file per key,
sharded by the first two hex digits (``<root>/ab/<key>.json``) so a
directory never collects millions of siblings.  The payload reuses the
:mod:`repro.eval.persistence` conventions: a format/version header, the
design as XML, the scheme/result via :func:`result_to_dict`, and
:class:`~repro.eval.persistence.PersistenceError` on anything malformed.

Writes are rename-atomic (:func:`repro.util.write_text_atomic`) so a
crashed or killed worker can never leave a truncated entry behind, and
concurrent workers computing the same key simply race to an identical
file.  The layout, counters and atomic IO live in one private base
shared with :class:`ArtifactStore`; :class:`ResultCache` adds only its
envelope encode/decode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..core.partitioner import PartitionResult
from ..eval.persistence import (
    PersistenceError,
    _as_mapping,
    result_from_dict,
    result_to_dict,
)
from ..flow.xmlio import design_to_xml, parse_design
from ..util import write_text_atomic

#: Header of every cache entry; bumped on payload changes (old entries
#: then fail ``get`` loudly and ``lookup`` treats them as misses).
ENTRY_FORMAT = "repro-cache-entry"
ENTRY_VERSION = 1


@dataclass(frozen=True)
class CachedResult:
    """One deserialised cache entry.

    ``result.scheme.design`` is rebuilt from the stored XML, so a hit is
    fully self-contained -- no re-parse of the submitting job's design,
    no re-run of any pipeline stage.
    """

    key: str
    result: PartitionResult
    device_name: str | None
    compute_s: float | None

    @property
    def total_frames(self) -> int:
        return self.result.total_frames


class _ShardedTextStore:
    """Content-addressed UTF-8 files, one per key, sharded by key prefix.

    The layout (``<root>/ab/<key><SUFFIX>``), directory scans, per-instance
    ``hits``/``misses`` counters and atomic writes shared by every
    key-per-file store; subclasses define what the text means.
    """

    SUFFIX = ".txt"
    #: Noun used in error messages ("cache key too short").
    LABEL = "store"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        if len(key) < 3:
            raise PersistenceError(f"{self.LABEL} key too short: {key!r}")
        return self.root / key[:2] / f"{key}{self.SUFFIX}"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def keys(self) -> Iterator[str]:
        """All stored keys (directory scan; order unspecified)."""
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob(f"*{self.SUFFIX}")):
                yield entry.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def stats(self) -> Mapping[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}

    def _read(self, key: str) -> str | None:
        """The stored text for ``key``; ``None`` when absent (uncounted)."""
        try:
            return self.path_for(key).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def _write(self, key: str, text: str) -> Path:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        return write_text_atomic(path, text)


class ResultCache(_ShardedTextStore):
    """A content-addressed store of :class:`PartitionResult`s.

    Per-instance ``hits``/``misses`` counters make hit rates observable
    without a tracer; :meth:`stats` snapshots them.
    """

    SUFFIX = ".json"
    LABEL = "cache"

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, key: str) -> CachedResult | None:
        """The entry for ``key``, ``None`` on a miss.

        A *corrupt* entry raises :class:`PersistenceError` -- callers
        that prefer recompute-over-failure use :meth:`lookup`.
        """
        text = self._read(key)
        if text is None:
            self.misses += 1
            return None
        entry = self._decode(key, text)
        self.hits += 1
        return entry

    def lookup(self, key: str) -> CachedResult | None:
        """Like :meth:`get`, but a corrupt entry counts as a miss."""
        try:
            return self.get(key)
        except PersistenceError:
            self.misses += 1
            return None

    def probe(self, key: str) -> bool:
        """Cheap hit test: is there a plausibly valid entry for ``key``?

        Validates only the JSON envelope (format/version/key header and
        payload presence), skipping the expensive part of :meth:`lookup`
        -- the design XML re-parse and scheme/result rebuild.  Use it
        when only hit/miss matters, not the result itself.  Corrupt or
        missing entries count as misses, mirroring ``lookup``; the
        hits/misses counters are updated the same way.
        """
        try:
            text = self.path_for(key).read_text(encoding="utf-8")
            doc = json.loads(text)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return False
        ok = (
            isinstance(doc, Mapping)
            and doc.get("format") == ENTRY_FORMAT
            and doc.get("version") == ENTRY_VERSION
            and doc.get("key") == key
            and isinstance(doc.get("design_xml"), str)
            and isinstance(doc.get("result"), Mapping)
        )
        if ok:
            self.hits += 1
        else:
            self.misses += 1
        return ok

    def _decode(self, key: str, text: str) -> CachedResult:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PersistenceError(f"corrupt cache entry {key}: {exc}") from exc
        doc = _as_mapping(doc, f"cache entry {key}")
        if doc.get("format") != ENTRY_FORMAT:
            raise PersistenceError(f"cache entry {key} has the wrong format")
        if doc.get("version") != ENTRY_VERSION:
            raise PersistenceError(
                f"cache entry {key} has unsupported version "
                f"{doc.get('version')!r}"
            )
        if doc.get("key") != key:
            raise PersistenceError(
                f"cache entry {key} claims key {doc.get('key')!r}"
            )
        try:
            design = parse_design(doc["design_xml"]).design
        except (KeyError, ValueError) as exc:
            raise PersistenceError(
                f"cache entry {key} has an invalid design: {exc}"
            ) from exc
        result = result_from_dict(_as_mapping(doc.get("result"), "result"), design)
        device = doc.get("device")
        compute_s = doc.get("compute_s")
        return CachedResult(
            key=key,
            result=result,
            device_name=None if device is None else str(device),
            compute_s=None if compute_s is None else float(compute_s),
        )

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        result: PartitionResult,
        device_name: str | None = None,
        compute_s: float | None = None,
    ) -> Path:
        """Store ``result`` under ``key`` atomically; returns the path."""
        doc: dict[str, Any] = {
            "format": ENTRY_FORMAT,
            "version": ENTRY_VERSION,
            "key": key,
            "device": device_name,
            "compute_s": compute_s,
            "design_xml": design_to_xml(result.scheme.design),
            "result": result_to_dict(result),
        }
        return self._write(key, json.dumps(doc, indent=1))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for key in list(self.keys()):
            self.path_for(key).unlink(missing_ok=True)
            removed += 1
        return removed


class ArtifactStore(_ShardedTextStore):
    """Content-addressed store of rendered text artifacts (SVG/HTML).

    The rendering layer (:mod:`repro.render`) is deterministic, so a
    rendered artifact is as cacheable as the result it was rendered
    from: :func:`repro.render.artifact_key` folds the problem key, the
    renderer identity and ``RENDERER_VERSION`` into one SHA-256, and
    this store maps that key to the artifact text.  It shares the
    :class:`ResultCache` layout (``<root>/ab/<key>.txt``), atomic writes
    and hit/miss counters, but holds plain UTF-8 text instead of JSON
    entries: the artifact *is* the payload, and byte-determinism means
    no envelope is needed for validation.
    """

    LABEL = "artifact"

    def get(self, key: str) -> str | None:
        """The artifact text for ``key``, ``None`` on a miss."""
        text = self._read(key)
        if text is None:
            self.misses += 1
        else:
            self.hits += 1
        return text

    def put(self, key: str, text: str) -> Path:
        """Store ``text`` under ``key`` atomically; returns the path."""
        return self._write(key, text)
