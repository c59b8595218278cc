"""Content-addressed on-disk store of replay records, held in segments.

Keys come from :func:`repro.replay.engine.replay_result_key` (problem
key x trace key x policy x replay version), so a fleet sweep re-run
completes entirely from this store, exactly like partition jobs
complete from the result cache.

Every replay job is a ``replay-batch`` job (a single trace is a batch
of one), and each job writes *all* of its records as one **segment**
(``<root>/segments/<digest>.json``): one rename-atomic file, so an
N-trace job costs one write instead of N.  The digest is the SHA-256 of
the segment payload itself, so concurrent workers producing the same
batch race to an identical file.  :meth:`ReplayResultStore.probe_many`
resolves a whole sweep's keys with O(segments) file reads instead of
O(keys) file opens -- the warm-sweep fast path.

The store lives in its own subtree (conventionally
``<cache_root>/replay`` -- see :func:`repro.replay.service.replay_store_for`)
so the partition cache's directory scans never see replay entries.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from ..util import write_text_atomic
from .engine import ReplayResult, result_from_record

#: Envelope header of every stored segment.
SEGMENT_FORMAT = "repro-replay-segment"
SEGMENT_VERSION = 1

#: Subdirectory holding segment files.
SEGMENT_DIRNAME = "segments"

SUFFIX = ".json"


class ReplayResultStore:
    """Atomic, content-addressed segments of canonical replay records.

    Because :func:`~repro.replay.engine.replay_record` is deterministic
    and segments are dumped canonically, the bytes of one batch are
    identical no matter which worker writes them.  Per-instance
    ``hits``/``misses`` counters mirror
    :class:`repro.service.cache.ResultCache`.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._segment_index: dict[str, dict[str, Any]] | None = None

    def get_record(self, key: str) -> dict[str, Any] | None:
        """The record for ``key``; ``None`` on a miss."""
        record = self.segment_index().get(key)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return dict(record)

    def get_result(self, key: str) -> ReplayResult | None:
        record = self.get_record(key)
        return None if record is None else result_from_record(record)

    def probe(self, key: str) -> bool:
        """Is there a stored record for ``key``?  Counted like a lookup."""
        return bool(self.probe_many([key]))

    def segment_dir(self) -> Path:
        return self.root / SEGMENT_DIRNAME

    def segment_paths(self) -> list[Path]:
        """All segment files, sorted (order is cosmetic: the segment
        digest is content-derived, so overlapping keys hold identical
        records and merge order cannot matter)."""
        try:
            return sorted(self.segment_dir().glob(f"*{SUFFIX}"))
        except OSError:
            return []

    def put_many(self, records: Mapping[str, Mapping[str, Any]]) -> Path | None:
        """Store a whole batch of ``key -> record`` in ONE atomic write.

        The segment file is named by the SHA-256 of its own canonical
        payload, so identical batches race to identical files.  Returns
        the segment path, or ``None`` for an empty batch.
        """
        if not records:
            return None
        payload = json.dumps(
            {
                "format": SEGMENT_FORMAT,
                "version": SEGMENT_VERSION,
                "records": {k: dict(v) for k, v in records.items()},
            },
            sort_keys=True,
            separators=(",", ":"),
        ) + "\n"
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        path = self.segment_dir() / f"{digest}{SUFFIX}"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_text_atomic(path, payload)
        self._segment_index = None
        return path

    def _load_segment(self, path: Path) -> Mapping[str, Any] | None:
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(doc, Mapping)
            or doc.get("format") != SEGMENT_FORMAT
            or doc.get("version") != SEGMENT_VERSION
            or not isinstance(doc.get("records"), Mapping)
        ):
            return None
        records = doc["records"]
        if not all(
            isinstance(k, str) and isinstance(v, Mapping)
            for k, v in records.items()
        ):
            return None
        return records

    def segment_index(self) -> Mapping[str, dict[str, Any]]:
        """``key -> record`` over every valid segment, cached.

        One pass over the segment directory (corrupt segments are
        skipped -- their keys just miss and recompute).  Invalidation:
        :meth:`put_many` drops the cache; cross-process writers are
        visible to a fresh store instance, which is what each
        ``run_batch`` call constructs.
        """
        if self._segment_index is None:
            index: dict[str, dict[str, Any]] = {}
            for path in self.segment_paths():
                records = self._load_segment(path)
                if records is None:
                    continue
                for key, record in records.items():
                    index[key] = dict(record)
            self._segment_index = index
        return self._segment_index

    def probe_many(self, keys: Iterable[str]) -> set[str]:
        """The subset of ``keys`` with a stored record.

        A fully cached N-trace sweep resolves in O(segments) reads
        instead of N file opens.  Hit/miss counters move by one per key.
        """
        keys = list(keys)
        index = self.segment_index()
        present = {k for k in keys if k in index}
        self.hits += len(present)
        self.misses += len(keys) - len(present)
        return present

    def keys(self) -> Iterator[str]:
        """All stored keys (order unspecified)."""
        return iter(self.segment_index())

    def __contains__(self, key: str) -> bool:
        return key in self.segment_index()

    def __len__(self) -> int:
        return len(self.segment_index())
