"""Content-addressed on-disk store of replay records, held in segments.

Keys come from :func:`repro.replay.engine.replay_result_key` (problem
key x trace key x policy x replay version), so a fleet sweep re-run
completes entirely from this store, exactly like partition jobs
complete from the result cache.

Every replay job is a ``replay-batch`` job (a single trace is a batch
of one), and each job writes *all* of its records as one **segment**
(``<root>/segments/<digest>.json``): one rename-atomic file, so an
N-trace job costs one write instead of N.  The digest is the SHA-256 of
the segment's bytes, so concurrent workers producing the same batch
race to an identical file.

A segment (version 2) is two lines of canonical JSON:

1. the **key manifest** ``{"format", "keys": [sorted keys], "version": 2}``;
2. the records, as one list in manifest order.

Validity rule, shared by every reader: a segment counts only when
``sha256(file bytes) == path.stem``.  A truncated, bit-flipped or
misnamed file is skipped whole -- its keys miss and recompute.

Key-only queries (:meth:`ReplayResultStore.probe_many`, ``probe``,
``keys``, ``in``, ``len``) parse line 1 and never decode a record, so
the warm-sweep fast path resolves a whole sweep's keys with
O(segments) reads of manifests.  :meth:`~ReplayResultStore.get_record`
and :meth:`~ReplayResultStore.segment_index` decode the bodies.
Version-1 segments -- one document ``{"format", "records": {key:
record}, "version": 1}`` -- are still read, through their one-document
decoder, for keys and records alike.

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
#: The version :meth:`ReplayResultStore.put_many` writes: a key manifest
#: line, then a records line.
SEGMENT_VERSION = 2
#: The one-document layout written before key manifests; still read.
SEGMENT_VERSION_V1 = 1

#: Subdirectory holding segment files.
SEGMENT_DIRNAME = "segments"

SUFFIX = ".json"


def _canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _read_valid(path: Path) -> bytes | None:
    """The bytes of ``path`` if it is a valid segment, else ``None``.

    The validity rule: the SHA-256 of the file's bytes is its stem.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return None
    return data if hashlib.sha256(data).hexdigest() == path.stem else None


def _header(data: bytes) -> Mapping[str, Any] | None:
    """Line 1 of a segment: a v2 key manifest, or a whole v1 document."""
    end = data.find(b"\n")
    try:
        doc = json.loads(data if end < 0 else data[:end])
    except ValueError:
        return None
    if not isinstance(doc, Mapping) or doc.get("format") != SEGMENT_FORMAT:
        return None
    return doc


def _v1_records(doc: Mapping[str, Any]) -> Mapping[str, Any] | None:
    """The ``key -> record`` map of a version-1 document."""
    records = doc.get("records")
    if doc.get("version") != SEGMENT_VERSION_V1 or not isinstance(
        records, Mapping
    ):
        return None
    if not all(
        isinstance(k, str) and isinstance(v, Mapping) for k, v in records.items()
    ):
        return None
    return records


def _manifest_keys(doc: Mapping[str, Any]) -> list[str] | None:
    """The keys a segment holds, from its header alone."""
    if doc.get("version") != SEGMENT_VERSION:
        records = _v1_records(doc)
        return None if records is None else list(records)
    keys = doc.get("keys")
    if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
        return None
    return keys


def _decode_body(data: bytes, keys: list[str]) -> dict[str, Any] | None:
    """Line 2 of a v2 segment, zipped with its manifest ``keys``."""
    try:
        body = json.loads(data.partition(b"\n")[2])
    except ValueError:
        return None
    if (
        not isinstance(body, list)
        or len(body) != len(keys)
        or not all(isinstance(record, Mapping) for record in body)
    ):
        return None
    return dict(zip(keys, body))


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
        self._key_set: set[str] | None = None

    def get_record(self, key: str) -> dict[str, Any] | None:
        """A fresh copy of the record for ``key``; ``None`` on a miss."""
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

        The segment is the key manifest line, then the records in
        manifest order (each key written once), named by the SHA-256 of
        its bytes, so identical batches race to identical files.
        Returns the segment path, or ``None`` for an empty batch.
        """
        if not records:
            return None
        keys = sorted(records)
        manifest = {"format": SEGMENT_FORMAT, "keys": keys,
                    "version": SEGMENT_VERSION}
        payload = (
            _canonical(manifest) + "\n"
            + _canonical([dict(records[k]) for k in keys]) + "\n"
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        path = self.segment_dir() / f"{digest}{SUFFIX}"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_text_atomic(path, payload)
        self._segment_index = None
        self._key_set = None
        return path

    def _valid_segments(self) -> Iterator[tuple[bytes, Mapping[str, Any]]]:
        """``(bytes, header)`` of every valid segment."""
        for path in self.segment_paths():
            data = _read_valid(path)
            doc = None if data is None else _header(data)
            if doc is not None:
                yield data, doc

    def segment_index(self) -> Mapping[str, dict[str, Any]]:
        """``key -> record`` over every valid segment, cached.

        One pass over the segment directory, decoding every body
        (invalid segments are skipped -- their keys just miss and
        recompute).  Invalidation: :meth:`put_many` drops the cache;
        cross-process writers are visible to a fresh store instance,
        which is what each ``run_batch`` call constructs.
        """
        if self._segment_index is None:
            index: dict[str, dict[str, Any]] = {}
            for data, doc in self._valid_segments():
                if doc.get("version") == SEGMENT_VERSION:
                    keys = _manifest_keys(doc)
                    records = None if keys is None else _decode_body(data, keys)
                else:
                    records = _v1_records(doc)
                index.update(records or {})
            self._segment_index = index
        return self._segment_index

    def _stored_keys(self) -> set[str]:
        """Every stored key, read from segment manifests only; cached
        and invalidated like :meth:`segment_index`."""
        if self._key_set is None:
            stored: set[str] = set()
            for _data, doc in self._valid_segments():
                stored.update(_manifest_keys(doc) or ())
            self._key_set = stored
        return self._key_set

    def probe_many(self, keys: Iterable[str]) -> set[str]:
        """The subset of ``keys`` with a stored record.

        A fully cached N-trace sweep resolves in O(segments) manifest
        reads, decoding no record.  Hit/miss counters move by one per
        key.
        """
        keys = list(keys)
        stored = self._stored_keys()
        present = {k for k in keys if k in stored}
        self.hits += len(present)
        self.misses += len(keys) - len(present)
        return present

    def keys(self) -> Iterator[str]:
        """All stored keys (order unspecified)."""
        return iter(self._stored_keys())

    def __contains__(self, key: str) -> bool:
        return key in self._stored_keys()

    def __len__(self) -> int:
        return len(self._stored_keys())
