"""Durable telemetry: a crash-safe, rotating JSONL event sink.

An in-process :class:`~repro.obs.tracer.RecordingTracer` evaporates with
its process; the sink is the persistent half of the pipeline.  A
telemetry directory holds numbered segment files::

    telemetry-00000.jsonl
    telemetry-00001.jsonl      # opened when the previous hit max_bytes
    ...

Each line is one self-describing record -- ``{"v": 1, "kind": ...,
"ts": <unix seconds>, ...}`` -- flushed per append, so a crash can tear
at most the final line of the *newest* segment.  Loading tolerates
exactly that tear by dropping the torn line, and never writes to the
files; only reopening a :class:`TelemetrySink` over the directory heals
the tail (via the shared :func:`repro.util.jsonl.replay_jsonl`
discipline) before appending.  Damage anywhere else raises
:class:`SinkError`.

Record kinds written by the batch service (docs/OBSERVABILITY.md has
the schema table):

* ``event`` -- one tracer progress event (name + payload);
* ``job``   -- one job outcome, keyed by job id **and** the
  content-addressed ``problem_key`` so records join cleanly against the
  result cache;
* ``run``   -- one end-of-run summary: the ``BatchReport`` dict plus
  the tracer's counters/gauges/histograms.

``repro obs report`` / ``tail`` / ``check`` read these directories.
"""

from __future__ import annotations

import json
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from ..util.jsonl import replay_jsonl
from .tracer import ProgressEvent, Tracer

#: Schema version stamped into every record (the ``v`` field).
SINK_VERSION = 1

#: Segment rotation threshold (bytes) -- generous; telemetry lines are
#: small, so one segment typically holds an entire run.
DEFAULT_MAX_BYTES = 16 * 1024 * 1024

_SEGMENT_PREFIX = "telemetry-"
_SEGMENT_SUFFIX = ".jsonl"


#: Module-level decode hook -- tests monkeypatch this to prove the
#: reader holds O(1) records, not a segment or directory at a time.
_decode = json.loads


class SinkError(ValueError):
    """Raised for corrupt telemetry directories or malformed records."""


def _segments(directory: Path) -> list[Path]:
    """Segment files of a telemetry directory, in rotation order."""
    return sorted(directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))


def _segment_index(path: Path) -> int:
    """The numeric rotation index of one segment file name."""
    stem = path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError as exc:
        raise SinkError(f"not a telemetry segment: {path.name}") from exc


def _segment_path(directory: Path, index: int) -> Path:
    """The segment file path for one rotation index."""
    return directory / f"{_SEGMENT_PREFIX}{index:05d}{_SEGMENT_SUFFIX}"


class TelemetrySink:
    """Append-only telemetry writer for one directory.

    Safe to reopen over an existing directory: writing resumes on the
    newest segment (after tail repair) and rotation continues the
    numbering.  Not multi-writer safe -- one sink per run directory,
    like one :class:`~repro.service.jobs.JobStore` per queue.
    """

    def __init__(
        self,
        directory: str | Path,
        max_bytes: int = DEFAULT_MAX_BYTES,
        clock: Callable[[], float] = time.time,
    ):
        if max_bytes < 1:
            raise SinkError("max_bytes must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._clock = clock
        self.records_written = 0
        # Weak, not ``id()``-keyed: a freed tracer's id can be reused by
        # the next one, which would then silently never be attached.
        self._attached: weakref.WeakSet[Tracer] = weakref.WeakSet()
        existing = _segments(self.directory)
        if existing:
            # Heal a torn tail before appending to it.
            replay_jsonl(existing[-1])
            self._index = _segment_index(existing[-1])
        else:
            self._index = 0

    @property
    def segment_path(self) -> Path:
        return _segment_path(self.directory, self._index)

    # -- writing ---------------------------------------------------------
    def append(self, kind: str, /, **fields: Any) -> dict[str, Any]:
        """Write one record; returns the full dict that landed on disk.

        ``v``/``kind``/``ts`` are reserved header fields; the rest of the
        record is the caller's payload (must be JSON-serialisable).
        """
        record = {"v": SINK_VERSION, "kind": str(kind), "ts": self._clock()}
        for key, value in fields.items():
            if key in record:
                raise SinkError(f"field {key!r} is a reserved header field")
            record[key] = value
        path = self.segment_path
        if path.exists() and path.stat().st_size >= self.max_bytes:
            self._index += 1
            path = self.segment_path
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
        self.records_written += 1
        return record

    def attach(self, tracer: Tracer) -> None:
        """Persist every progress event of ``tracer`` as it happens.

        Idempotent per tracer -- attaching the same tracer again (e.g.
        across several ``run_batch`` calls sharing one sink) does not
        double-write events.
        """
        if tracer in self._attached:
            return
        self._attached.add(tracer)
        tracer.on_progress(self._on_event)

    def _on_event(self, event: ProgressEvent) -> None:
        self.append("event", name=event.name, payload=dict(event.payload))


def _validate(record: Any, where: str) -> dict[str, Any]:
    """The per-record structural checks every loaded record must pass."""
    if not isinstance(record, dict):
        raise SinkError(f"{where}: telemetry record must be an object")
    if record.get("v") != SINK_VERSION:
        raise SinkError(
            f"{where}: unsupported telemetry version {record.get('v')!r}"
        )
    if not isinstance(record.get("kind"), str):
        raise SinkError(f"{where}: telemetry record has no kind")
    return record


def _iter_segment(path: Path, newest: bool) -> Iterator[dict[str, Any]]:
    """Yield the records of one segment, decoding one line at a time.

    On the ``newest`` segment a final line that is unterminated or not
    JSON is a crash tear and is dropped.  A rotated segment was closed
    whole long before any crash, so a tear there -- like a corrupt line
    anywhere before the end -- raises :class:`SinkError`.
    """
    with path.open("rb") as fh:
        size = path.stat().st_size
        offset = 0
        for line in fh:
            where = f"{path}@{offset}"
            offset += len(line)
            if not line.endswith(b"\n"):
                if newest:
                    return
                raise SinkError(
                    f"{path}: rotated segment has a torn final line"
                )
            try:
                record = _decode(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                if newest and offset >= size:
                    return
                raise SinkError(f"{where}: corrupt record: {exc}") from exc
            yield _validate(record, where)


def iter_telemetry(directory: str | Path) -> Iterator[dict[str, Any]]:
    """Yield every record of a telemetry directory, oldest first.

    **Streaming**: records are decoded one line at a time and yielded
    immediately -- no segment or directory is ever materialised in
    memory, so a multi-gigabyte telemetry directory costs O(1) records
    of working set.

    Drops a torn final line on the newest segment (a crash mid-append)
    without repairing the files, so read-only checkouts and concurrent
    readers are safe.  A torn line in any *older* segment is real
    corruption (rotation closed that file long before the crash) and
    raises :class:`SinkError`, as does any structurally invalid record.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise SinkError(f"not a telemetry directory: {directory}")
    segments = _segments(directory)
    if not segments:
        raise SinkError(f"no telemetry segments in {directory}")
    for path in segments:
        yield from _iter_segment(path, newest=path == segments[-1])


@dataclass(frozen=True)
class SinkStats:
    """Filesystem-level shape of one telemetry directory."""

    segments: int
    bytes: int

    @property
    def rotations(self) -> int:
        """Completed size-triggered rotations (segments beyond the first)."""
        return max(0, self.segments - 1)

    def to_dict(self) -> dict[str, int]:
        return {
            "segments": self.segments,
            "bytes": self.bytes,
            "rotations": self.rotations,
        }


def sink_stats(directory: str | Path) -> SinkStats:
    """Segment count and on-disk size of a telemetry directory.

    A missing or empty directory has zero segments -- consistent with
    :func:`~repro.obs.report.aggregate_run` treating "no telemetry yet"
    as a normal state rather than an error.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return SinkStats(segments=0, bytes=0)
    paths = _segments(directory)
    total = 0
    for path in paths:
        try:
            total += path.stat().st_size
        except OSError:
            pass
    return SinkStats(segments=len(paths), bytes=total)


def load_telemetry(directory: str | Path) -> list[dict[str, Any]]:
    """Every record of a telemetry directory, oldest first (see
    :func:`iter_telemetry`)."""
    return list(iter_telemetry(directory))
