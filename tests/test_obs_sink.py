"""TelemetrySink: rotation, reopen, tracer attachment, crash recovery.

The crash property mirrors ``tests/service/test_jobs_properties.py``:
truncating the newest segment at *every byte offset* inside its final
record must never raise -- the load either sees the full record or
cleanly drops the torn tail.  Rotated (non-newest) segments get no such
forgiveness: a tear there is real corruption.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.obs.sink as sink_mod
from repro.obs import (
    SINK_VERSION,
    RecordingTracer,
    SinkError,
    TelemetrySink,
    iter_telemetry,
    load_telemetry,
)


class FakeClock:
    def __init__(self, start: float = 100.0, step: float = 1.0):
        self.now, self.step = start, step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


@pytest.fixture
def sink(tmp_path):
    return TelemetrySink(tmp_path / "tele", clock=FakeClock())


class TestAppend:
    def test_records_are_self_describing(self, sink):
        record = sink.append("job", job="j1", key="k" * 64, status="done")
        assert record["v"] == SINK_VERSION
        assert record["kind"] == "job"
        assert record["ts"] == 100.0
        assert sink.records_written == 1
        loaded = load_telemetry(sink.directory)
        assert loaded == [record]

    def test_reserved_header_fields_rejected(self, sink):
        for reserved in ("v", "kind", "ts"):
            with pytest.raises(SinkError):
                sink.append("event", **{reserved: 1})

    def test_rotation_by_size(self, tmp_path):
        sink = TelemetrySink(tmp_path / "tele", max_bytes=200)
        for i in range(10):
            sink.append("event", name="tick", payload={"i": i})
        segments = sorted(p.name for p in sink.directory.glob("*.jsonl"))
        assert len(segments) > 1
        assert segments[0] == "telemetry-00000.jsonl"
        # Order survives rotation.
        loaded = load_telemetry(sink.directory)
        assert [r["payload"]["i"] for r in loaded] == list(range(10))

    def test_invalid_max_bytes(self, tmp_path):
        with pytest.raises(SinkError):
            TelemetrySink(tmp_path / "t", max_bytes=0)

    def test_reopen_resumes_numbering(self, tmp_path):
        first = TelemetrySink(tmp_path / "tele", max_bytes=120)
        for i in range(6):
            first.append("event", name="a", payload={"i": i})
        again = TelemetrySink(tmp_path / "tele", max_bytes=120)
        again.append("event", name="b", payload={"i": 99})
        loaded = load_telemetry(tmp_path / "tele")
        assert [r["payload"]["i"] for r in loaded] == [0, 1, 2, 3, 4, 5, 99]

    def test_reopen_heals_torn_tail(self, tmp_path):
        sink = TelemetrySink(tmp_path / "tele")
        sink.append("event", name="a", payload={})
        sink.append("event", name="b", payload={})
        path = sink.segment_path
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])  # tear the final record
        healed = TelemetrySink(tmp_path / "tele")
        healed.append("event", name="c", payload={})
        names = [r["name"] for r in load_telemetry(tmp_path / "tele")]
        assert names == ["a", "c"]


class TestAttach:
    def test_progress_events_stream_to_disk(self, sink):
        tracer = RecordingTracer()
        sink.attach(tracer)
        tracer.progress("batch.job_started", job="j1", key="k1")
        tracer.progress("batch.job_done", job="j1", key="k1")
        loaded = load_telemetry(sink.directory)
        assert [r["kind"] for r in loaded] == ["event", "event"]
        assert loaded[0]["name"] == "batch.job_started"
        assert loaded[0]["payload"] == {"job": "j1", "key": "k1"}

    def test_attach_is_idempotent(self, sink):
        tracer = RecordingTracer()
        sink.attach(tracer)
        sink.attach(tracer)
        tracer.progress("tick")
        assert len(load_telemetry(sink.directory)) == 1

    def test_fresh_tracer_at_a_recycled_address_is_attached(self, sink):
        # Each tracer is freed before the next is made, so CPython may
        # hand the next one the same address (and ``id``).  Every one of
        # them must still reach the sink.
        for i in range(5):
            tracer = RecordingTracer()
            sink.attach(tracer)
            tracer.progress("tick", i=i)
            del tracer
        loaded = load_telemetry(sink.directory)
        assert [r["payload"] for r in loaded] == [{"i": i} for i in range(5)]

    def test_null_tracer_attach_is_harmless(self, sink):
        from repro.obs import NULL_TRACER

        sink.attach(NULL_TRACER)
        NULL_TRACER.progress("tick")
        with pytest.raises(SinkError):  # nothing written, no segments
            load_telemetry(sink.directory)


class TestLoad:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(SinkError):
            load_telemetry(tmp_path / "absent")

    def test_empty_directory_raises(self, tmp_path):
        (tmp_path / "tele").mkdir()
        with pytest.raises(SinkError):
            load_telemetry(tmp_path / "tele")

    def test_wrong_version_rejected(self, sink):
        sink.append("event", name="a", payload={})
        path = sink.segment_path
        record = dict(json.loads(path.read_text()))
        record["v"] = 99
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SinkError, match="version"):
            load_telemetry(sink.directory)

    def test_kindless_record_rejected(self, sink):
        sink.segment_path.write_text('{"v": 1, "ts": 0}\n')
        with pytest.raises(SinkError, match="kind"):
            load_telemetry(sink.directory)

    def test_non_object_record_rejected(self, sink):
        sink.segment_path.write_text("[1, 2]\n")
        with pytest.raises(SinkError, match="object"):
            load_telemetry(sink.directory)

    def test_mid_file_corruption_raises(self, sink):
        sink.append("event", name="a", payload={})
        sink.append("event", name="b", payload={})
        path = sink.segment_path
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("{broken\n" + lines[1])
        with pytest.raises(SinkError):
            load_telemetry(sink.directory)

    def test_torn_rotated_segment_raises(self, tmp_path):
        sink = TelemetrySink(tmp_path / "tele", max_bytes=120)
        for i in range(6):
            sink.append("event", name="a", payload={"i": i})
        segments = sorted(sink.directory.glob("*.jsonl"))
        assert len(segments) > 1
        raw = segments[0].read_bytes()
        segments[0].write_bytes(raw[:-3])
        with pytest.raises(SinkError, match="rotated"):
            load_telemetry(tmp_path / "tele")

    def test_load_does_not_repair(self, sink):
        sink.append("event", name="a", payload={})
        sink.append("event", name="b", payload={})
        path = sink.segment_path
        raw = path.read_bytes()
        torn = raw[:-5]
        path.write_bytes(torn)
        loaded = load_telemetry(sink.directory)
        assert [r["name"] for r in loaded] == ["a"]
        assert path.read_bytes() == torn  # read-only: the tear remains

    def test_undecodable_final_line_of_newest_segment_is_dropped(self, sink):
        sink.append("event", name="a", payload={})
        with sink.segment_path.open("a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        assert [r["name"] for r in load_telemetry(sink.directory)] == ["a"]

    def test_invalid_final_record_raises(self, sink):
        # Valid JSON is never a crash tear: it must pass validation.
        sink.append("event", name="a", payload={})
        with sink.segment_path.open("a", encoding="utf-8") as fh:
            fh.write('{"v": 99, "kind": "event", "ts": 0}\n')
        with pytest.raises(SinkError, match="version"):
            load_telemetry(sink.directory)

    def test_iter_is_lazy_generator(self, sink):
        sink.append("event", name="a", payload={})
        it = iter_telemetry(sink.directory)
        assert next(it)["name"] == "a"

    def test_iter_decodes_one_line_at_a_time(self, tmp_path, monkeypatch):
        sink = TelemetrySink(tmp_path / "tele", max_bytes=500)
        for i in range(200):
            sink.append("event", name="tick", payload={"i": i})
        calls = {"n": 0}
        real = sink_mod._decode

        def counting(line):
            calls["n"] += 1
            return real(line)

        monkeypatch.setattr(sink_mod, "_decode", counting)
        it = iter_telemetry(sink.directory)
        taken = [next(it) for _ in range(3)]
        # Records decoded so far are bounded by records consumed, not
        # by the 200 on disk.
        assert calls["n"] <= len(taken) + 1
        rest = list(it)
        assert calls["n"] == 200
        assert [r["payload"]["i"] for r in taken + rest] == list(range(200))


record_fields = st.dictionaries(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
    ).filter(lambda k: k not in ("v", "kind", "ts")),
    st.one_of(
        st.integers(-1000, 1000),
        st.text(max_size=20),
        st.booleans(),
        st.none(),
    ),
    max_size=4,
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(records=st.lists(record_fields, min_size=1, max_size=8))
def test_truncation_at_every_offset_of_the_final_record(
    tmp_path_factory, records
):
    """Mirror of the JobStore crash property, for the telemetry sink."""
    directory = tmp_path_factory.mktemp("tele")
    sink = TelemetrySink(directory, clock=FakeClock())
    for fields in records:
        sink.append("event", **fields)
    path = sink.segment_path
    raw = path.read_bytes()
    lines = raw.decode("utf-8").splitlines(keepends=True)
    final = lines[-1].encode("utf-8")
    prefix = raw[: len(raw) - len(final)]

    complete = load_telemetry(directory)
    for cut in range(len(final) + 1):
        path.write_bytes(prefix + final[:cut])
        # Never raises: a torn newest tail is a crash, not corruption.
        loaded = load_telemetry(directory)
        if cut == len(final):
            assert loaded == complete
        else:
            assert loaded in (complete[:-1], complete)
        # Reopening for writing heals the tear and accepts appends.
        healed = TelemetrySink(directory, clock=FakeClock(start=500.0))
        appended = healed.append("event", marker=True)
        assert load_telemetry(directory)[-1] == appended
        path.write_bytes(prefix + final)  # restore for the next cut


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=40), min_size=1, max_size=20
    ),
    max_bytes=st.sampled_from([80, 150, 400, 16 * 1024 * 1024]),
)
def test_rotation_across_many_segments_loads_in_append_order(
    tmp_path_factory, sizes, max_bytes
):
    directory = tmp_path_factory.mktemp("tele")
    sink = TelemetrySink(directory, max_bytes=max_bytes, clock=FakeClock())
    appended = [
        sink.append("event", name="tick", payload={"i": i, "pad": "x" * size})
        for i, size in enumerate(sizes)
    ]
    assert load_telemetry(directory) == appended
