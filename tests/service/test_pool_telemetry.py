"""Cross-process telemetry through run_batch: re-rooted worker traces,
associative counter merges, and the durable sink records.

The associativity test is the observability analogue of the engine
differential tests: the same job set drained with 1, 2 and 4 workers
must fold to identical pipeline counters -- parallelism must never
change *what happened*, only where it was recorded.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    RecordingTracer,
    TelemetrySink,
    load_telemetry,
    render_trace_summary,
    trace_from_dict,
)
from repro.service import JobStore, ResultCache, run_batch

from ..conftest import make_design


def simple_design(name: str, clb: int = 40):
    return make_design(
        {
            "A": {"A1": (clb, 0, 0), "A2": (clb + 160, 0, 0)},
            "B": {"B1": (220, 0, 0), "B2": (50, 0, 0)},
        },
        [("A1", "B1"), ("A2", "B2"), ("A1", "B2")],
        name=name,
    )


def submit_three(store: JobStore) -> None:
    for i in range(3):
        store.submit_design(simple_design(f"d{i}", clb=40 + i), device="LX30")


#: Deterministic pipeline counters (timing-free) that must be identical
#: whatever the worker count.
PIPELINE_COUNTERS = (
    "covering.passes",
    "covering.sets_produced",
    "merge.states_explored",
    "merge.feasible_states",
    "partition.candidate_sets",
    "service.cache_misses",
    "service.jobs_done",
)


class TestWorkerTracePropagation:
    def test_worker_spans_re_root_under_batch_span(self, tmp_path):
        store = JobStore.open(tmp_path / "q")
        submit_three(store)
        tracer = RecordingTracer()
        report = run_batch(
            store, ResultCache(tmp_path / "c"), workers=2, tracer=tracer
        )
        assert report.done == 3
        trace = tracer.trace()
        (batch_span,) = trace.find("batch_run")
        jobs = batch_span.find("job")
        assert len(jobs) == 3
        for job_span in jobs:
            assert set(job_span.attrs) == {"job", "key"}
            # The worker pipeline nests under the synthetic job span.
            assert [c.name for c in job_span.children] == ["partition"]
            (partition,) = job_span.children
            assert "merge_search" in {s.name for _, s in partition.walk()}
            # Shifted spans stay inside the parent time base.
            for _path, span in job_span.walk():
                assert span.start_s >= job_span.start_s
                for child in span.children:
                    assert child.start_s >= span.start_s
        # The one coherent tree renders: worker stages under batch_run.
        summary = render_trace_summary(trace)
        assert "batch_run" in summary
        assert "merge_search" in summary

    def test_counter_merge_associative_across_worker_counts(self, tmp_path):
        folded = {}
        for workers in (1, 2, 4):
            store = JobStore.open(tmp_path / f"q{workers}")
            submit_three(store)
            tracer = RecordingTracer()
            report = run_batch(
                store,
                ResultCache(tmp_path / f"c{workers}"),
                workers=workers,
                tracer=tracer,
            )
            assert report.done == 3 and report.failed == 0
            folded[workers] = {
                name: tracer.counters.get(name, 0)
                for name in PIPELINE_COUNTERS
            }
        assert folded[1] == folded[2] == folded[4]

    def test_inline_run_without_recording_ships_no_traces(self, tmp_path):
        store = JobStore.open(tmp_path / "q")
        submit_three(store)
        report = run_batch(store, ResultCache(tmp_path / "c"), workers=1)
        assert report.done == 3  # no tracer, no sink: nothing to collect

    def test_failed_job_trace_is_still_adopted(self, tmp_path):
        store = JobStore.open(tmp_path / "q")
        # 90k CLBs fits no library device: the worker raises mid-pipeline.
        store.submit_design(
            make_design({"A": {"A1": (90_000, 0, 0)}}, [("A1",)], name="huge"),
            max_attempts=1,
        )
        tracer = RecordingTracer()
        report = run_batch(
            store, ResultCache(tmp_path / "c"), workers=2, tracer=tracer
        )
        assert report.failed == 1
        (batch_span,) = tracer.trace().find("batch_run")
        assert len(batch_span.find("job")) == 1


durations = st.floats(min_value=0.001, max_value=0.5,
                      allow_nan=False, allow_infinity=False)
span_layouts = st.recursive(
    st.tuples(durations, st.just(())),
    lambda children: st.tuples(durations, st.lists(children, max_size=3)),
    max_leaves=8,
)


class TestAdoptTraceProperties:
    """Re-rooting preserves relative order and nesting exactly."""

    @settings(max_examples=30, deadline=None)
    @given(
        layout=span_layouts,
        start=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_re_rooted_spans_preserve_order_and_nesting(self, layout, start):
        def record(tracer, node, name="s"):
            duration, children = node
            with tracer.span(name):
                for i, child in enumerate(children):
                    record(tracer, child, f"{name}.{i}")
                tracer.now()  # advance nothing; FakeClock-free determinism

        worker = RecordingTracer()
        record(worker, layout)
        shipped = worker.trace().to_dict()

        def shape(span):
            return (span.name, [shape(c) for c in span.children])

        def offsets(span, base):
            return [
                (span.start_s - base, span.duration_s)
            ] + [o for c in span.children for o in offsets(c, base)]

        original = trace_from_dict(shipped)
        parent = RecordingTracer()
        with parent.span("batch_run"):
            job_span = parent.adopt_trace(shipped, name="job", start_s=start)

        # Nesting: the adopted subtree's shape is untouched.
        assert [shape(c) for c in job_span.children] == [
            shape(s) for s in original.spans
        ]
        # Ordering and relative timing: every span sits at the same
        # offset from the job span as it did from the worker's epoch.
        got = [o for c in job_span.children for o in offsets(c, start)]
        want = [o for s in original.spans for o in offsets(s, 0.0)]
        # Re-rooting computes (start + offset) - start; for micro-second
        # spans under a large start the cancellation error exceeds
        # approx's relative default, so compare with an absolute floor.
        # approx does not recurse into tuples, so flatten the
        # (offset, duration) pairs for the tolerance to apply at all.
        def flat(pairs):
            return [x for pair in pairs for x in pair]

        assert flat(got) == pytest.approx(flat(want), abs=1e-9)
        assert job_span.start_s == start

    def test_adoption_merges_counters_into_totals(self):
        worker = RecordingTracer()
        with worker.span("partition"):
            worker.count("merge.states_explored", 7)
            worker.observe("merge.search_s", 0.25)
        parent = RecordingTracer()
        parent.count("merge.states_explored", 3)
        with parent.span("batch_run"):
            parent.adopt_trace(worker.trace().to_dict(), job="j1")
        assert parent.counters["merge.states_explored"] == 10
        assert parent.histograms["merge.search_s"].count == 1

    def test_adoption_counts_worker_events(self):
        worker = RecordingTracer()
        worker.progress("tick")
        worker.progress("tock")
        parent = RecordingTracer()
        parent.adopt_trace(worker.trace().to_dict())
        assert parent.counters["obs.worker_events"] == 2


class TestSinkIntegration:
    def test_batch_run_writes_job_and_run_records(self, tmp_path):
        store = JobStore.open(tmp_path / "q")
        submit_three(store)
        cache = ResultCache(tmp_path / "c")
        tracer = RecordingTracer()
        sink = TelemetrySink(tmp_path / "tele")
        run_batch(store, cache, workers=2, tracer=tracer, sink=sink)

        records = load_telemetry(tmp_path / "tele")
        jobs = [r for r in records if r["kind"] == "job"]
        runs = [r for r in records if r["kind"] == "run"]
        events = [r for r in records if r["kind"] == "event"]
        assert len(jobs) == 3 and len(runs) == 1
        for record in jobs:
            assert record["status"] == "done"
            assert record["job"] and record["key"]
            assert record["compute_s"] > 0
        # Every batch.* progress event carries both job id and key.
        for record in events:
            if record["name"].startswith("batch.job"):
                assert "job" in record["payload"]
                assert "key" in record["payload"]
        assert runs[0]["report"]["done"] == 3
        assert runs[0]["counters"]["service.jobs_done"] == 3
        assert "service.job_wall_s" in runs[0]["histograms"]

    def test_warm_rerun_appends_cached_records(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        sink_dir = tmp_path / "tele"
        for attempt in ("cold", "warm"):
            store = JobStore.open(tmp_path / f"q-{attempt}")
            submit_three(store)
            run_batch(
                store, cache, workers=1, sink=TelemetrySink(sink_dir)
            )
        jobs = [
            r for r in load_telemetry(sink_dir) if r["kind"] == "job"
        ]
        assert [r["status"] for r in jobs] == ["done"] * 3 + ["cached"] * 3
        for record in jobs[3:]:
            assert record["key"]  # cached records still join on key

    def test_unkeyable_job_lands_in_sink_as_failed(self, tmp_path):
        store = JobStore.open(tmp_path / "q")
        store.submit(name="poison", design_xml="<not-a-design>",
                     max_attempts=1)
        sink = TelemetrySink(tmp_path / "tele")
        report = run_batch(
            store, ResultCache(tmp_path / "c"), workers=1, sink=sink
        )
        assert report.failed == 1
        (record,) = [
            r for r in load_telemetry(tmp_path / "tele") if r["kind"] == "job"
        ]
        assert record["status"] == "failed"
        assert record["key"] is None
