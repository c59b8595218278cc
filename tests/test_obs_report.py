"""The obs toolchain: run aggregation and bench diff."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    BenchDiffError,
    Histogram,
    TelemetrySink,
    aggregate_run,
    bench_diff,
    load_bench,
    render_bench_diff,
    render_run_report,
)
from repro.obs.report import DEFAULT_BENCH_THRESHOLD, merge_bench


def _write_run(directory, jobs=(), counters=None, gauges=None, histograms=None):
    sink = TelemetrySink(directory)
    for fields in jobs:
        sink.append("job", **fields)
    sink.append(
        "run",
        report={"total": len(jobs)},
        counters=counters or {},
        gauges=gauges or {},
        histograms=histograms or {},
    )
    return sink


class TestAggregateRun:
    def test_job_statuses_and_latencies(self, tmp_path):
        _write_run(
            tmp_path / "t",
            jobs=[
                {"job": "a", "key": "k1", "status": "done", "compute_s": 1.0},
                {"job": "b", "key": "k2", "status": "done", "compute_s": 3.0},
                {"job": "c", "key": "k1", "status": "cached"},
                {"job": "d", "key": "k3", "status": "retried", "attempts": 1,
                 "timeout": True},
                {"job": "d", "key": "k3", "status": "failed", "attempts": 2,
                 "timeout": True},
            ],
        )
        report = aggregate_run(tmp_path / "t")
        assert report.runs == 1
        assert report.jobs_done == 2
        assert report.jobs_cached == 1
        assert report.jobs_failed == 1
        assert report.retries == 1
        assert report.timeouts == 2
        assert report.jobs_total == 4
        assert report.cache_hit_rate == pytest.approx(0.25)
        assert report.latency_percentile(50) == pytest.approx(2.0)
        assert report.latency_percentile(0) == 1.0
        assert report.latency_percentile(100) == 3.0

    def test_multi_run_directories_sum(self, tmp_path):
        h = Histogram(bounds=(1.0,))
        h.observe(0.5)
        sink = _write_run(
            tmp_path / "t",
            jobs=[{"job": "a", "key": "k", "status": "done", "compute_s": 1.0}],
            counters={"service.jobs_done": 1},
            gauges={"service.cache_hit_rate": 0.0},
            histograms={"stage_s": h.to_dict()},
        )
        sink.append(
            "job", job="b", key="k", status="cached"
        )
        sink.append(
            "run",
            report={"total": 1},
            counters={"service.jobs_done": 1},
            gauges={"service.cache_hit_rate": 1.0},
            histograms={"stage_s": h.to_dict()},
        )
        report = aggregate_run(tmp_path / "t")
        assert report.runs == 2
        assert report.counters == {"service.jobs_done": 2}
        assert report.gauges == {"service.cache_hit_rate": 1.0}  # last wins
        assert report.histograms["stage_s"].count == 2

    def test_unknown_kinds_skipped(self, tmp_path):
        sink = TelemetrySink(tmp_path / "t")
        sink.append("mystery", anything=1)
        sink.append("job", job="a", key="k", status="done", compute_s=0.5)
        report = aggregate_run(tmp_path / "t")
        assert report.jobs_done == 1

    def test_render_and_to_dict(self, tmp_path):
        _write_run(
            tmp_path / "t",
            jobs=[{"job": "a", "key": "k", "status": "done", "compute_s": 2.0}],
            counters={"service.jobs_done": 1},
        )
        report = aggregate_run(tmp_path / "t")
        text = render_run_report(report)
        assert "p50 2.0000 s" in text
        assert "cache hit rate: 0.0%" in text
        assert "service.jobs_done" in text
        doc = report.to_dict()
        assert doc["jobs_done"] == 1
        assert doc["latency_p50_s"] == pytest.approx(2.0)
        json.dumps(doc)  # machine-readable

    def test_empty_latency_renders_dashes(self, tmp_path):
        _write_run(tmp_path / "t", jobs=[
            {"job": "a", "key": "k", "status": "cached"},
        ])
        report = aggregate_run(tmp_path / "t")
        assert report.latency_percentile(50) is None
        assert "p50 -" in render_run_report(report)

    def test_segmentless_directory_aggregates_to_empty_report(self, tmp_path):
        empty = tmp_path / "t"
        empty.mkdir()
        report = aggregate_run(empty)
        assert report.is_empty
        assert report.jobs_total == 0 and report.runs == 0

    def test_missing_directory_still_raises(self, tmp_path):
        from repro.obs import SinkError

        with pytest.raises(SinkError):
            aggregate_run(tmp_path / "absent")

    def test_empty_report_renders_no_data_lines(self, tmp_path):
        empty = tmp_path / "t"
        empty.mkdir()
        text = render_run_report(aggregate_run(empty))
        assert "runs: no data" in text
        assert "jobs: no data" in text
        assert "job latency: no data" in text
        assert "replay: no data" in text
        assert "--telemetry-dir" in text

    def test_populated_report_is_not_empty(self, tmp_path):
        _write_run(tmp_path / "t")
        assert not aggregate_run(tmp_path / "t").is_empty


def _replay_summary(policy, latencies):
    h = Histogram(bounds=(0.001, 0.01, 0.1))
    for v in latencies:
        h.observe(v)
    return {
        "policy": policy,
        "events": 4 * len(latencies),
        "switches": len(latencies),
        "stall_events": 1,
        "total_seconds": sum(latencies),
        "icap_utilisation": 0.1,
        "latency": h.to_dict(),
    }


class TestReplaySection:
    def test_replay_summaries_aggregate_per_policy(self, tmp_path):
        _write_run(
            tmp_path / "t",
            jobs=[
                {"job": "a", "key": "k1", "status": "done", "compute_s": 0.1,
                 "replay": _replay_summary("no-prefetch", [0.02, 0.05])},
                {"job": "b", "key": "k2", "status": "done", "compute_s": 0.1,
                 "replay": _replay_summary("no-prefetch", [0.03])},
                {"job": "c", "key": "k3", "status": "done", "compute_s": 0.1,
                 "replay": _replay_summary("prefetch-oracle", [0.002])},
            ],
        )
        report = aggregate_run(tmp_path / "t")
        assert set(report.replay_policies) == {"no-prefetch",
                                              "prefetch-oracle"}
        stats = report.replay_policies["no-prefetch"]
        assert stats.jobs == 2
        assert stats.switches == 3
        assert stats.events == 12
        assert stats.stall_events == 2
        assert stats.percentile(50) is not None
        doc = report.to_dict()
        assert doc["replay"]["no-prefetch"]["jobs"] == 2
        json.dumps(doc)

    def test_replay_section_renders_per_policy_lines(self, tmp_path):
        _write_run(
            tmp_path / "t",
            jobs=[
                {"job": "a", "key": "k1", "status": "done", "compute_s": 0.1,
                 "replay": _replay_summary("no-prefetch", [0.02])},
            ],
        )
        text = render_run_report(aggregate_run(tmp_path / "t"))
        assert "replay (computed jobs, switch latency):" in text
        assert "no-prefetch" in text
        assert "p95=" in text

    def test_jobs_without_replay_degrade_to_no_data_line(self, tmp_path):
        _write_run(
            tmp_path / "t",
            jobs=[{"job": "a", "key": "k", "status": "done",
                   "compute_s": 0.1}],
        )
        text = render_run_report(aggregate_run(tmp_path / "t"))
        assert (
            "replay: no data (no computed replay jobs in this directory)"
            in text
        )

    def test_cached_replay_jobs_carry_no_summary(self, tmp_path):
        # Cached completions skip the replay; their records must not
        # perturb the per-policy aggregates.
        _write_run(
            tmp_path / "t",
            jobs=[
                {"job": "a", "key": "k", "status": "cached"},
                {"job": "b", "key": "k2", "status": "done", "compute_s": 0.1,
                 "replay": _replay_summary("no-prefetch", [0.02])},
            ],
        )
        report = aggregate_run(tmp_path / "t")
        assert report.replay_policies["no-prefetch"].jobs == 1


def _bench_doc(**timings):
    return {
        "suite": "allocation",
        "benchmarks": [
            {"name": name, "mean": mean} for name, mean in timings.items()
        ],
    }


class TestBenchDiff:
    def test_flags_regressions_past_threshold(self):
        diff = bench_diff(
            _bench_doc(a=1.0, b=1.0, c=1.0),
            _bench_doc(a=1.1, b=1.6, c=0.5),
            threshold=0.25,
        )
        assert [d.name for d in diff.regressions] == ["b"]
        assert [d.name for d in diff.improvements] == ["c"]
        assert diff.deltas[1].delta_pct == pytest.approx(60.0)

    def test_membership_changes_listed_not_flagged(self):
        diff = bench_diff(_bench_doc(a=1.0, gone=1.0), _bench_doc(a=1.0, new=1.0))
        assert diff.only_old == ["gone"]
        assert diff.only_new == ["new"]
        assert diff.regressions == []

    def test_render(self):
        diff = bench_diff(_bench_doc(a=1.0), _bench_doc(a=2.0))
        text = render_bench_diff(diff)
        assert "REGRESSION" in text
        assert "1 regression(s)" in text

    def test_default_threshold(self):
        assert DEFAULT_BENCH_THRESHOLD == 0.25

    def test_negative_threshold_rejected(self):
        with pytest.raises(BenchDiffError):
            bench_diff(_bench_doc(), _bench_doc(), threshold=-0.1)

    def test_load_bench_validates(self, tmp_path):
        good = tmp_path / "BENCH_x.json"
        good.write_text(json.dumps(_bench_doc(a=1.0)))
        assert load_bench(good)["suite"] == "allocation"
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(BenchDiffError, match="suite"):
            load_bench(bad)
        with pytest.raises(BenchDiffError, match="cannot read"):
            load_bench(tmp_path / "absent.json")

    def test_different_workload_sizes_refused(self):
        old = {**_bench_doc(a=4.3), "records": {"config": "large",
                                                "designs": 4}}
        small = {**_bench_doc(a=0.02), "records": {"config": "small",
                                                   "designs": 2}}
        with pytest.raises(BenchDiffError, match="records.config"):
            bench_diff(old, small)
        fewer = {**_bench_doc(a=2.0), "records": {"config": "large",
                                                  "designs": 2}}
        with pytest.raises(BenchDiffError, match="records.designs"):
            bench_diff(old, fewer)
        # The replay record states its fleet size as sweep_traces; a
        # 6-trace smoke must not be read against the 1,056-trace record.
        replay = {**_bench_doc(a=1.9), "records": {"sweep_traces": 1056}}
        smoke = {**_bench_doc(a=0.1), "records": {"sweep_traces": 6}}
        with pytest.raises(BenchDiffError, match="records.sweep_traces"):
            bench_diff(replay, smoke)
        # Equal sizes, or a side that states none, still compare.
        same = {**_bench_doc(a=4.0), "records": {"config": "large",
                                                 "designs": 4}}
        assert bench_diff(old, same).deltas[0].ratio == pytest.approx(
            4.0 / 4.3)
        assert bench_diff(old, _bench_doc(a=4.0)).deltas
        rerun = {**_bench_doc(a=2.0), "records": {"sweep_traces": 1056}}
        assert bench_diff(replay, rerun).deltas

    def test_mean_falls_back_to_min(self):
        old = {"suite": "s", "benchmarks": [{"name": "a", "min": 1.0}]}
        new = {"suite": "s", "benchmarks": [{"name": "a", "min": 2.0}]}
        diff = bench_diff(old, new, threshold=0.25)
        assert diff.deltas[0].ratio == pytest.approx(2.0)

    def test_committed_artifact_diffs_against_itself(self):
        from pathlib import Path

        path = Path(__file__).parent.parent / "benchmarks" / "BENCH_allocation.json"
        doc = load_bench(path)
        diff = bench_diff(doc, doc)
        assert diff.regressions == []
        assert diff.deltas  # the committed artifact has benchmarks


class TestSearchCounters:
    def test_search_frontier_counters_flow_into_report(self, tmp_path):
        """Counters the merge search emits surface in obs report."""
        from repro.arch.resources import ResourceVector
        from repro.core.partitioner import partition
        from repro.eval.example_design import example_design
        from repro.obs import RecordingTracer

        tracer = RecordingTracer()
        partition(example_design(), ResourceVector(5000, 64, 64), None, tracer)
        assert "merge.heap_pushes" in tracer.counters

        _write_run(tmp_path / "t", counters=dict(tracer.counters))
        report = aggregate_run(tmp_path / "t")
        text = render_run_report(report)
        assert "merge.heap_pushes" in text


class TestMergeBench:
    """A partial bench run (``pytest -k``) folds into the file on disk."""

    def _committed(self):
        return {
            "suite": "test_bench_allocation.py",
            "python": "3.11.7",
            "machine": "x86_64",
            "benchmarks": [
                {"name": "a", "mean": 1.0},
                {"name": "b", "mean": 2.0},
            ],
            "records": {"speedup": 9.2, "designs": 4},
            "note": "kept",
        }

    def test_records_only_run_keeps_benchmarks(self):
        committed = self._committed()
        fresh = {
            "suite": "test_bench_allocation.py",
            "python": "3.12.0",
            "machine": "x86_64",
            "records": {"speedup": 8.6},
        }
        merged = merge_bench(committed, fresh)
        assert merged["benchmarks"] == committed["benchmarks"]
        assert merged["records"] == {"speedup": 8.6, "designs": 4}
        assert merged["python"] == "3.12.0"
        assert merged["note"] == "kept"

    def test_benchmarks_replaced_by_name_in_place(self):
        fresh = {
            "suite": "test_bench_allocation.py",
            "benchmarks": [{"name": "c", "mean": 3.0}, {"name": "a", "mean": 1.5}],
        }
        merged = merge_bench(self._committed(), fresh)
        assert merged["benchmarks"] == [
            {"name": "a", "mean": 1.5},
            {"name": "b", "mean": 2.0},
            {"name": "c", "mean": 3.0},
        ]
        assert merged["records"] == {"speedup": 9.2, "designs": 4}

    def test_no_existing_file(self):
        fresh = {"suite": "s", "benchmarks": [{"name": "a", "mean": 1.0}]}
        assert merge_bench(None, fresh) == fresh

    def test_inputs_untouched(self):
        committed = self._committed()
        before = json.dumps(committed, sort_keys=True)
        fresh = {
            "suite": "s",
            "benchmarks": [{"name": "a", "mean": 5.0}],
            "records": {"speedup": 1.0},
        }
        merge_bench(committed, fresh)
        assert json.dumps(committed, sort_keys=True) == before
        assert fresh["records"] == {"speedup": 1.0}

    def test_merged_doc_still_diffs(self):
        merged = merge_bench(
            self._committed(),
            {"suite": "s", "benchmarks": [{"name": "b", "mean": 4.0}]},
        )
        diff = bench_diff(self._committed(), merged)
        assert [d.name for d in diff.regressions] == ["b"]
        assert diff.only_old == [] and diff.only_new == []
