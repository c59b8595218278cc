"""The ``replay`` CLI group: run, sweep, compare through ``main(argv)``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.service import JobStore, ResultCache


@pytest.fixture
def swept(tmp_path):
    """A tiny completed sweep: (queue dir, cache dir)."""
    queue = tmp_path / "queue"
    rc = main([
        "replay", "sweep", "--queue", str(queue),
        "--designs", "2", "--traces-per-design", "2",
        "--length", "40", "--seed", "3", "--workers", "1",
        "--policy", "no-prefetch", "--policy", "prefetch-oracle",
    ])
    assert rc == 0
    return queue, queue / "cache"


class TestReplayRun:
    def test_builtin_example(self, capsys):
        rc = main(["replay", "run", "example", "--length", "120",
                   "--seed", "5", "--policy", "no-prefetch",
                   "--policy", "prefetch-oracle"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bursty trace of 120 events" in out
        assert "no-prefetch" in out and "prefetch-oracle" in out
        assert "best p95:" in out

    def test_output_is_deterministic(self, capsys):
        argv = ["replay", "run", "example", "--length", "80", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_unknown_policy_errors(self, capsys):
        rc = main(["replay", "run", "example", "--policy", "nope"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_design_file_errors(self, tmp_path, capsys):
        rc = main(["replay", "run", str(tmp_path / "absent.xml")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestReplaySweep:
    def test_sweep_completes_and_fills_stores(self, swept, capsys):
        queue, cache_dir = swept
        counts = JobStore(queue).counts()
        assert counts["done"] == 2 * 2 * 2
        from repro.replay import replay_store_for

        store = replay_store_for(ResultCache(cache_dir))
        assert len(store) == 8

    def test_rerun_serves_everything_from_cache(self, swept, tmp_path,
                                                capsys):
        _queue, cache_dir = swept
        capsys.readouterr()
        rc = main([
            "replay", "sweep", "--queue", str(tmp_path / "queue2"),
            "--cache", str(cache_dir),
            "--designs", "2", "--traces-per-design", "2",
            "--length", "40", "--seed", "3", "--workers", "1",
            "--policy", "no-prefetch", "--policy", "prefetch-oracle",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert (
            "submitted 8 replay jobs covering 8 cells "
            "(2 designs x 2 traces x 2 policies)"
        ) in out
        assert "cache hits" in out and "8" in out

    def test_batched_sweep_matches_single_and_reports_batches(
            self, swept, tmp_path, capsys):
        _queue, cache_dir = swept
        capsys.readouterr()
        queue2 = tmp_path / "queue-batched"
        rc = main([
            "replay", "sweep", "--queue", str(queue2),
            "--designs", "2", "--traces-per-design", "2",
            "--length", "40", "--seed", "3", "--workers", "1",
            "--policy", "no-prefetch", "--policy", "prefetch-oracle",
            "--batch-size", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert (
            "submitted 4 replay jobs covering 8 cells "
            "(2 designs x 2 traces x 2 policies, batch size 2)"
        ) in out
        from repro.replay import replay_store_for

        single = replay_store_for(ResultCache(cache_dir))
        batched = replay_store_for(ResultCache(queue2 / "cache"))
        assert set(batched.keys()) == set(single.keys())
        for key in single.keys():
            assert batched.get_record(key) == single.get_record(key)

    def test_bad_batch_size_errors(self, tmp_path, capsys):
        rc = main([
            "replay", "sweep", "--queue", str(tmp_path / "q"),
            "--designs", "1", "--batch-size", "0",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_all_jobs_failing_exits_4_with_grouped_reasons(
            self, tmp_path, monkeypatch, capsys):
        import repro.replay.service as replay_service

        def boom(payload, **kwargs):
            raise RuntimeError("synthetic replay failure")

        monkeypatch.setattr(replay_service, "run_replay_batch_payload", boom)
        rc = main([
            "replay", "sweep", "--queue", str(tmp_path / "q"),
            "--designs", "1", "--traces-per-design", "2",
            "--length", "24", "--policy", "no-prefetch",
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert "failed jobs: 2/2" in err
        assert "2 x RuntimeError: synthetic replay failure" in err

    def test_partial_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        import repro.replay.service as replay_service

        real = replay_service.run_replay_batch_payload

        def selective(payload, **kwargs):
            if payload["replay"]["policy"]["name"] == "prefetch-oracle":
                raise RuntimeError("synthetic oracle failure")
            return real(payload, **kwargs)

        monkeypatch.setattr(
            replay_service, "run_replay_batch_payload", selective)
        rc = main([
            "replay", "sweep", "--queue", str(tmp_path / "q"),
            "--designs", "1", "--traces-per-design", "2",
            "--length", "24", "--batch-size", "2",
            "--policy", "no-prefetch", "--policy", "prefetch-oracle",
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "failed jobs: 1/2" in err

    def test_telemetry_records_replay_summaries(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry"
        rc = main([
            "replay", "sweep", "--queue", str(tmp_path / "q"),
            "--designs", "1", "--traces-per-design", "1",
            "--length", "30", "--policy", "no-prefetch",
            "--telemetry-dir", str(telemetry),
        ])
        assert rc == 0
        records = [
            json.loads(line)
            for path in sorted(telemetry.glob("*.jsonl"))
            for line in path.read_text().splitlines()
        ]
        jobs = [r for r in records if r.get("kind") == "job"]
        assert any(isinstance(r.get("replay"), dict) for r in jobs)


class TestReplayCompare:
    def test_text_table(self, swept, capsys):
        _queue, cache_dir = swept
        capsys.readouterr()
        rc = main(["replay", "compare", "--cache", str(cache_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no-prefetch" in out and "prefetch-oracle" in out
        assert "best p95:" in out

    def test_check_needs_out(self, swept, capsys):
        _queue, cache_dir = swept
        rc = main(["replay", "compare", "--cache", str(cache_dir), "--check"])
        assert rc == 1
        assert "--check needs --out" in capsys.readouterr().err

    def test_dashboard_write_then_check(self, swept, tmp_path, capsys):
        _queue, cache_dir = swept
        out_file = tmp_path / "dash.html"
        rc = main(["replay", "compare", "--cache", str(cache_dir),
                   "--out", str(out_file)])
        assert rc == 0
        text = out_file.read_text(encoding="utf-8")
        assert "Replay latency dashboard" in text
        capsys.readouterr()
        # Byte-determinism: --check re-renders and must agree.
        rc = main(["replay", "compare", "--cache", str(cache_dir),
                   "--out", str(out_file), "--check"])
        assert rc == 0
        # Drift: --check fails with exit 3.
        out_file.write_text(text + "tamper", encoding="utf-8")
        rc = main(["replay", "compare", "--cache", str(cache_dir),
                   "--out", str(out_file), "--check"])
        assert rc == 3

    def test_artifact_cache_miss_then_hit(self, swept, tmp_path, capsys):
        _queue, cache_dir = swept
        out_file = tmp_path / "dash.html"
        art = tmp_path / "artifacts"
        capsys.readouterr()
        rc = main(["replay", "compare", "--cache", str(cache_dir),
                   "--out", str(out_file), "--artifact-cache", str(art)])
        assert rc == 0
        assert "artifact cache miss" in capsys.readouterr().err
        rc = main(["replay", "compare", "--cache", str(cache_dir),
                   "--out", str(out_file), "--artifact-cache", str(art)])
        assert rc == 0
        assert "artifact cache hit" in capsys.readouterr().err

    def test_empty_store_renders_no_records(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        ResultCache(cache_dir)
        rc = main(["replay", "compare", "--cache", str(cache_dir)])
        assert rc == 0
        assert "no replay records" in capsys.readouterr().out
