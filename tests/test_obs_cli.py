"""The telemetry CLI surface: ``batch run --telemetry-dir`` and the
``obs report|tail|bench-diff`` toolchain, through ``main(argv)``.

Drains a queue with telemetry on, then aggregates the directory and
dumps it back out record for record.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.flow.xmlio import save_design
from repro.obs import load_telemetry


@pytest.fixture
def design_file(tmp_path, tiny_design):
    path = tmp_path / "design.xml"
    save_design(tiny_design, path)
    return str(path)


@pytest.fixture
def telemetry_dir(tmp_path, design_file, capsys):
    """A telemetry directory produced by a real 2-worker batch run."""
    queue = str(tmp_path / "queue")
    tele = str(tmp_path / "tele")
    main(["batch", "submit", "--queue", queue, design_file,
          "--device", "LX30"])
    rc = main(["batch", "run", "--queue", queue, "--workers", "2",
               "--telemetry-dir", tele])
    assert rc == 0
    capsys.readouterr()
    return tele


class TestBatchRunTelemetryFlag:
    def test_run_writes_durable_records(self, telemetry_dir):
        records = load_telemetry(telemetry_dir)
        kinds = {r["kind"] for r in records}
        assert kinds >= {"event", "job", "run"}
        (job,) = [r for r in records if r["kind"] == "job"]
        assert job["status"] == "done" and job["key"]

    def test_run_reports_record_count(self, tmp_path, design_file, capsys):
        queue = str(tmp_path / "q2")
        tele = str(tmp_path / "t2")
        main(["batch", "submit", "--queue", queue, design_file,
              "--device", "LX30"])
        rc = main(["batch", "run", "--queue", queue,
                   "--telemetry-dir", tele])
        assert rc == 0
        assert "telemetry:" in capsys.readouterr().err


class TestObsReport:
    def test_report_prints_percentiles_and_rates(self, telemetry_dir, capsys):
        rc = main(["obs", "report", telemetry_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p90" in out and "p99" in out
        assert "cache hit rate" in out
        assert "timeouts: 0" in out and "retries: 0" in out
        assert "merge.search_s" in out  # per-stage breakdown

    def test_report_json_flag(self, telemetry_dir, capsys):
        rc = main(["obs", "report", telemetry_dir, "--json"])
        assert rc == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["jobs_done"] == 1

    def test_report_missing_directory_errors(self, tmp_path, capsys):
        rc = main(["obs", "report", str(tmp_path / "absent")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_report_empty_directory_degrades_gracefully(
        self, tmp_path, capsys
    ):
        # A sink directory that exists but was never written to is a
        # normal state (sink opened, run died early): exit 0 with
        # explicit no-data lines, not a SinkError.
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["obs", "report", str(empty)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "runs: no data" in out
        assert "jobs: no data" in out
        assert "--telemetry-dir" in out

    def test_report_empty_directory_json_flag(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["obs", "report", str(empty), "--json"])
        assert rc == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["jobs_total"] == 0 and doc["runs"] == 0


class TestObsBenchDiff:
    def _write(self, path, **timings):
        path.write_text(json.dumps({
            "suite": "s",
            "benchmarks": [
                {"name": n, "mean": m} for n, m in timings.items()
            ],
        }))
        return str(path)

    def test_clean_diff_exits_zero(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", a=1.0)
        new = self._write(tmp_path / "new.json", a=1.1)
        rc = main(["obs", "bench-diff", old, new])
        assert rc == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_regression_exits_three(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", a=1.0)
        new = self._write(tmp_path / "new.json", a=2.0)
        rc = main(["obs", "bench-diff", old, new])
        assert rc == 3
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_flag_widens_tolerance(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", a=1.0)
        new = self._write(tmp_path / "new.json", a=2.0)
        rc = main(["obs", "bench-diff", old, new, "--threshold", "1.5"])
        assert rc == 0

    def test_unreadable_bench_errors(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", a=1.0)
        rc = main(["obs", "bench-diff", old, str(tmp_path / "absent.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestObsReportNewSurface:
    def test_json_output_is_pure_json(self, telemetry_dir, capsys):
        # The --json document is machine-readable as-is: no banner, no
        # trailing prose -- `repro obs report D --json | jq .` works.
        rc = main(["obs", "report", telemetry_dir, "--json"])
        assert rc == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["jobs_done"] == 1
        assert doc["sink"]["segments"] >= 1
        assert doc["events_dropped"] == 0
        assert doc["failure_rate"] == 0.0 and doc["timeout_rate"] == 0.0
        assert isinstance(doc["workers"], list)

    def test_rendered_report_mentions_sink_and_drops(
        self, telemetry_dir, capsys
    ):
        rc = main(["obs", "report", telemetry_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sink:" in out and "segment(s)" in out
        assert "events dropped: 0" in out
        assert "worker resources (per pid):" in out


class TestObsTail:
    def test_tail_drains_all_records(self, telemetry_dir, capsys):
        rc = main(["obs", "tail", telemetry_dir])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records == load_telemetry(telemetry_dir)

    def test_tail_output_is_byte_identical_to_segments(
        self, telemetry_dir, capsys
    ):
        from pathlib import Path

        rc = main(["obs", "tail", telemetry_dir])
        assert rc == 0
        out = capsys.readouterr().out
        disk = "".join(
            p.read_text(encoding="utf-8")
            for p in sorted(Path(telemetry_dir).glob("telemetry-*.jsonl"))
        )
        assert out == disk

    def test_kind_filter(self, telemetry_dir, capsys):
        rc = main(["obs", "tail", telemetry_dir, "--kind", "job"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all(json.loads(line)["kind"] == "job" for line in lines)

    def test_missing_directory_errors_without_follow(self, tmp_path, capsys):
        rc = main(["obs", "tail", str(tmp_path / "ghost")])
        assert rc == 1
        assert "not a telemetry directory" in capsys.readouterr().err

    def test_empty_directory_prints_nothing(self, tmp_path, capsys):
        (tmp_path / "tele").mkdir()
        rc = main(["obs", "tail", str(tmp_path / "tele")])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_corrupt_record_errors_after_emitting_the_good_prefix(
        self, tmp_path, capsys
    ):
        from repro.obs import TelemetrySink

        sink = TelemetrySink(tmp_path / "tele")
        sink.append("event", name="a", payload={})
        sink.append("event", name="b", payload={})
        path = sink.segment_path
        good = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(good[0] + "{broken\n" + good[1], encoding="utf-8")
        rc = main(["obs", "tail", str(tmp_path / "tele")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == good[0]
        assert "corrupt record" in captured.err
