"""The telemetry CLI surface: ``batch run --telemetry-dir`` and the
``obs report|export-prom|bench-diff`` toolchain, through ``main(argv)``.

Exercises the ISSUE acceptance flow: drain a queue with telemetry on,
then aggregate the directory and round-trip the Prometheus export.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.flow.xmlio import save_design
from repro.obs import load_telemetry, parse_prometheus


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


class TestObsExportProm:
    def test_export_parses_as_valid_exposition(self, telemetry_dir, capsys):
        rc = main(["obs", "export-prom", telemetry_dir])
        assert rc == 0
        text = capsys.readouterr().out
        families = parse_prometheus(text)
        assert "repro_report_jobs_done_total" in families
        assert any(f.type == "histogram" for f in families.values())

    def test_export_to_file(self, telemetry_dir, tmp_path, capsys):
        out_file = tmp_path / "repro.prom"
        rc = main(["obs", "export-prom", telemetry_dir,
                   "--out", str(out_file)])
        assert rc == 0
        parse_prometheus(out_file.read_text(encoding="utf-8"))

    def test_export_missing_directory_errors(self, tmp_path, capsys):
        rc = main(["obs", "export-prom", str(tmp_path / "absent")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


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

    def test_cursor_file_resumes_without_re_emitting(
        self, telemetry_dir, tmp_path, capsys
    ):
        cursor = str(tmp_path / "cursor.json")
        rc = main(["obs", "tail", telemetry_dir, "--cursor-file", cursor])
        assert rc == 0
        first = capsys.readouterr().out
        assert first.strip()
        # Second invocation resumes at the saved cursor: nothing new.
        rc = main(["obs", "tail", telemetry_dir, "--cursor-file", cursor])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_failed_cursor_write_keeps_the_previous_cursor(
        self, telemetry_dir, tmp_path, capsys, monkeypatch
    ):
        import repro.util.atomic as atomic

        cursor = tmp_path / "cursor.json"
        assert main(["obs", "tail", telemetry_dir,
                     "--cursor-file", str(cursor)]) == 0
        saved = cursor.read_bytes()
        capsys.readouterr()

        real_fdopen = atomic.os.fdopen

        class DiskFull:
            """A file that takes half of what it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(
            atomic.os, "fdopen",
            lambda *a, **k: DiskFull(real_fdopen(*a, **k)))
        rc = main(["obs", "tail", telemetry_dir, "--cursor-file", str(cursor)])
        assert rc == 1
        assert "cannot write cursor file" in capsys.readouterr().err
        monkeypatch.undo()
        assert cursor.read_bytes() == saved
        assert list(tmp_path.glob("*.tmp")) == []
        # The intact cursor still resumes: nothing is re-emitted.
        assert main(["obs", "tail", telemetry_dir,
                     "--cursor-file", str(cursor)]) == 0
        assert capsys.readouterr().out == ""

    def test_bad_cursor_file_errors(self, telemetry_dir, tmp_path, capsys):
        cursor = tmp_path / "cursor.json"
        cursor.write_text("{broken", encoding="utf-8")
        rc = main(["obs", "tail", telemetry_dir,
                   "--cursor-file", str(cursor)])
        assert rc == 1
        assert "bad cursor file" in capsys.readouterr().err

    def test_missing_directory_errors_without_follow(self, tmp_path, capsys):
        rc = main(["obs", "tail", str(tmp_path / "ghost")])
        assert rc == 1
        assert "not a telemetry directory" in capsys.readouterr().err

    def test_follow_idle_timeout_returns_after_drain(
        self, telemetry_dir, capsys
    ):
        # --follow on a quiesced directory drains everything, then the
        # idle timeout ends the loop: exit 0, full byte-identity.
        rc = main(["obs", "tail", telemetry_dir, "--follow",
                   "--idle-timeout", "0.2", "--poll", "0.05"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line) for line in lines] == load_telemetry(
            telemetry_dir
        )
