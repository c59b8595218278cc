"""CLI tests: every subcommand through ``main(argv)``."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.eval.casestudy import CASESTUDY_BUDGET
from repro.flow.xmlio import save_design


@pytest.fixture
def design_xml(tmp_path, paper_example):
    path = tmp_path / "design.xml"
    save_design(paper_example, path)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestDevices:
    def test_lists_ladder(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        for name in ("LX20T", "FX200T"):
            assert name in out


class TestExample:
    def test_prints_matrix_and_table1(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "Conf.1" in out
        assert "{A3, B2, C3}" in out

    def test_trace_runs_partitioning(self, capsys):
        assert main(["example", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "Pipeline trace" in out
        assert "partition.total_frames" in out


class TestCasestudy:
    def test_prints_all_tables(self, capsys):
        assert main(["casestudy"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "Table IV" in out
        assert "Table V" in out
        assert "244872" in out  # paper reference value shown alongside


class TestSweep:
    def test_small_sweep(self, capsys):
        assert main(["sweep", "--designs", "6", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out and "Fig. 9(d)" in out
        assert "headline" in out

    def test_sweep_with_analysis(self, capsys):
        assert main(
            ["sweep", "--designs", "8", "--seed", "9", "--analysis"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-circuit-class" in out


class TestPartition:
    def test_auto_device_selection(self, design_xml, capsys):
        assert main(["partition", design_xml]) == 0
        out = capsys.readouterr().out
        assert "selected device:" in out
        assert "total reconfiguration:" in out

    def test_explicit_device(self, design_xml, capsys):
        assert main(["partition", design_xml, "--device", "LX30"]) == 0
        out = capsys.readouterr().out
        assert "scheme" in out

    def test_floorplan_and_ucf(self, design_xml, capsys):
        assert main(
            ["partition", design_xml, "--device", "LX30", "--floorplan", "--ucf"]
        ) == 0
        out = capsys.readouterr().out
        assert "legend:" in out  # ASCII floorplan
        assert "AREA_GROUP" in out
        assert "bitstreams:" in out

    def test_device_from_xml_attribute(self, tmp_path, paper_example, capsys):
        path = tmp_path / "with_device.xml"
        save_design(paper_example, path, device_name="LX30")
        assert main(["partition", str(path)]) == 0

    def test_budget_from_xml(self, tmp_path, receiver, capsys):
        path = tmp_path / "budgeted.xml"
        save_design(
            receiver, path, device_name="FX70T", budget=CASESTUDY_BUDGET
        )
        assert main(["partition", str(path)]) == 0
        out = capsys.readouterr().out
        assert "total reconfiguration:" in out

    def test_trace_summary(self, design_xml, capsys):
        assert main(["partition", design_xml, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "Pipeline trace" in out
        assert "merge_search" in out
        assert "clustering.base_partitions" in out
        assert "merge.heap_pushes" in out

    def test_trace_json_file(self, design_xml, tmp_path, capsys):
        from repro.obs import trace_from_json

        path = tmp_path / "trace.json"
        assert main(
            ["partition", design_xml, "--trace-json", str(path)]
        ) == 0
        trace = trace_from_json(path.read_text(encoding="utf-8"))
        assert "merge_search" in trace.span_names()
        assert trace.counters["merge.states_explored"] > 0

    def test_infeasible_design_exits_nonzero(self, tmp_path, capsys):
        from .conftest import make_design

        path = tmp_path / "huge.xml"
        save_design(
            make_design({"A": {"a": (90_000, 0, 0)}}, [("a",)]), path
        )
        assert main(["partition", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestPareto:
    def test_pareto_front(self, design_xml, capsys):
        assert main(["pareto", design_xml, "--device", "LX30"]) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out

    def test_pareto_auto_device(self, design_xml, capsys):
        assert main(["pareto", design_xml]) == 0


class TestArtifactOutput:
    def test_out_directory_written(self, design_xml, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(
            [
                "partition", design_xml, "--device", "LX30",
                "--floorplan", "--out", str(out),
            ]
        ) == 0
        names = {p.name for p in out.iterdir()}
        assert "system.ucf" in names
        assert any(n.endswith("_wrapper.v") for n in names)
        assert any(n.endswith(".bit") for n in names)


class TestEngineFlags:
    def test_reference_engine_matches_default(self, design_xml, capsys):
        assert main(["partition", design_xml, "--device", "LX30"]) == 0
        default_out = capsys.readouterr().out
        assert main(
            ["partition", design_xml, "--device", "LX30",
             "--engine", "reference"]
        ) == 0
        assert capsys.readouterr().out == default_out  # bit-identical

    def test_invalid_engine_rejected(self, design_xml):
        with pytest.raises(SystemExit):
            main(["partition", design_xml, "--engine", "quantum"])


class TestProfile:
    def test_profile_prints_hot_functions(self, design_xml, capsys):
        assert main(
            ["--profile", "partition", design_xml, "--device", "LX30"]
        ) == 0
        captured = capsys.readouterr()
        assert "total reconfiguration:" in captured.out
        assert "cumulative" in captured.err
        assert "profile (top 25" in captured.err
