"""resolve_problem: the shared design-XML -> model -> device preamble."""

from __future__ import annotations

import pytest

from repro.arch import ResourceVector, virtex5_ladder
from repro.flow.xmlio import design_to_xml, save_design
from repro.service.problem import resolve_problem, resolve_problem_text


class TestResolveText:
    def test_named_device_fixes_the_capacity(self, tiny_design):
        problem = resolve_problem_text(design_to_xml(tiny_design), "LX30")
        assert problem.device is not None
        assert problem.device.name == "LX30"
        assert problem.capacity == problem.device.usable_capacity(
            tiny_design.static_resources
        )

    def test_device_from_xml_attribute(self, tiny_design):
        xml = design_to_xml(tiny_design, device_name="LX50T")
        problem = resolve_problem_text(xml)
        assert problem.device.name == "LX50T"

    def test_argument_overrides_xml_device(self, tiny_design):
        xml = design_to_xml(tiny_design, device_name="LX50T")
        assert resolve_problem_text(xml, "LX30").device.name == "LX30"

    def test_explicit_budget_wins_over_device_capacity(self, tiny_design):
        budget = ResourceVector(123, 4, 5)
        xml = design_to_xml(tiny_design, device_name="LX30", budget=budget)
        assert resolve_problem_text(xml).capacity == budget

    def test_no_device_means_auto_selection(self, tiny_design):
        problem = resolve_problem_text(design_to_xml(tiny_design))
        assert problem.device is None
        assert problem.capacity is None

    def test_with_selected_device_picks_smallest_fit(self, tiny_design):
        problem = resolve_problem_text(design_to_xml(tiny_design))
        resolved = problem.with_selected_device()
        assert resolved.device is not None
        assert resolved.capacity is not None
        # idempotent once resolved
        assert resolved.with_selected_device() is resolved

    def test_custom_library(self, tiny_design):
        ladder = virtex5_ladder()
        problem = resolve_problem_text(design_to_xml(tiny_design), library=ladder)
        assert problem.library is ladder

    def test_unknown_device_raises(self, tiny_design):
        with pytest.raises(KeyError):
            resolve_problem_text(design_to_xml(tiny_design), "NOT-A-DEVICE")


class TestResolveFile:
    def test_reads_from_disk(self, tmp_path, tiny_design):
        path = tmp_path / "d.xml"
        save_design(tiny_design, path)
        problem = resolve_problem(path, "LX30")
        assert problem.design.name == tiny_design.name
        assert problem.device.name == "LX30"
