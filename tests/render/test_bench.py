"""Bench-trend renderer over ordered BENCH histories."""

from __future__ import annotations

from repro.render import render_bench_trend_html, renderer_meta

from .conftest import parse_markup
from .sample_inputs import sample_history


class TestTrendPage:
    def test_well_formed_and_stamped(self):
        text = render_bench_trend_html(sample_history())
        parse_markup(text)
        assert f"<!-- {renderer_meta('bench')} -->" in text

    def test_documents_overview_lists_every_label(self):
        history = sample_history()
        text = render_bench_trend_html(history)
        for label, _ in history:
            assert label in text

    def test_flags_match_bench_diff_semantics(self):
        # partition: 0.50 -> 0.80 (+60%) regresses; floorplan:
        # 0.20 -> 0.12 (-40%) improves; sweep stays within 25%.
        text = render_bench_trend_html(sample_history())
        assert text.count("REGRESSION") == 1
        assert text.count(">improved<") == 1
        assert "+60.0%" in text
        assert "-40.0%" in text

    def test_threshold_is_configurable(self):
        text = render_bench_trend_html(sample_history(), threshold=10.0)
        assert "REGRESSION" not in text
        assert "1000%" in text  # the threshold line reflects the argument

    def test_custom_records_table(self):
        text = render_bench_trend_html(sample_history())
        assert "Custom records" in text
        assert "frames" in text and "3330" in text

    def test_benchmark_missing_from_some_documents(self):
        history = sample_history()
        history[1][1]["benchmarks"] = []  # middle document lost its timings
        text = render_bench_trend_html(history)
        parse_markup(text)
        assert "partition" in text

    def test_ledger_records_of_different_suites_share_no_row(self):
        def ledger(suite, wall):
            return {"suite": suite, "sides": {"after": {"end_to_end": {
                "wall_s": {"unit": "s", "median": wall}}}}}

        text = render_bench_trend_html([
            ("BENCH_replay_cached.json", ledger("perfbench replay-cached", 0.3)),
            ("BENCH_sweep.json", ledger("perfbench sweep", 8.4)),
        ])
        parse_markup(text)
        assert "perfbench replay-cached: wall_s" in text
        assert "perfbench sweep: wall_s" in text
        assert "REGRESSION" not in text

    def test_double_render_is_byte_identical(self):
        history = sample_history()
        assert render_bench_trend_html(history) == render_bench_trend_html(
            history
        )


class TestEmptyHistory:
    def test_empty_history_renders_no_data_page(self):
        text = render_bench_trend_html([])
        parse_markup(text)
        assert "no BENCH documents given" in text

    def test_documents_without_timings(self):
        text = render_bench_trend_html([("a.json", {"suite": "x"})])
        parse_markup(text)
        assert "no comparable benchmark timings" in text
