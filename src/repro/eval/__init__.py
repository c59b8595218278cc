"""Experiment harness: paper designs plus drivers for every table/figure."""

from ..util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "casestudy": (
            "CASESTUDY_BUDGET", "CASESTUDY_BUDGET_PAPER", "CASESTUDY_CONFIGURATIONS",
            "CASESTUDY_CONFIGURATIONS_MODIFIED", "TABLE2_RESOURCES", "TABLE3_PAPER",
            "TABLE4_PAPER", "TABLE5_PAPER", "casestudy_design",
            "casestudy_design_modified",
        ),
        "example_design": (
            "EXAMPLE_CONFIGURATIONS", "EXPECTED_MATRIX", "EXPECTED_MODE_ORDER",
            "TABLE1_EXPECTED", "example_design", "hybrid_example_design",
            "single_mode_mix_design",
        ),
        "analysis": (
            "ClassBreakdown", "by_circuit_class", "correlation_with_structure",
            "render_analysis", "render_class_breakdown", "worst_case_trade",
        ),
        "experiments": (
            "DEFAULT_SWEEP_DESIGNS", "DEFAULT_SWEEP_SEED", "CaseStudyResult",
            "SweepRecord", "SweepResult", "exp_connectivity_matrix", "exp_table1",
            "exp_table3", "exp_table5", "render_fig7", "render_fig8", "render_fig9",
            "render_headlines", "render_table1", "render_table3", "render_table4",
            "render_table5", "run_sweep",
        ),
        "report": ("render_batch_report", "render_trace_summary"),
        "persistence": (
            "PersistenceError", "export_histograms_csv", "export_series_csv",
            "load_sweep", "result_from_dict", "result_to_dict", "save_sweep",
            "scheme_from_dict", "scheme_to_dict", "sweep_from_json", "sweep_to_json",
        ),
        "stats": (
            "FIG9_BIN_EDGES", "ImprovementProfile", "improvement_profile",
            "summarise_profiles",
        ),
    },
)
