"""The paper's core contribution: automated PR partitioning.

Pipeline: design model -> connectivity matrix -> agglomerative clustering
(base partitions) -> covering (candidate partition sets) -> merge search
(region allocation) -> minimum-total-reconfiguration-time scheme.
"""

from ..util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "allocation": ("AllocationOptions", "groups_to_scheme", "search_candidate_set"),
        "annealing": (
            "AnnealingOptions", "anneal_candidate_set", "partition_annealing",
        ),
        "baselines": (
            "baseline_schemes", "one_module_per_region_scheme", "single_region_scheme",
            "static_scheme",
        ),
        "clustering": (
            "AgglomerationEvent", "BasePartition", "agglomerate",
            "enumerate_base_partitions", "partitions_by_label",
        ),
        "compatibility": (
            "CompatibilityIndex", "are_compatible", "compatibility_table",
        ),
        "cost": (
            "DEFAULT_POLICY", "SchemeCost", "TransitionPolicy", "evaluate",
            "percentage_change", "total_reconfiguration_frames", "transition_frames",
            "transition_matrix", "weighted_total_frames", "worst_case_frames",
        ),
        "covering": (
            "CandidatePartitionSet", "CoveringError", "candidate_partition_sets",
            "cover",
        ),
        "exact": ("ExactOutcome", "exact_candidate_set", "partition_exact"),
        "fingerprint": ("canonical_problem", "problem_key"),
        "matrix": ("ConnectivityMatrix", "connectivity_matrix"),
        "model": (
            "Configuration", "DesignError", "Mode", "Module", "PRDesign",
            "design_from_tables",
        ),
        "pareto": ("ParetoPoint", "best_by_worst_case", "pareto_front", "render_front"),
        "partitioner": (
            "DevicePartitionResult", "InfeasibleError", "PartitionResult",
            "PartitionerOptions", "minimum_footprint", "partition",
            "partition_with_device_selection", "select_device",
            "smallest_device_for_scheme",
        ),
        "result": (
            "PartitioningScheme", "Region", "SchemeError", "merge_regions",
            "regions_from_partitions",
        ),
    },
)
