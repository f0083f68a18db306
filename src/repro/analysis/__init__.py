"""Validation, complexity fits and report generation for the experiments."""

from .complexity import (
    PowerLawFit,
    clustering_bound,
    crossover_point,
    global_broadcast_bound,
    local_broadcast_bound,
    lower_bound_shape,
    normalized_against,
    power_law_exponent,
    ratio_spread,
)
from .reporting import ExperimentTable, TableRow, comparison_summary, render_report
from .validation import (
    ClusteringReport,
    cluster_members,
    cluster_radius,
    clusters_meeting_ball,
    density_of_subset,
    max_cluster_size,
    proximity_graph_covers_close_pairs,
    validate_clustering,
)

__all__ = [
    "ClusteringReport",
    "ExperimentTable",
    "PowerLawFit",
    "TableRow",
    "cluster_members",
    "cluster_radius",
    "clusters_meeting_ball",
    "clustering_bound",
    "comparison_summary",
    "crossover_point",
    "density_of_subset",
    "global_broadcast_bound",
    "local_broadcast_bound",
    "lower_bound_shape",
    "max_cluster_size",
    "normalized_against",
    "power_law_exponent",
    "proximity_graph_covers_close_pairs",
    "ratio_spread",
    "render_report",
    "validate_clustering",
]
