"""Clustering-quality and graph-partition metrics."""

from repro.metrics.clustering_metrics import (
    adjusted_rand_index,
    contingency_table,
    label_scores,
    matched_accuracy,
)
from repro.metrics.graph_metrics import (
    cut_imbalance,
    cut_weight,
    directed_cut_matrix,
    flow_ratio,
    mixed_modularity,
    partition_summary,
)

__all__ = [
    "adjusted_rand_index",
    "contingency_table",
    "label_scores",
    "matched_accuracy",
    "cut_imbalance",
    "cut_weight",
    "directed_cut_matrix",
    "flow_ratio",
    "mixed_modularity",
    "partition_summary",
]
