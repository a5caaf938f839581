"""Tests for clustering and graph-partition metrics."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ClusteringError
from repro.graphs import MixedGraph, cyclic_flow_sbm, mixed_sbm
from repro.metrics import (
    adjusted_rand_index,
    clustering_metrics,
    clustering_report,
    contingency_table,
    cut_imbalance,
    cut_weight,
    directed_cut_matrix,
    flow_ratio,
    matched_accuracy,
    misclassified_count,
    mixed_modularity,
    normalized_mutual_information,
    partition_summary,
)

label_lists = st.lists(st.integers(0, 3), min_size=4, max_size=40)


class TestARI:
    def test_identical_labels(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_permuted_labels_still_perfect(self):
        assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 2, 2000)
        predicted = rng.integers(0, 2, 2000)
        assert abs(adjusted_rand_index(truth, predicted)) < 0.05

    def test_single_cluster_each(self):
        assert adjusted_rand_index([0, 0, 0], [5, 5, 5]) == 1.0

    @given(labels=label_lists)
    @settings(max_examples=30, deadline=None)
    def test_self_agreement_is_one(self, labels):
        assert np.isclose(adjusted_rand_index(labels, labels), 1.0)

    @given(labels=label_lists, other=label_lists)
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, labels, other):
        size = min(len(labels), len(other))
        a, b = labels[:size], other[:size]
        assert np.isclose(adjusted_rand_index(a, b), adjusted_rand_index(b, a))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ClusteringError):
            adjusted_rand_index([0, 1], [0, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ClusteringError):
            adjusted_rand_index([], [])


class TestNMIAccuracy:
    def test_nmi_bounds(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 3, 100)
        predicted = rng.integers(0, 3, 100)
        value = normalized_mutual_information(truth, predicted)
        assert 0.0 <= value <= 1.0

    def test_nmi_perfect(self):
        assert np.isclose(normalized_mutual_information([0, 1, 2], [2, 0, 1]), 1.0)

    def test_accuracy_perfect_under_permutation(self):
        assert matched_accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_accuracy_counts_errors(self):
        truth = [0, 0, 0, 1, 1, 1]
        predicted = [0, 0, 1, 1, 1, 1]
        assert np.isclose(matched_accuracy(truth, predicted), 5 / 6)
        assert misclassified_count(truth, predicted) == 1

    def test_contingency_shape(self):
        table = contingency_table([0, 0, 1], [0, 1, 1])
        assert table.shape == (2, 2)
        assert table.sum() == 3

    def test_report_keys(self):
        report = clustering_report([0, 1], [0, 1])
        assert set(report) == {"ari", "nmi", "accuracy", "misclassified"}

    @given(labels=label_lists)
    @settings(max_examples=20, deadline=None)
    def test_accuracy_at_least_largest_cluster_share(self, labels):
        # predicting everything as one cluster achieves max share
        constant = [0] * len(labels)
        counts = np.bincount(labels)
        assert matched_accuracy(labels, constant) >= counts.max() / len(labels) - 1e-9


def loop_contingency_table(truth, predicted) -> np.ndarray:
    """Reference: the table counted node by node."""
    truth = np.asarray(truth, dtype=int).ravel()
    predicted = np.asarray(predicted, dtype=int).ravel()
    truth_ids = np.unique(truth)
    predicted_ids = np.unique(predicted)
    table = np.zeros((truth_ids.size, predicted_ids.size), dtype=int)
    truth_index = {label: i for i, label in enumerate(truth_ids)}
    predicted_index = {label: j for j, label in enumerate(predicted_ids)}
    for t, p in zip(truth, predicted):
        table[truth_index[t], predicted_index[p]] += 1
    return table


#: Negative and non-contiguous labels.
sparse_labels = st.integers(-4, 4).map(lambda label: 7 * label - 3)


@st.composite
def label_pairs(draw):
    size = draw(st.integers(1, 60))
    pair = st.lists(sparse_labels, min_size=size, max_size=size)
    return draw(pair), draw(pair)


class TestContingencyTable:
    @given(pair=label_pairs())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_node_loop(self, pair):
        truth, predicted = pair
        table = contingency_table(truth, predicted)
        expected = loop_contingency_table(truth, predicted)
        assert table.dtype == expected.dtype
        assert np.array_equal(table, expected)
        scores = (
            adjusted_rand_index(truth, predicted),
            normalized_mutual_information(truth, predicted),
            matched_accuracy(truth, predicted),
        )
        with mock.patch.object(
            clustering_metrics, "contingency_table", loop_contingency_table
        ):
            reference = (
                adjusted_rand_index(truth, predicted),
                normalized_mutual_information(truth, predicted),
                matched_accuracy(truth, predicted),
            )
        assert [np.float64(x).tobytes() for x in scores] == [
            np.float64(x).tobytes() for x in reference
        ]


class TestGraphMetrics:
    def make_two_cluster_flow(self):
        g = MixedGraph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        g.add_arc(0, 2)
        g.add_arc(1, 3)
        return g, np.array([0, 0, 1, 1])

    def test_cut_weight(self):
        g, labels = self.make_two_cluster_flow()
        assert cut_weight(g, labels) == 2.0

    def test_directed_cut_matrix(self):
        g, labels = self.make_two_cluster_flow()
        flow = directed_cut_matrix(g, labels)
        assert flow[0, 1] == 2.0 and flow[1, 0] == 0.0

    def test_cut_imbalance_pure_flow(self):
        g, labels = self.make_two_cluster_flow()
        assert np.isclose(cut_imbalance(g, labels), 0.5)

    def test_flow_ratio_pure_flow(self):
        g, labels = self.make_two_cluster_flow()
        assert np.isclose(flow_ratio(g, labels), 1.0)

    def test_flow_ratio_balanced(self):
        g = MixedGraph(4)
        g.add_arc(0, 2)
        g.add_arc(3, 1)
        labels = [0, 0, 1, 1]
        assert np.isclose(flow_ratio(g, labels), 0.5)

    def test_flow_sbm_truth_has_high_flow_ratio(self):
        g, labels = cyclic_flow_sbm(45, 3, direction_strength=1.0, seed=0)
        assert flow_ratio(g, labels) == 1.0
        assert cut_imbalance(g, labels) == 0.5

    def test_modularity_favours_truth(self):
        g, labels = mixed_sbm(60, 2, p_intra=0.5, p_inter=0.02, seed=0)
        rng = np.random.default_rng(0)
        random_labels = rng.integers(0, 2, 60)
        assert mixed_modularity(g, labels) > mixed_modularity(g, random_labels)

    def test_label_length_validated(self):
        g, _ = self.make_two_cluster_flow()
        with pytest.raises(ClusteringError):
            cut_weight(g, [0, 1])

    def test_empty_graph_modularity_rejected(self):
        g = MixedGraph(3)
        with pytest.raises(ClusteringError):
            mixed_modularity(g, [0, 1, 0])

    def test_partition_summary_keys(self):
        g, labels = self.make_two_cluster_flow()
        summary = partition_summary(g, labels)
        assert set(summary) == {
            "cut_weight",
            "cut_imbalance",
            "flow_ratio",
            "modularity",
        }

    def test_no_boundary_arcs_gives_neutral_scores(self):
        g = MixedGraph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        labels = [0, 0, 1, 1]
        assert cut_imbalance(g, labels) == 0.0
        assert flow_ratio(g, labels) == 0.5
