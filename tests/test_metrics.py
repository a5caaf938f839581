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
    contingency_table,
    cut_imbalance,
    cut_weight,
    directed_cut_matrix,
    flow_ratio,
    label_scores,
    matched_accuracy,
    mixed_modularity,
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
    def test_accuracy_perfect_under_permutation(self):
        assert matched_accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_accuracy_counts_errors(self):
        truth = [0, 0, 0, 1, 1, 1]
        predicted = [0, 0, 1, 1, 1, 1]
        assert np.isclose(matched_accuracy(truth, predicted), 5 / 6)

    def test_contingency_shape(self):
        table = contingency_table([0, 0, 1], [0, 1, 1])
        assert table.shape == (2, 2)
        assert table.sum() == 3

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
            matched_accuracy(truth, predicted),
        )
        with mock.patch.object(
            clustering_metrics, "contingency_table", loop_contingency_table
        ):
            reference = (
                adjusted_rand_index(truth, predicted),
                matched_accuracy(truth, predicted),
            )
        assert [np.float64(x).tobytes() for x in scores] == [
            np.float64(x).tobytes() for x in reference
        ]


def unique_scores(truth, predicted) -> tuple[float, float]:
    """Reference: ARI and matched accuracy as two ``np.unique``-coded
    tables and ``np.isclose`` compute them."""
    from scipy.optimize import linear_sum_assignment

    def table_of():
        t = np.asarray(truth, dtype=int).ravel()
        p = np.asarray(predicted, dtype=int).ravel()
        t_ids, t_codes = np.unique(t, return_inverse=True)
        p_ids, p_codes = np.unique(p, return_inverse=True)
        shape = (t_ids.size, p_ids.size)
        cells = np.bincount(t_codes * shape[1] + p_codes, minlength=shape[0] * shape[1])
        return cells.reshape(shape)

    table = table_of()
    n = table.sum()

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table.astype(float)).sum()
    sum_rows = comb2(table.sum(axis=1).astype(float)).sum()
    sum_cols = comb2(table.sum(axis=0).astype(float)).sum()
    expected = sum_rows * sum_cols / comb2(float(n)) if n > 1 else 0.0
    maximum = (sum_rows + sum_cols) / 2.0
    if np.isclose(maximum, expected):
        ari = 1.0
    else:
        ari = float((sum_cells - expected) / (maximum - expected))
    table = table_of()
    rows, cols = linear_sum_assignment(-table)
    return ari, float(table[rows, cols].sum() / table.sum())


#: Label ids from every regime of the one-table count: small and
#: contiguous, negative and non-contiguous, and spans too wide to offset.
label_ids = st.one_of(
    st.integers(0, 3),
    st.integers(-5, 5).map(lambda label: 7 * label - 3),
    st.sampled_from([-(2**40), -1, 0, 5, 2**31, 2**40 + 3]),
)


@st.composite
def scored_pairs(draw):
    size = draw(st.integers(1, 80))
    ids = draw(st.lists(label_ids, min_size=1, max_size=6, unique=True))
    pair = st.lists(st.sampled_from(ids), min_size=size, max_size=size)
    return draw(pair), draw(pair)


def score_bytes(scores) -> list:
    return [np.float64(score).tobytes() for score in scores]


class TestLabelScores:
    @given(pair=scored_pairs())
    @settings(max_examples=300, deadline=None)
    def test_one_table_matches_the_unique_reference(self, pair):
        truth, predicted = pair
        scores = label_scores(truth, predicted)
        assert score_bytes(scores) == score_bytes(unique_scores(truth, predicted))
        assert score_bytes(scores) == score_bytes(
            (adjusted_rand_index(truth, predicted), matched_accuracy(truth, predicted))
        )

    @pytest.mark.parametrize(
        "truth, predicted",
        [
            ([4] * 9, [4] * 9),  # one cluster each: the isclose branch
            ([-3] * 5, [2**40] * 5),
            ([0], [7]),  # a single node
            ([0, 0, 1, 1], [5, 5, 5, 5]),
        ],
    )
    def test_trivial_partitions(self, truth, predicted):
        assert score_bytes(label_scores(truth, predicted)) == score_bytes(
            unique_scores(truth, predicted)
        )

    def test_random_labels_at_experiment_size(self):
        rng = np.random.default_rng(0)
        for offset in (0, -17, 10**12):
            truth = rng.integers(0, 4, size=600) + offset
            predicted = rng.integers(0, 6, size=600) * 3 - offset
            assert score_bytes(label_scores(truth, predicted)) == score_bytes(
                unique_scores(truth, predicted)
            )

    def test_wide_id_spans_are_not_counted_densely(self):
        """Ids 2**40 apart would need a 2**80-cell offset table; they are
        coded by ``np.unique`` instead, to the same 2 × 2 table."""
        table = contingency_table([0, 2**40, 0], [2**40, 0, 0])
        assert np.array_equal(table, [[1, 1], [1, 0]])


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
