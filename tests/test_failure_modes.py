"""Failure-injection tests: degenerate inputs across the whole pipeline.

Production users feed edge cases; every public entry point must fail
loudly (library exceptions) or degrade gracefully (documented fallbacks),
never crash with bare NumPy errors.
"""

import numpy as np
import pytest

from repro import (
    QSCConfig,
    QuantumSpectralClustering,
    adjusted_rand_index,
    mixed_sbm,
)
from repro.baselines import (
    DiSimClustering,
    RandomWalkSpectralClustering,
    SymmetrizedSpectralClustering,
)
from repro.exceptions import ClusteringError, GraphError, ReproError
from repro.graphs import MixedGraph, hermitian_laplacian
from repro.metrics import label_scores, matched_accuracy
from repro.spectral import ClassicalSpectralClustering, kmeans


def edgeless_graph(n=8):
    return MixedGraph(n)


def star_graph(n=8):
    graph = MixedGraph(n)
    for leaf in range(1, n):
        graph.add_arc(0, leaf)
    return graph


class TestDegenerateGraphs:
    def test_edgeless_graph_laplacian_is_identity_like(self):
        laplacian = hermitian_laplacian(edgeless_graph())
        # isolated nodes sit at eigenvalue 1 under the regularized
        # symmetric normalization
        assert np.allclose(np.diag(laplacian).real, 1.0)

    def test_edgeless_graph_clusters_without_crashing(self):
        config = QSCConfig(precision_bits=5, shots=128, seed=0)
        result = QuantumSpectralClustering(2, config).fit(edgeless_graph())
        assert result.labels.shape == (8,)

    def test_star_graph_clusters(self):
        config = QSCConfig(precision_bits=6, shots=256, seed=0)
        result = QuantumSpectralClustering(2, config).fit(star_graph())
        assert set(result.labels) <= {0, 1}

    def test_two_node_graph(self):
        graph = MixedGraph(2)
        graph.add_edge(0, 1)
        result = QuantumSpectralClustering(
            2, QSCConfig(precision_bits=4, shots=128, seed=0)
        ).fit(graph)
        assert result.labels.shape == (2,)

    def test_single_node_rejected_everywhere(self):
        graph = MixedGraph(1)
        with pytest.raises(ReproError):
            QuantumSpectralClustering(2).fit(graph)
        with pytest.raises(ReproError):
            ClassicalSpectralClustering(2).fit(graph)

    def test_all_baselines_survive_star_graph(self):
        graph = star_graph()
        for estimator in (
            SymmetrizedSpectralClustering(2, seed=0),
            RandomWalkSpectralClustering(2, seed=0),
            DiSimClustering(2, seed=0),
        ):
            labels = estimator.fit(graph).labels
            assert labels.shape == (8,)


class TestDegenerateClusteringInputs:
    def test_kmeans_on_identical_points(self):
        points = np.ones((10, 3))
        result = kmeans(points, 2, seed=0)
        assert result.inertia < 1e-12

    def test_kmeans_k_equals_one(self):
        rng = np.random.default_rng(0)
        result = kmeans(rng.normal(size=(5, 2)), 1, seed=0)
        assert np.all(result.labels == 0)

    def test_metrics_on_single_cluster_predictions(self):
        truth = [0, 0, 1, 1]
        predicted = [0, 0, 0, 0]
        assert matched_accuracy(truth, predicted) == 0.5
        assert -1.0 <= adjusted_rand_index(truth, predicted) <= 1.0

    def test_metrics_on_more_predicted_clusters_than_truth(self):
        truth = [0, 0, 1, 1]
        predicted = [0, 1, 2, 3]
        assert matched_accuracy(truth, predicted) == 0.5
        # all-singleton predictions share no pair with the truth: chance level
        assert adjusted_rand_index(truth, predicted) == 0.0
        assert label_scores(truth, predicted) == (0.0, 0.5)


class TestConfigBoundaries:
    def test_minimum_precision_pipeline(self):
        graph, truth = mixed_sbm(16, 2, p_intra=0.8, p_inter=0.05, seed=0)
        config = QSCConfig(precision_bits=1, shots=256, seed=0)
        result = QuantumSpectralClustering(2, config).fit(graph)
        # p = 1 still separates low from bulk via sqrt-acceptance weighting
        assert adjusted_rand_index(truth, result.labels) >= 0.0

    def test_one_shot_tomography(self):
        graph, _ = mixed_sbm(12, 2, seed=1)
        config = QSCConfig(precision_bits=5, shots=1, seed=1)
        result = QuantumSpectralClustering(2, config).fit(graph)
        assert result.labels.shape == (12,)

    def test_threshold_above_spectrum_accepts_everything(self):
        graph, _ = mixed_sbm(12, 2, seed=2)
        config = QSCConfig(precision_bits=5, shots=0, eigenvalue_threshold=10.0, seed=2)
        result = QuantumSpectralClustering(2, config).fit(graph)
        # full acceptance: every row keeps all its mass
        assert np.allclose(result.row_norms, 1.0, atol=1e-6)

    def test_tiny_threshold_rejects_everything(self):
        graph, _ = mixed_sbm(12, 2, seed=3)
        config = QSCConfig(precision_bits=3, shots=0, eigenvalue_threshold=1e-9, seed=3)
        # bin 0 always satisfies value 0 <= threshold, so this still runs;
        # rows keep only their bin-0 kernel mass
        result = QuantumSpectralClustering(2, config).fit(graph)
        assert result.labels.shape == (12,)

    def test_huge_qmeans_delta_still_returns_valid_labels(self):
        graph, _ = mixed_sbm(16, 2, seed=4)
        config = QSCConfig(precision_bits=5, shots=256, qmeans_delta=10.0, seed=4)
        result = QuantumSpectralClustering(2, config).fit(graph)
        assert set(result.labels) <= {0, 1}


class TestGraphConstructionErrors:
    def test_weight_type_errors_surface_as_graph_errors(self):
        graph = MixedGraph(3)
        with pytest.raises(GraphError):
            graph.add_edge(0, 1, weight=-3)

    def test_clusters_exceeding_nodes(self):
        graph, _ = mixed_sbm(4, 2, seed=0)
        with pytest.raises(ClusteringError):
            QuantumSpectralClustering(5).fit(graph)
