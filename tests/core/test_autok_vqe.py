"""Tests for quantum auto-k model selection."""

import numpy as np
import pytest

from repro.core import estimate_num_clusters_quantum, eigenvalues_from_histogram
from repro.core.qpe_engine import AnalyticQPEBackend
from repro.exceptions import ClusteringError
from repro.graphs import ensure_connected, hermitian_laplacian, mixed_sbm
from repro.spectral import estimate_num_clusters
from repro.graphs import laplacian_spectrum


def strong_sbm(num_clusters, num_nodes=32, seed=0):
    graph, truth = mixed_sbm(
        num_nodes,
        num_clusters,
        p_intra=0.7,
        p_inter=0.02,
        seed=seed,
    )
    ensure_connected(graph, seed=seed)
    return graph, truth


class TestAutoK:
    def histogram_for(self, graph, precision=7, shots=16384, seed=0):
        backend = AnalyticQPEBackend(hermitian_laplacian(graph), precision)
        rng = np.random.default_rng(seed)
        return backend.eigenvalue_histogram(shots, rng), backend

    @pytest.mark.parametrize("k_true", [2, 3, 4])
    def test_recovers_cluster_count(self, k_true):
        graph, _ = strong_sbm(k_true, num_nodes=40, seed=k_true)
        histogram, backend = self.histogram_for(graph)
        result = estimate_num_clusters_quantum(
            histogram, graph.num_nodes, 7, backend.lambda_scale
        )
        assert result.num_clusters == k_true

    def test_agrees_with_classical_eigengap(self):
        graph, _ = strong_sbm(3, num_nodes=36, seed=9)
        histogram, backend = self.histogram_for(graph)
        quantum_k = estimate_num_clusters_quantum(
            histogram, graph.num_nodes, 7, backend.lambda_scale
        ).num_clusters
        values, _ = laplacian_spectrum(graph)
        classical_k = estimate_num_clusters(values)
        assert quantum_k == classical_k

    def test_eigenvalue_estimates_track_spectrum(self):
        graph, _ = strong_sbm(2, num_nodes=24, seed=5)
        histogram, backend = self.histogram_for(graph, shots=32768)
        estimates = eigenvalues_from_histogram(
            histogram, graph.num_nodes, 7, backend.lambda_scale
        )
        exact = np.linalg.eigvalsh(hermitian_laplacian(graph))
        assert estimates.size == graph.num_nodes
        # low spectrum recovered within a couple of QPE bins
        bin_width = backend.lambda_scale / 2**7
        assert abs(estimates[0] - exact[0]) < 4 * bin_width
        assert abs(estimates[1] - exact[1]) < 4 * bin_width

    def test_result_fields(self):
        graph, _ = strong_sbm(2, num_nodes=24, seed=6)
        histogram, backend = self.histogram_for(graph)
        result = estimate_num_clusters_quantum(
            histogram, graph.num_nodes, 7, backend.lambda_scale
        )
        assert result.gaps.size == result.eigenvalue_estimates.size - 1

    def test_empty_histogram_rejected(self):
        with pytest.raises(ClusteringError):
            eigenvalues_from_histogram(np.zeros(16), 4, 4, 2.125)

    def test_invalid_window_rejected(self):
        graph, _ = strong_sbm(2, num_nodes=24, seed=7)
        histogram, backend = self.histogram_for(graph)
        with pytest.raises(ClusteringError):
            estimate_num_clusters_quantum(
                histogram, graph.num_nodes, 7, backend.lambda_scale, k_min=50
            )
