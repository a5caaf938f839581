"""Tests for spectral embeddings and the from-scratch k-means."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ClusteringError
from repro.graphs import cyclic_flow_sbm, hermitian_laplacian, mixed_sbm
from repro.metrics import adjusted_rand_index
from repro.spectral import (
    ClassicalSpectralClustering,
    classical_spectral_clustering,
    complex_to_real_features,
    kmeans,
    projector_embedding,
    row_normalize,
    spectral_embedding,
)
from repro.spectral.eigensolvers import dense_lowest_eigenpairs
from repro.spectral.kmeans import (
    assign_labels,
    kmeans_plusplus_init,
    update_centroids,
)


class TestFeatureMaps:
    def test_complex_to_real_shape(self):
        matrix = np.ones((4, 2), dtype=complex)
        assert complex_to_real_features(matrix).shape == (4, 4)

    def test_real_input_passthrough(self):
        matrix = np.ones((4, 2))
        out = complex_to_real_features(matrix)
        assert out.shape == (4, 2)

    @given(seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_isometry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        real = complex_to_real_features(a)
        for i in range(5):
            for j in range(5):
                assert np.isclose(
                    np.linalg.norm(a[i] - a[j]),
                    np.linalg.norm(real[i] - real[j]),
                )

    def test_row_normalize_unit_rows(self):
        rng = np.random.default_rng(0)
        normalized = row_normalize(rng.normal(size=(6, 3)))
        assert np.allclose(np.linalg.norm(normalized, axis=1), 1.0)

    def test_row_normalize_keeps_zero_rows(self):
        matrix = np.zeros((2, 3))
        matrix[0, 0] = 2.0
        normalized = row_normalize(matrix)
        assert np.allclose(normalized[1], 0.0)

    def test_projector_rows_preserve_distances(self):
        graph, _ = mixed_sbm(20, 2, seed=0)
        laplacian = hermitian_laplacian(graph)
        _, vectors = dense_lowest_eigenpairs(laplacian, 2)
        projector = projector_embedding(vectors)
        coords = vectors  # n x k coordinates
        for i in range(0, 20, 5):
            for j in range(0, 20, 5):
                assert np.isclose(
                    np.linalg.norm(projector[i] - projector[j]),
                    np.linalg.norm(coords[i] - coords[j]),
                    atol=1e-9,
                )


class TestSpectralEmbedding:
    def test_shape(self):
        graph, _ = mixed_sbm(24, 3, seed=1)
        embedding = spectral_embedding(graph, 3)
        assert embedding.shape == (24, 6)

    def test_k_validation(self):
        graph, _ = mixed_sbm(10, 2, seed=2)
        with pytest.raises(ClusteringError):
            spectral_embedding(graph, 0)
        with pytest.raises(ClusteringError):
            spectral_embedding(graph, 11)


class TestKMeans:
    def test_obvious_clusters(self):
        rng = np.random.default_rng(0)
        points = np.vstack([rng.normal(0, 0.1, (20, 2)), rng.normal(5, 0.1, (20, 2))])
        result = kmeans(points, 2, seed=0)
        truth = np.repeat([0, 1], 20)
        assert adjusted_rand_index(truth, result.labels) == 1.0

    def test_inertia_zero_when_k_equals_n(self):
        points = np.arange(8, dtype=float).reshape(4, 2)
        result = kmeans(points, 4, seed=0)
        assert result.inertia < 1e-18

    def test_single_cluster_centroid_is_mean(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(15, 3))
        result = kmeans(points, 1, seed=0)
        assert np.allclose(result.centroids[0], points.mean(axis=0))

    def test_converged_flag(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(30, 2))
        result = kmeans(points, 3, max_iterations=100, seed=0)
        assert result.converged

    def test_validation(self):
        points = np.zeros((3, 2))
        with pytest.raises(ClusteringError):
            kmeans(points, 0)
        with pytest.raises(ClusteringError):
            kmeans(points, 4)
        with pytest.raises(ClusteringError):
            kmeans(np.zeros(3), 1)
        with pytest.raises(ClusteringError):
            kmeans(points, 1, max_iterations=0)

    def test_plusplus_init_spreads_centroids(self):
        rng = np.random.default_rng(3)
        points = np.vstack(
            [rng.normal(0, 0.05, (30, 2)), rng.normal(10, 0.05, (30, 2))]
        )
        centroids = kmeans_plusplus_init(points, 2, np.random.default_rng(0))
        assert np.linalg.norm(centroids[0] - centroids[1]) > 5

    def test_plusplus_handles_identical_points(self):
        points = np.ones((10, 2))
        centroids = kmeans_plusplus_init(points, 3, np.random.default_rng(0))
        assert centroids.shape == (3, 2)

    def test_assign_labels_nearest(self):
        points = np.array([[0.0, 0], [10.0, 0]])
        centroids = np.array([[1.0, 0], [9.0, 0]])
        assert list(assign_labels(points, centroids)) == [0, 1]

    @given(seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_labels_in_range(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(25, 3))
        result = kmeans(points, 4, seed=seed)
        assert set(result.labels) <= set(range(4))


    def test_update_centroids_takes_cluster_means(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 10.0], [12.0, 14.0]])
        labels = np.array([0, 0, 1, 1])
        centroids = update_centroids(points, labels, 2, np.random.default_rng(0))
        assert np.allclose(centroids, [[1.0, 0.0], [11.0, 12.0]])

    def test_update_centroids_respawns_an_empty_cluster_at_a_point(self):
        points = np.random.default_rng(1).normal(size=(6, 3))
        labels = np.zeros(6, dtype=int)
        centroids = update_centroids(points, labels, 3, np.random.default_rng(2))
        assert np.allclose(centroids[0], points.mean(axis=0))
        for empty in (1, 2):
            assert any(np.array_equal(centroids[empty], point) for point in points)


class TestClassicalPipeline:
    def test_mixed_sbm_perfect_recovery(self):
        graph, truth = mixed_sbm(60, 2, seed=0)
        labels = classical_spectral_clustering(graph, 2, seed=0)
        assert adjusted_rand_index(truth, labels) == 1.0

    def test_flow_sbm_perfect_recovery(self):
        graph, truth = cyclic_flow_sbm(
            60, 3, density=0.3, direction_strength=0.95, seed=1
        )
        labels = classical_spectral_clustering(graph, 3, seed=0)
        assert adjusted_rand_index(truth, labels) == 1.0

    def test_result_artifacts(self):
        graph, _ = mixed_sbm(30, 2, seed=2)
        result = ClassicalSpectralClustering(2, seed=0).fit(graph)
        assert result.method == "classical-hermitian"
        assert result.embedding.shape[0] == 30
        assert result.kmeans.centroids.shape[0] == 2

    def test_too_many_clusters_rejected(self):
        graph, _ = mixed_sbm(10, 2, seed=3)
        with pytest.raises(ClusteringError):
            ClassicalSpectralClustering(11).fit(graph)

    def test_invalid_k_rejected(self):
        with pytest.raises(ClusteringError):
            ClassicalSpectralClustering(0)

    def test_three_cluster_msbm(self):
        graph, truth = mixed_sbm(90, 3, p_intra=0.4, p_inter=0.04, seed=4)
        labels = classical_spectral_clustering(graph, 3, seed=0)
        assert adjusted_rand_index(truth, labels) > 0.9
