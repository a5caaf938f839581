"""Tests for spectral embeddings and the from-scratch k-means."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ClusteringError
from repro.graphs import cyclic_flow_sbm, hermitian_laplacian, mixed_sbm
from repro.linalg import DenseBackend
from repro.metrics import adjusted_rand_index
from repro.spectral import (
    ClassicalSpectralClustering,
    complex_to_real_features,
    kmeans,
    row_normalize,
    spectral_embedding,
)
from repro.spectral.embedding import normalized_real_features
from repro.spectral.kmeans import (
    assign_labels,
    cluster_inertia,
    kmeans_plusplus_init,
    squared_distances,
    update_centroids,
)
from repro.utils.linalg import row_blocks


def matrix_layouts(matrix):
    """``matrix`` in the memory layouts callers pass: C order, Fortran
    order (SciPy eigenvectors), the real view of a complex Fortran array,
    and a strided column slice."""
    fortran = np.asfortranarray(matrix)
    doubled = np.asfortranarray(np.repeat(matrix, 2, axis=1))
    return {
        "C": np.ascontiguousarray(matrix),
        "F": fortran,
        "real-view": (fortran + 1j).real,
        "strided": doubled[:, ::2],
    }


def reference_row_normalize(matrix, epsilon=1e-12):
    """The one-shot normalization the in-place blocks must reproduce."""
    matrix = np.asarray(matrix, dtype=float)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return np.where(
        norms > epsilon, matrix / np.where(norms > epsilon, norms, 1.0), 0.0
    )


block_matrices = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.integers(1, 400),
    st.integers(1, 1 << 14),
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
        _, vectors = DenseBackend().lowest_eigenpairs(laplacian, 2)
        # rows of the subspace projector U_k U_k†, what the quantum readout
        # reconstructs, against the n x k eigenvector coordinates
        projector = vectors @ vectors.conj().T
        coords = vectors
        for i in range(0, 20, 5):
            for j in range(0, 20, 5):
                assert np.isclose(
                    np.linalg.norm(projector[i] - projector[j]),
                    np.linalg.norm(coords[i] - coords[j]),
                    atol=1e-9,
                )


class TestBlockedRowNormalize:
    """``row_normalize`` computes its row norms in balanced row blocks and
    scales in place on its own copy."""

    @settings(max_examples=30, deadline=None)
    @given(block_matrices)
    def test_bitwise_equal_to_one_shot_normalization(self, case):
        seed, rows, cols, _ = case
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(rows, cols)) * rng.uniform(1e-3, 1e3)
        matrix[rng.integers(rows)] = 0.0
        for layout, points in matrix_layouts(matrix).items():
            expected = reference_row_normalize(points)
            got = row_normalize(points)
            np.testing.assert_array_equal(got, expected, err_msg=layout)
            assert got.strides == expected.strides, layout

    def test_input_is_not_modified(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(300, 250))
        matrix[7] = 0.0
        original = matrix.copy()
        normalized = row_normalize(matrix)
        np.testing.assert_array_equal(matrix, original)
        assert not np.shares_memory(normalized, matrix)

    def test_non_finite_rows_become_zero(self):
        matrix = np.array([[3.0, 4.0], [np.nan, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(
            row_normalize(matrix), reference_row_normalize(matrix)
        )

    def test_normalized_real_features_is_map_then_normalize(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(70, 90)) + 1j * rng.normal(size=(70, 90))
        expected = row_normalize(complex_to_real_features(rows[:, :60]))
        np.testing.assert_array_equal(normalized_real_features(rows[:, :60]), expected)


class TestBlockedDistances:
    """k-means++ distances and the inertia run through one block-sized
    buffer and must equal the broadcast formulas bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(block_matrices)
    def test_squared_distances_equal_broadcast(self, case):
        seed, rows, cols, max_entries = case
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(rows, cols)) * rng.uniform(1e-3, 1e3)
        center = rng.normal(size=cols)
        blocks = row_blocks(rows, cols, max_entries)
        for layout, points in matrix_layouts(matrix).items():
            buffer = np.empty_like(points[: blocks[0][1]], dtype=float)
            got = squared_distances(points, center, blocks, buffer, np.empty(rows))
            expected = ((points - center) ** 2).sum(axis=1)
            np.testing.assert_array_equal(got, expected, err_msg=layout)

    @settings(max_examples=20, deadline=None)
    @given(block_matrices, st.integers(1, 6))
    def test_plusplus_seeds_equal_broadcast_seeding(self, case, clusters):
        seed, rows, cols, _ = case
        clusters = min(clusters, rows)
        points = np.random.default_rng(seed).normal(size=(rows, cols))
        got = kmeans_plusplus_init(points, clusters, np.random.default_rng(seed))
        expected = broadcast_plusplus_init(
            points, clusters, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=30, deadline=None)
    @given(block_matrices, st.integers(1, 6))
    def test_inertia_equals_broadcast(self, case, clusters):
        seed, rows, cols, _ = case
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(rows, cols))
        centroids = rng.normal(size=(clusters, cols))
        labels = rng.integers(clusters, size=rows)
        for layout, points in matrix_layouts(matrix).items():
            expected = float(((points - centroids[labels]) ** 2).sum())
            assert cluster_inertia(points, centroids, labels) == expected, layout


def broadcast_plusplus_init(points, num_clusters, rng):
    """k-means++ seeding with full-size broadcast distances (the reference
    the blocked seeding must reproduce draw for draw)."""
    n = points.shape[0]
    centroids = np.empty((num_clusters, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    closest_sq = ((points - centroids[0]) ** 2).sum(axis=1)
    for index in range(1, num_clusters):
        total = closest_sq.sum()
        if total <= 1e-18:
            for j in range(index, num_clusters):
                centroids[j] = points[int(rng.integers(n))]
            break
        choice = int(rng.choice(n, p=closest_sq / total))
        centroids[index] = points[choice]
        distance_sq = ((points - centroids[index]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, distance_sq)
    return centroids


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
        labels = ClassicalSpectralClustering(2, seed=0).fit(graph).labels
        assert adjusted_rand_index(truth, labels) == 1.0

    def test_flow_sbm_perfect_recovery(self):
        graph, truth = cyclic_flow_sbm(
            60, 3, density=0.3, direction_strength=0.95, seed=1
        )
        labels = ClassicalSpectralClustering(3, seed=0).fit(graph).labels
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
        labels = ClassicalSpectralClustering(3, seed=0).fit(graph).labels
        assert adjusted_rand_index(truth, labels) > 0.9
