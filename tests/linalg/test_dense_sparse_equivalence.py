"""Property tests: dense and sparse backends are observationally equivalent.

The backend layer's contract is that representation is an implementation
detail — same Laplacian entries, same eigenpairs, same cluster labels.
These tests pin that over random MSBM instances, with hypothesis driving
the graph construction and fixed-seed cases covering the full pipeline.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from matrix_checks import native_matrix

from repro.graphs import (
    hermitian_laplacian,
    mixed_sbm,
    random_mixed_graph,
    sparse_mixed_sbm,
)
from repro.linalg import DenseBackend, SparseBackend
from repro.metrics import adjusted_rand_index
from repro.spectral import ClassicalSpectralClustering, spectral_embedding

graph_seeds = st.integers(0, 150)
thetas = st.floats(0.1, np.pi - 0.1)


class TestMatrixEquivalence:
    @given(seed=graph_seeds, theta=thetas)
    @settings(max_examples=30, deadline=None)
    def test_laplacian_entries_identical(self, seed, theta):
        graph, _ = mixed_sbm(24, 2, seed=seed)
        dense = hermitian_laplacian(graph, theta=theta, backend="dense")
        sparse = hermitian_laplacian(graph, theta=theta, backend="sparse")
        assert np.allclose(dense, sparse.toarray(), atol=1e-12)

    @given(seed=graph_seeds)
    @settings(max_examples=20, deadline=None)
    def test_weighted_graph_adjacency_identical(self, seed):
        graph = random_mixed_graph(
            15, 0.4, directed_fraction=0.5, weight_range=(0.5, 2.5), seed=seed
        )
        dense = graph.symmetrized_adjacency()
        sparse = graph.symmetrized_adjacency(backend="sparse")
        assert np.allclose(dense, sparse.toarray(), atol=1e-12)
        dense_dir = graph.directed_adjacency()
        sparse_dir = graph.directed_adjacency(backend="sparse")
        assert np.allclose(dense_dir, sparse_dir.toarray(), atol=1e-12)


class TestEigenpairEquivalence:
    @given(seed=graph_seeds)
    @settings(max_examples=15, deadline=None)
    def test_lowest_eigenvalues_agree(self, seed):
        graph, _ = mixed_sbm(40, 2, seed=seed)
        laplacian = hermitian_laplacian(graph)
        k = 3
        dense_values, dense_vectors = DenseBackend().lowest_eigenpairs(laplacian, k)
        sparse_backend = SparseBackend(dense_fallback_dim=8)
        sparse_values, sparse_vectors = sparse_backend.lowest_eigenpairs(
            native_matrix(laplacian, sparse_backend), k
        )
        assert np.allclose(dense_values, sparse_values, atol=1e-7)
        # identical eigenpairs up to basis: compare subspace projectors
        # when the spectral gap protects the subspace from degeneracy
        full = np.linalg.eigvalsh(laplacian)
        if full[k] - full[k - 1] > 1e-6:
            dense_proj = dense_vectors @ dense_vectors.conj().T
            sparse_proj = sparse_vectors @ sparse_vectors.conj().T
            assert np.allclose(dense_proj, sparse_proj, atol=1e-5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_embedding_geometry_preserved(self, seed):
        graph, _ = sparse_mixed_sbm(
            320, 2, avg_intra_degree=14.0, avg_inter_degree=2.0, seed=seed
        )
        dense = spectral_embedding(graph, 2, backend="dense")
        sparse = spectral_embedding(graph, 2, backend="sparse")
        # per-column eigenvector phases rotate the real features, but all
        # pairwise distances are invariant — compare the Gram geometry
        dense_gram = dense @ dense.T
        sparse_gram = sparse @ sparse.T
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(dense_gram)),
            np.sort(np.linalg.eigvalsh(sparse_gram)),
            atol=1e-6,
        )
        assert np.allclose(
            np.linalg.norm(dense, axis=1),
            np.linalg.norm(sparse, axis=1),
            atol=1e-8,
        )


class TestLabelEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cluster_labels_identical_on_msbm(self, seed):
        graph, truth = sparse_mixed_sbm(
            400,
            3,
            avg_intra_degree=16.0,
            avg_inter_degree=2.0,
            seed=seed,
        )
        dense = ClassicalSpectralClustering(3, backend="dense", seed=0).fit(graph)
        sparse = ClassicalSpectralClustering(3, backend="sparse", seed=0).fit(graph)
        assert adjusted_rand_index(dense.labels, sparse.labels) == pytest.approx(1.0)
        assert adjusted_rand_index(truth, sparse.labels) > 0.9

    def test_auto_backend_matches_forced_backends(self):
        graph, _ = sparse_mixed_sbm(300, 2, seed=11)
        auto = ClassicalSpectralClustering(2, backend="auto", seed=0).fit(graph)
        # n = 300 sits in the midrange band: auto resolves to the sparse
        # backend's LOBPCG route, so a forced LOBPCG backend is exact...
        lobpcg = ClassicalSpectralClustering(
            2, backend=SparseBackend(solver="lobpcg"), seed=0
        ).fit(graph)
        assert np.array_equal(auto.labels, lobpcg.labels)
        # ...and plain eigsh recovers the same partition (the solvers
        # agree to iterative tolerance, far inside k-means' basins).
        sparse = ClassicalSpectralClustering(2, backend="sparse", seed=0).fit(graph)
        assert adjusted_rand_index(auto.labels, sparse.labels) == pytest.approx(1.0)

    def test_quantum_pipeline_accepts_all_linalg_backends(self):
        from repro.core import QSCConfig, QuantumSpectralClustering

        graph, truth = mixed_sbm(24, 2, p_intra=0.6, p_inter=0.04, seed=1)
        labels = {}
        for name in ("auto", "dense", "sparse"):
            config = QSCConfig(linalg_backend=name, precision_bits=6, shots=0, seed=5)
            labels[name] = QuantumSpectralClustering(2, config).fit(graph).labels
        for name in ("sparse", "auto"):
            assert adjusted_rand_index(labels["dense"], labels[name]) == (
                pytest.approx(1.0)
            )
