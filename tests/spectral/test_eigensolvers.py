"""Tests for the dense (LAPACK) and Lanczos eigensolvers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConvergenceError
from repro.graphs import hermitian_laplacian, random_mixed_graph
from repro.linalg import DenseBackend, SparseBackend
from repro.spectral.eigensolvers import lanczos_lowest_eigenpairs


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2


class TestDense:
    def test_values_ascending(self):
        values, _ = DenseBackend().lowest_eigenpairs(random_hermitian(8, 0), 4)
        assert np.all(np.diff(values) >= -1e-12)

    def test_eigen_equation_satisfied(self):
        matrix = random_hermitian(8, 1)
        values, vectors = DenseBackend().lowest_eigenpairs(matrix, 3)
        for j in range(3):
            assert np.allclose(matrix @ vectors[:, j], values[j] * vectors[:, j])

    def test_vectors_orthonormal(self):
        _, vectors = DenseBackend().lowest_eigenpairs(random_hermitian(8, 2), 5)
        gram = vectors.conj().T @ vectors
        assert np.allclose(gram, np.eye(5), atol=1e-10)

    def test_k_validation(self):
        with pytest.raises(ConvergenceError):
            DenseBackend().lowest_eigenpairs(random_hermitian(4, 3), 0)
        with pytest.raises(ConvergenceError):
            DenseBackend().lowest_eigenpairs(random_hermitian(4, 3), 5)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ConvergenceError):
            DenseBackend().lowest_eigenpairs(
                np.array([[0, 1], [0, 0]], dtype=complex), 1
            )


class TestLanczos:
    @given(seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_matches_dense_on_laplacians(self, seed):
        graph = random_mixed_graph(16, 0.4, seed=seed)
        laplacian = hermitian_laplacian(graph)
        dense_values, _ = DenseBackend().lowest_eigenpairs(laplacian, 3)
        lanczos_values, _ = lanczos_lowest_eigenpairs(laplacian, 3, seed=seed)
        assert np.allclose(dense_values, lanczos_values, atol=1e-5)

    def test_eigenvectors_satisfy_equation(self):
        graph = random_mixed_graph(20, 0.3, seed=7)
        laplacian = hermitian_laplacian(graph)
        values, vectors = lanczos_lowest_eigenpairs(laplacian, 2, seed=0)
        for j in range(2):
            residual = laplacian @ vectors[:, j] - values[j] * vectors[:, j]
            assert np.linalg.norm(residual) < 1e-4

    def test_k_equals_n_falls_back_to_dense(self):
        matrix = random_hermitian(5, 8)
        values, _ = lanczos_lowest_eigenpairs(matrix, 5, seed=0)
        dense_values, _ = DenseBackend().lowest_eigenpairs(matrix, 5)
        assert np.allclose(values, dense_values, atol=1e-8)

    def test_invalid_k(self):
        with pytest.raises(ConvergenceError):
            lanczos_lowest_eigenpairs(random_hermitian(4, 9), 0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ConvergenceError):
            lanczos_lowest_eigenpairs(np.array([[0, 1], [0, 0]], dtype=complex), 1)

    def test_handles_degenerate_spectrum(self):
        # identity has a fully degenerate spectrum — Lanczos should break
        # down gracefully via the invariant-subspace branch
        values, _ = lanczos_lowest_eigenpairs(np.eye(8, dtype=complex), 2, seed=1)
        assert np.allclose(values, 1.0)


class TestSparse:
    @pytest.mark.parametrize("num_nodes, k", [(12, 2), (40, 3), (80, 4)])
    def test_matches_dense_on_laplacians(self, num_nodes, k):
        graph = random_mixed_graph(num_nodes, 0.2, seed=num_nodes)
        laplacian = hermitian_laplacian(graph)
        dense_values, _ = DenseBackend().lowest_eigenpairs(laplacian, k)
        values, vectors = SparseBackend().lowest_eigenpairs(laplacian, k)
        assert np.allclose(values, dense_values, atol=1e-8)
        residual = laplacian @ vectors - vectors * values
        assert np.abs(residual).max() < 1e-6

    def test_accepts_a_sparse_matrix(self):
        graph = random_mixed_graph(30, 0.2, seed=2)
        dense = hermitian_laplacian(graph)
        from_sparse, _ = SparseBackend().lowest_eigenpairs(
            hermitian_laplacian(graph, backend="sparse"), 3
        )
        dense_values, _ = DenseBackend().lowest_eigenpairs(dense, 3)
        assert np.allclose(from_sparse, dense_values, atol=1e-8)
