"""The ``LinalgBackend`` contract, checked on every backend against numpy.

Each backend is held to an independent numpy reference rather than to the
other backend, so a fault shared by the dense and sparse paths still shows.
The sparse backend is built with a low dense-fallback dimension, so its
eigensolves take the iterative (ARPACK) route on the small matrices here.
"""

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st
from matrix_checks import native_matrix

from repro.exceptions import ConvergenceError
from repro.graphs import hermitian_laplacian, mixed_sbm
from repro.linalg import (
    DenseBackend,
    SparseBackend,
    is_sparse_matrix,
    to_dense_array,
)

BACKENDS = {
    "dense": DenseBackend(),
    "sparse": SparseBackend(dense_fallback_dim=8),
}


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return BACKENDS[request.param]


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def assert_native(matrix, backend):
    """The backend hands back its own representation."""
    assert is_sparse_matrix(matrix) == (backend.name == "sparse")


class TestConstruction:
    def test_from_coo_sums_duplicates(self, backend):
        rows = [0, 1, 0, 2, 0]
        cols = [1, 0, 1, 2, 1]
        values = [1.0, 2.0, 0.5, 3.0, 0.25]
        reference = np.zeros((3, 3))
        for row, col, value in zip(rows, cols, values):
            reference[row, col] += value
        matrix = backend.from_coo(rows, cols, values, (3, 3), dtype=float)
        assert_native(matrix, backend)
        assert np.array_equal(to_dense_array(matrix), reference)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_from_coo_keeps_the_requested_dtype(self, backend, dtype):
        matrix = backend.from_coo([0, 1], [1, 0], [1.0, 1.0], (2, 2), dtype=dtype)
        assert matrix.dtype == np.dtype(dtype)

    def test_identity_and_diagonal(self, backend):
        eye = backend.identity(4)
        assert_native(eye, backend)
        assert np.array_equal(to_dense_array(eye), np.eye(4, dtype=complex))
        diag = backend.diagonal_matrix([1.0, 2.0, 3.0])
        assert_native(diag, backend)
        assert np.array_equal(to_dense_array(diag), np.diag([1.0, 2.0, 3.0]))

    def test_row_column_scaling(self, backend):
        matrix = random_hermitian(5, 0)
        scale = np.arange(1.0, 6.0)
        native = native_matrix(matrix, backend)
        scaled = backend.scale_columns(backend.scale_rows(native, scale), scale)
        assert_native(scaled, backend)
        assert np.allclose(
            to_dense_array(scaled), scale[:, None] * matrix * scale[None, :]
        )

    def test_round_trip_preserves_values(self, backend):
        matrix = random_hermitian(6, 1)
        rows, cols = np.nonzero(matrix)
        native = backend.from_coo(
            rows, cols, matrix[rows, cols], matrix.shape, dtype=matrix.dtype
        )
        assert_native(native, backend)
        assert np.array_equal(to_dense_array(native), matrix)


class TestLowestEigenpairs:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_match_the_numpy_spectrum(self, backend, seed):
        n, k = 40, 3
        matrix = random_hermitian(n, seed)
        values, vectors = backend.lowest_eigenpairs(
            native_matrix(matrix, backend), k
        )
        assert np.allclose(values, np.linalg.eigvalsh(matrix)[:k], atol=1e-8)
        # vectors come back dense in every route, orthonormal and exact
        assert isinstance(vectors, np.ndarray)
        assert vectors.shape == (n, k)
        assert np.allclose(vectors.conj().T @ vectors, np.eye(k), atol=1e-8)
        residual = matrix @ vectors - vectors * values
        assert np.abs(residual).max() < 1e-6

    def test_accept_either_representation(self, backend):
        matrix = random_hermitian(24, 3)
        from_dense, _ = backend.lowest_eigenpairs(matrix, 2)
        from_sparse, _ = backend.lowest_eigenpairs(sparse.csr_matrix(matrix), 2)
        assert np.allclose(from_dense, from_sparse, atol=1e-10)

    def test_reject_a_non_hermitian_matrix(self, backend):
        matrix = random_hermitian(12, 4)
        matrix[0, 5] += 1.0
        with pytest.raises(ConvergenceError, match="Hermitian"):
            backend.lowest_eigenpairs(native_matrix(matrix, backend), 2)


def reference_laplacian(graph, normalization, theta=np.pi / 2):
    """The Hermitian Laplacian built entry by entry from the edge list."""
    n = graph.num_nodes
    h = np.zeros((n, n), dtype=complex)
    for u, v, w, directed in zip(*graph.edge_arrays()):
        value = w * (np.exp(1j * theta) if directed else 1.0)
        h[u, v] += value
        h[v, u] += np.conj(value)
    degrees = graph.degrees()
    if normalization == "none":
        return np.diag(degrees) - h
    safe = np.maximum(degrees, 1e-12)
    if normalization == "symmetric":
        scale = 1.0 / np.sqrt(safe)
        return np.eye(n) - scale[:, None] * h * scale[None, :]
    return np.eye(n) - h / safe[:, None]


@pytest.mark.parametrize("normalization", ["none", "symmetric", "randomwalk"])
@pytest.mark.parametrize("name", sorted(BACKENDS))
@given(seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_laplacian_through_backend_matches_the_edge_list(name, normalization, seed):
    backend = BACKENDS[name]
    graph, _ = mixed_sbm(16, 2, seed=seed)
    laplacian = hermitian_laplacian(graph, normalization=normalization, backend=backend)
    assert_native(laplacian, backend)
    assert np.allclose(
        to_dense_array(laplacian), reference_laplacian(graph, normalization),
        atol=1e-12,
    )


class TestToDenseArray:
    def test_read_only_path_aliases_a_dense_input(self):
        matrix = random_hermitian(4, 5)
        assert to_dense_array(matrix) is matrix

    def test_copy_returns_an_array_the_caller_owns(self):
        matrix = random_hermitian(4, 5)
        fresh = to_dense_array(matrix, copy=True)
        assert not np.shares_memory(fresh, matrix)
        assert np.array_equal(fresh, matrix)

    def test_dtype_change_converts(self):
        matrix = np.eye(3)
        converted = to_dense_array(matrix, dtype=complex)
        assert converted.dtype == np.complex128
        assert not np.shares_memory(converted, matrix)
        assert to_dense_array(matrix, dtype=float) is matrix

    def test_sparse_input_densifies(self):
        matrix = random_hermitian(5, 6)
        dense = to_dense_array(sparse.csr_matrix(matrix))
        assert isinstance(dense, np.ndarray)
        assert np.array_equal(dense, matrix)
