"""Unit tests for the pluggable linear-algebra backend layer."""

import numpy as np
import pytest
import scipy.sparse as sparse
from matrix_checks import native_matrix

from repro.core.qpe_engine import PAD_EIGENVALUE, AnalyticQPEBackend, pad_laplacian
from repro.exceptions import ClusteringError, ConvergenceError
from repro.graphs import hermitian_laplacian, mixed_sbm, sparse_mixed_sbm
from repro.linalg import (
    LOBPCG_AUTO_CEILING,
    SPARSE_AUTO_THRESHOLD,
    BackendError,
    DenseBackend,
    SparseBackend,
    get_backend,
    is_sparse_matrix,
    resolve_backend,
    to_dense_array,
)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


class TestConstruction:
    def test_from_coo_sums_duplicates_identically(self):
        rows = [0, 1, 0, 2, 0]
        cols = [1, 0, 1, 2, 1]
        values = [1.0, 2.0, 0.5, 3.0, 0.25]
        dense = DenseBackend().from_coo(rows, cols, values, (3, 3), dtype=float)
        csr = SparseBackend().from_coo(rows, cols, values, (3, 3), dtype=float)
        assert dense[0, 1] == pytest.approx(1.75)
        assert np.allclose(dense, csr.toarray())

    def test_identity_and_diagonal(self):
        for backend in (DenseBackend(), SparseBackend()):
            eye = to_dense_array(backend.identity(4))
            assert np.allclose(eye, np.eye(4))
            diag = to_dense_array(backend.diagonal_matrix([1.0, 2.0, 3.0]))
            assert np.allclose(diag, np.diag([1.0, 2.0, 3.0]))

    def test_row_column_scaling(self):
        matrix = random_hermitian(5, 0)
        scale = np.arange(1.0, 6.0)
        for backend in (DenseBackend(), SparseBackend()):
            native = native_matrix(matrix, backend)
            scaled = to_dense_array(
                backend.scale_columns(backend.scale_rows(native, scale), scale)
            )
            assert np.allclose(scaled, scale[:, None] * matrix * scale[None, :])


class TestResolution:
    def test_explicit_names(self):
        assert get_backend("dense").name == "dense"
        assert get_backend("sparse").name == "sparse"
        with pytest.raises(BackendError):
            get_backend("gpu")

    def test_auto_switches_on_size(self):
        assert resolve_backend("auto", SPARSE_AUTO_THRESHOLD - 1).name == "dense"
        assert resolve_backend("auto", SPARSE_AUTO_THRESHOLD).name == "sparse"
        assert resolve_backend("auto", None).name == "dense"

    def test_auto_band_boundaries(self):
        """The three auto bands: dense ↔ LOBPCG midrange ↔ eigsh sparse."""
        below = resolve_backend("auto", SPARSE_AUTO_THRESHOLD - 1)
        assert below.name == "dense"
        midrange = resolve_backend("auto", SPARSE_AUTO_THRESHOLD)
        assert midrange.name == "sparse"
        assert midrange.solver == "lobpcg"
        upper = resolve_backend("auto", LOBPCG_AUTO_CEILING - 1)
        assert upper.solver == "lobpcg"
        large = resolve_backend("auto", LOBPCG_AUTO_CEILING)
        assert large.name == "sparse"
        assert large.solver == "eigsh"

    @pytest.mark.parametrize("name", ["gpu", "array"])
    def test_unknown_backend_error_lists_the_valid_names(self, name):
        """An unknown name, including the retired ``array``, is a typed
        error listing exactly the three valid names."""
        with pytest.raises(BackendError) as info:
            get_backend(name)
        assert str(info.value) == (
            f"unknown linalg backend {name!r}; valid backends: auto, dense, sparse"
        )

    def test_instance_passthrough(self):
        backend = SparseBackend()
        assert resolve_backend(backend, 8) is backend


class TestLowestEigenpairs:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_and_sparse_agree_above_fallback(self, seed):
        n, k = 80, 3
        matrix = random_hermitian(n, seed)
        backend = SparseBackend(dense_fallback_dim=16)
        dense_values, dense_vectors = DenseBackend().lowest_eigenpairs(matrix, k)
        sparse_values, sparse_vectors = backend.lowest_eigenpairs(
            native_matrix(matrix, backend), k
        )
        assert np.allclose(dense_values, sparse_values, atol=1e-8)
        # eigenvectors match up to per-column phase: compare projectors
        dense_proj = dense_vectors @ dense_vectors.conj().T
        sparse_proj = sparse_vectors @ sparse_vectors.conj().T
        assert np.allclose(dense_proj, sparse_proj, atol=1e-6)

    def test_small_matrix_takes_dense_fallback(self):
        matrix = sparse.csr_matrix(random_hermitian(8, 3))
        values, vectors = SparseBackend().lowest_eigenpairs(matrix, 8)
        reference = np.linalg.eigvalsh(matrix.toarray())
        assert np.allclose(values, reference)
        assert vectors.shape == (8, 8)

    def test_k_out_of_range(self):
        matrix = random_hermitian(6, 4)
        for backend in (DenseBackend(), SparseBackend()):
            with pytest.raises(ConvergenceError):
                backend.lowest_eigenpairs(native_matrix(matrix, backend), 0)
            with pytest.raises(ConvergenceError):
                backend.lowest_eigenpairs(native_matrix(matrix, backend), 7)

    def test_sparse_solve_is_deterministic(self):
        graph, _ = sparse_mixed_sbm(400, 2, seed=9)
        laplacian = hermitian_laplacian(graph, backend="sparse")
        backend = SparseBackend()
        first, _ = backend.lowest_eigenpairs(laplacian, 2)
        second, _ = backend.lowest_eigenpairs(laplacian, 2)
        assert np.array_equal(first, second)


class TestLobpcgRoute:
    def laplacian(self, n=400, seed=9):
        graph, _ = sparse_mixed_sbm(n, 2, seed=seed)
        return hermitian_laplacian(graph, backend="sparse")

    def test_lobpcg_converges_and_matches_eigsh(self):
        laplacian = self.laplacian()
        lobpcg = SparseBackend(solver="lobpcg")
        values, vectors = lobpcg.lowest_eigenpairs(laplacian, 2)
        assert lobpcg.last_route == "lobpcg"
        eigsh_values, eigsh_vectors = SparseBackend().lowest_eigenpairs(
            laplacian, 2
        )
        assert np.allclose(values, eigsh_values, atol=1e-6)
        proj = vectors @ vectors.conj().T
        eigsh_proj = eigsh_vectors @ eigsh_vectors.conj().T
        assert np.allclose(proj, eigsh_proj, atol=1e-4)

    def test_lobpcg_is_deterministic(self):
        laplacian = self.laplacian()
        backend = SparseBackend(solver="lobpcg")
        first, first_vectors = backend.lowest_eigenpairs(laplacian, 2)
        second, second_vectors = backend.lowest_eigenpairs(laplacian, 2)
        assert np.array_equal(first, second)
        assert np.array_equal(first_vectors, second_vectors)

    def test_non_convergence_falls_back_to_eigsh(self):
        laplacian = self.laplacian()
        starved = SparseBackend(
            solver="lobpcg", lobpcg_maxiter=1, lobpcg_tolerance=1e-14
        )
        values, _ = starved.lowest_eigenpairs(laplacian, 2)
        assert starved.last_route == "lobpcg->eigsh"
        reference, _ = SparseBackend().lowest_eigenpairs(laplacian, 2)
        assert np.allclose(values, reference, atol=1e-8)

    def test_block_headroom_guard_routes_to_eigsh(self):
        # 5k >= n leaves lobpcg no Krylov headroom; the route must skip
        # straight to eigsh (or dense fallback) instead of diverging.
        laplacian = self.laplacian()
        backend = SparseBackend(solver="lobpcg", dense_fallback_dim=8)
        k = laplacian.shape[0] // 5
        values, _ = backend.lowest_eigenpairs(laplacian, k)
        assert backend.last_route == "lobpcg->eigsh"
        assert values.shape == (k,)

    def test_unknown_solver_rejected(self):
        with pytest.raises(BackendError, match="solver"):
            SparseBackend(solver="arnoldi")


class TestSparsePadding:
    def test_sparse_pad_matches_dense_pad(self):
        graph, _ = mixed_sbm(20, 2, seed=0)
        laplacian = hermitian_laplacian(graph)
        dense_padded = pad_laplacian(laplacian)
        sparse_padded = pad_laplacian(sparse.csr_matrix(laplacian))
        assert is_sparse_matrix(sparse_padded)
        assert np.allclose(dense_padded, sparse_padded.toarray())

    def test_pad_diagonal_is_vectorized_fill(self):
        laplacian = np.eye(5, dtype=complex) * 0.5
        padded = pad_laplacian(laplacian)
        assert padded.shape == (8, 8)
        assert np.allclose(np.diag(padded)[5:], PAD_EIGENVALUE)
        assert np.allclose(padded[:5, :5], laplacian)
        assert np.count_nonzero(padded[5:, :5]) == 0

    def test_power_of_two_input_returns_copy(self):
        laplacian = sparse.identity(4, dtype=complex, format="csr")
        padded = pad_laplacian(laplacian)
        assert padded.shape == (4, 4)
        padded[0, 0] = 99.0
        assert laplacian[0, 0] == 1.0


class TestBatchedProjection:
    def test_project_rows_matches_project_row(self):
        graph, _ = mixed_sbm(12, 2, seed=4)
        backend = AnalyticQPEBackend(hermitian_laplacian(graph), 5)
        accepted = np.arange(10)
        states, probabilities = backend.project_rows(np.arange(12), accepted)
        for node in range(12):
            state, probability = backend.project_row(node, accepted)
            assert np.allclose(states[node], state, atol=1e-12)
            assert probabilities[node] == pytest.approx(probability, abs=1e-12)

    def test_project_rows_rejects_bad_node(self):
        graph, _ = mixed_sbm(8, 2, seed=4)
        backend = AnalyticQPEBackend(hermitian_laplacian(graph), 4)
        with pytest.raises(ClusteringError):
            backend.project_rows([0, 99], np.arange(4))

    def test_analytic_backend_accepts_sparse_laplacian(self):
        graph, _ = mixed_sbm(16, 2, seed=6)
        dense_backend = AnalyticQPEBackend(hermitian_laplacian(graph), 5)
        sparse_backend = AnalyticQPEBackend(
            hermitian_laplacian(graph, backend="sparse"), 5
        )
        assert np.allclose(
            dense_backend.eigenvalues, sparse_backend.eigenvalues, atol=1e-10
        )
        state_d, prob_d = dense_backend.project_row(3, np.arange(8))
        state_s, prob_s = sparse_backend.project_row(3, np.arange(8))
        assert prob_d == pytest.approx(prob_s, abs=1e-10)
        # the filtered row is basis- and phase-invariant (c_j u_j pairs
        # cancel eigenvector phases), so the states agree exactly
        assert np.allclose(state_d, state_s, atol=1e-8)
