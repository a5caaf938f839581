"""Tests for the QPE engines, including cross-backend agreement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import QSCConfig
from repro.core.qpe_engine import (
    LAMBDA_SCALE,
    PAD_EIGENVALUE,
    AnalyticQPEBackend,
    CircuitQPEBackend,
    make_backend,
    pad_laplacian,
)
from repro.exceptions import ClusteringError
from repro.graphs import hermitian_laplacian, mixed_sbm, random_mixed_graph


def small_laplacian(seed=0, n=6):
    graph = random_mixed_graph(n, 0.5, seed=seed)
    return hermitian_laplacian(graph)


class TestPadding:
    def test_power_of_two_passthrough(self):
        laplacian = small_laplacian(n=8)
        padded = pad_laplacian(laplacian)
        assert padded.shape == (8, 8)
        assert np.allclose(padded, laplacian)

    def test_padding_block_diagonal(self):
        laplacian = small_laplacian(n=6)
        padded = pad_laplacian(laplacian)
        assert padded.shape == (8, 8)
        assert np.allclose(padded[:6, :6], laplacian)
        assert np.allclose(padded[6:, :6], 0)
        assert np.allclose(np.diag(padded)[6:], PAD_EIGENVALUE)

    def test_pad_eigenvalues_at_top(self):
        padded = pad_laplacian(small_laplacian(n=5))
        values = np.linalg.eigvalsh(padded)
        assert np.isclose(values[-1], max(values.max(), PAD_EIGENVALUE))

    def test_scale_exceeds_spectral_bound(self):
        assert LAMBDA_SCALE > 2.0


class TestAnalyticBackend:
    def test_node_distribution_normalized(self):
        backend = AnalyticQPEBackend(small_laplacian(), 5)
        for node in range(backend.num_nodes):
            probs = backend.node_outcome_distribution(node)
            assert np.isclose(probs.sum(), 1.0)
            assert (probs >= -1e-12).all()

    def test_histogram_total(self):
        backend = AnalyticQPEBackend(small_laplacian(), 4)
        histogram = backend.eigenvalue_histogram(500, np.random.default_rng(0))
        assert histogram.sum() == 500

    def test_accept_everything_reproduces_basis_state(self):
        backend = AnalyticQPEBackend(small_laplacian(), 6)
        everything = np.arange(2**6)
        row, probability = backend.project_row(2, everything)
        assert np.isclose(probability, 1.0, atol=1e-9)
        expected = np.zeros(backend.dim)
        expected[2] = 1.0
        assert np.isclose(abs(np.vdot(row, expected)), 1.0, atol=1e-9)

    def test_accept_nothing_returns_zero(self):
        backend = AnalyticQPEBackend(small_laplacian(), 4)
        row, probability = backend.project_row(0, np.array([], dtype=int))
        assert probability == 0.0
        assert np.allclose(row, 0.0)

    def test_mean_acceptance_close_to_subspace_fraction(self):
        # With a clean spectral gap, mean over nodes of P(accept) ≈ k/n.
        graph, _ = mixed_sbm(16, 2, p_intra=0.8, p_inter=0.02, seed=1)
        laplacian = hermitian_laplacian(graph)
        backend = AnalyticQPEBackend(laplacian, 7)
        values = np.linalg.eigvalsh(laplacian)
        threshold = (values[1] + values[2]) / 2.0
        accepted = np.flatnonzero(
            np.arange(2**7) / 2**7 * backend.lambda_scale <= threshold
        )
        probabilities = [backend.project_row(node, accepted)[1] for node in range(16)]
        assert abs(np.mean(probabilities) - 2 / 16) < 0.05

    def test_node_range_validated(self):
        backend = AnalyticQPEBackend(small_laplacian(), 4)
        with pytest.raises(ClusteringError):
            backend.node_outcome_distribution(99)
        with pytest.raises(ClusteringError):
            backend.project_row(-1, np.array([0]))

    def test_precision_validated(self):
        with pytest.raises(ClusteringError):
            AnalyticQPEBackend(small_laplacian(), 0)

    @pytest.mark.parametrize("engine", ["v1", "v3"])
    @pytest.mark.parametrize("top", [LAMBDA_SCALE, 3.0])
    def test_spectrum_outside_the_phase_window_raises(self, engine, top):
        """Eagerly at construction, or on first use when deferred."""
        laplacian = np.diag([0.0, 1.0, top]).astype(complex)
        with pytest.raises(ClusteringError, match="phase window"):
            AnalyticQPEBackend(laplacian, 4, engine)
        backend = AnalyticQPEBackend(laplacian, 4, engine, deferred=True)
        with pytest.raises(ClusteringError, match="phase window"):
            backend.eigenvalue_histogram(16, np.random.default_rng(0))
        with pytest.raises(ClusteringError, match="phase window"):
            backend.eigenvalues  # still refused on a later use

    def test_negative_spectrum_raises(self):
        laplacian = np.diag([-0.5, 0.0, 1.0]).astype(complex)
        with pytest.raises(ClusteringError, match="phase window"):
            AnalyticQPEBackend(laplacian, 4)


class TestCircuitBackend:
    def test_distribution_matches_analytic_exactly(self):
        laplacian = small_laplacian(seed=3, n=4)
        analytic = AnalyticQPEBackend(laplacian, 4)
        circuit = CircuitQPEBackend(laplacian, 4)
        for node in range(4):
            assert np.allclose(
                analytic.node_outcome_distribution(node),
                circuit.node_outcome_distribution(node),
                atol=1e-10,
            )

    @given(seed=st.integers(0, 10))
    @settings(max_examples=5, deadline=None)
    def test_projection_agreement_across_backends(self, seed):
        laplacian = small_laplacian(seed=seed, n=4)
        analytic = AnalyticQPEBackend(laplacian, 5)
        circuit = CircuitQPEBackend(laplacian, 5)
        accepted = np.arange(10)  # a low-eigenvalue window
        for node in range(4):
            row_a, p_a = analytic.project_row(node, accepted)
            row_c, p_c = circuit.project_row(node, accepted)
            if p_a < 1e-6 or p_c < 1e-6:
                continue
            overlap = abs(np.vdot(row_a, row_c))
            assert overlap > 0.95
            assert abs(p_a - p_c) < 0.1

    def test_trotter_evolution_close_to_exact(self):
        laplacian = small_laplacian(seed=5, n=4)
        exact = CircuitQPEBackend(laplacian, 4, evolution="exact")
        trotter = CircuitQPEBackend(
            laplacian, 4, evolution="trotter", trotter_steps=16, trotter_order=2
        )
        for node in range(4):
            assert np.allclose(
                exact.node_outcome_distribution(node),
                trotter.node_outcome_distribution(node),
                atol=0.05,
            )

    def test_unknown_evolution_rejected(self):
        with pytest.raises(ClusteringError):
            CircuitQPEBackend(small_laplacian(n=4), 3, evolution="magic")

    def test_histogram_total(self):
        backend = CircuitQPEBackend(small_laplacian(n=4), 4)
        histogram = backend.eigenvalue_histogram(300, np.random.default_rng(1))
        assert histogram.sum() == 300


class TestMakeBackend:
    def test_analytic_selection(self):
        backend = make_backend(small_laplacian(n=4), QSCConfig(backend="analytic"))
        assert isinstance(backend, AnalyticQPEBackend)

    def test_circuit_selection(self):
        config = QSCConfig(backend="circuit", precision_bits=3)
        backend = make_backend(small_laplacian(n=4), config)
        assert isinstance(backend, CircuitQPEBackend)
