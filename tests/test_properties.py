"""Cross-cutting randomized property tests (hypothesis).

These pin the mathematical identities the architecture is built on, over
randomly generated mixed graphs — the highest-leverage regression net for
a numerics-heavy library.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from matrix_checks import is_psd

from repro.core.qpe_engine import AnalyticQPEBackend, pad_laplacian
from repro.graphs import (
    hermitian_adjacency,
    hermitian_laplacian,
    laplacian_spectrum,
    random_mixed_graph,
)
from repro.quantum.phase_estimation import qpe_outcome_distribution
from repro.utils.linalg import is_hermitian

graph_seeds = st.integers(0, 200)
thetas = st.floats(0.05, np.pi)
densities = st.floats(0.1, 0.7)


def random_graph(seed, density=0.4, directed=0.5):
    return random_mixed_graph(
        10, density, directed_fraction=directed, weight_range=(0.5, 2.0),
        seed=seed,
    )


class TestHermitianIdentities:
    @given(seed=graph_seeds, theta=thetas)
    @settings(max_examples=40, deadline=None)
    def test_adjacency_hermitian_for_all_theta(self, seed, theta):
        graph = random_graph(seed)
        assert is_hermitian(hermitian_adjacency(graph, theta))

    @given(seed=graph_seeds, theta=thetas)
    @settings(max_examples=30, deadline=None)
    def test_laplacian_psd_for_all_theta(self, seed, theta):
        graph = random_graph(seed)
        assert is_psd(hermitian_laplacian(graph, theta, "none"))

    @given(seed=graph_seeds)
    @settings(max_examples=30, deadline=None)
    def test_normalized_spectrum_bounded_by_two(self, seed):
        graph = random_graph(seed)
        values, _ = laplacian_spectrum(graph)
        assert values.max() <= 2.0 + 1e-9
        assert values.min() >= -1e-9

    @given(seed=graph_seeds)
    @settings(max_examples=25, deadline=None)
    def test_theta_pi_equals_signed_graph(self, seed):
        # at θ = π every arc is a −1 entry: H is real symmetric (a signed
        # graph), so the "directed" information degenerates to a sign
        graph = random_graph(seed)
        h = hermitian_adjacency(graph, np.pi)
        assert np.allclose(h.imag, 0.0, atol=1e-12)

    @given(seed=graph_seeds)
    @settings(max_examples=25, deadline=None)
    def test_quadratic_form_matches_edge_sum(self, seed):
        graph = random_graph(seed)
        lap = hermitian_laplacian(graph, normalization="none")
        rng = np.random.default_rng(seed)
        x = rng.normal(size=10) + 1j * rng.normal(size=10)
        direct = float(np.real(np.vdot(x, lap @ x)))
        theta = np.pi / 2
        total = 0.0
        for edge in graph.edges():
            phase = np.exp(1j * theta) if edge.directed else 1.0
            total += edge.weight * abs(x[edge.u] - phase * x[edge.v]) ** 2
        assert np.isclose(direct, total, rtol=1e-9)


class TestPaddingInvariants:
    @given(seed=graph_seeds)
    @settings(max_examples=20, deadline=None)
    def test_padding_preserves_low_spectrum(self, seed):
        graph = random_mixed_graph(6, 0.5, seed=seed)
        laplacian = hermitian_laplacian(graph)
        padded = pad_laplacian(laplacian)
        original = np.linalg.eigvalsh(laplacian)
        enlarged = np.linalg.eigvalsh(padded)
        # every original eigenvalue survives; extras sit at exactly 2.0
        for value in original:
            assert np.isclose(np.abs(enlarged - value).min(), 0.0, atol=1e-9)

    @given(seed=graph_seeds)
    @settings(max_examples=15, deadline=None)
    def test_backend_distributions_are_distributions(self, seed):
        graph = random_mixed_graph(6, 0.5, seed=seed)
        backend = AnalyticQPEBackend(hermitian_laplacian(graph), 5)
        for node in range(6):
            probs = backend.node_outcome_distribution(node)
            assert np.isclose(probs.sum(), 1.0, atol=1e-9)
            assert probs.min() >= -1e-12

    @given(seed=graph_seeds)
    @settings(max_examples=15, deadline=None)
    def test_acceptance_probability_bounds(self, seed):
        graph = random_mixed_graph(6, 0.5, seed=seed)
        backend = AnalyticQPEBackend(hermitian_laplacian(graph), 5)
        half = np.arange(16)  # lower half of the readout window
        for node in range(6):
            _, probability = backend.project_row(node, half)
            assert -1e-9 <= probability <= 1.0 + 1e-9


class TestQPEKernelProperties:
    @given(
        phase=st.floats(0.0, 0.999),
        precision=st.integers(1, 7),
    )
    @settings(max_examples=50, deadline=None)
    def test_mass_concentrates_near_phase(self, phase, precision):
        probs = qpe_outcome_distribution(phase, precision)
        size = 2**precision
        center = phase * size
        # >= 8/π² of the mass within one bin of the true phase (cyclic)
        indices = np.arange(size)
        distance = np.minimum(np.abs(indices - center), size - np.abs(indices - center))
        near = probs[distance <= 1.0].sum()
        assert near >= 8 / np.pi**2 - 1e-9

    @given(precision=st.integers(1, 8), bin_index=st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_dyadic_phases_are_deterministic(self, precision, bin_index):
        size = 2**precision
        bin_index = bin_index % size
        probs = qpe_outcome_distribution(bin_index / size, precision)
        assert np.isclose(probs[bin_index], 1.0)


class TestGraphContainerProperties:
    @given(seed=graph_seeds, directed=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_degree_sum_equals_twice_total_weight(self, seed, directed):
        graph = random_mixed_graph(8, 0.5, directed_fraction=directed, seed=seed)
        total_weight = sum(e.weight for e in graph.edges())
        assert np.isclose(graph.degrees().sum(), 2.0 * total_weight)
