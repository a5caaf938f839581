"""Tests for Hermitian adjacency / Laplacian construction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from matrix_checks import is_psd

from repro.exceptions import GraphError
from repro.graphs import (
    MixedGraph,
    hermitian_adjacency,
    hermitian_laplacian,
    laplacian_spectrum,
    random_mixed_graph,
)
from repro.utils.linalg import is_hermitian


def path_with_arc():
    g = MixedGraph(3)
    g.add_edge(0, 1, 2.0)
    g.add_arc(1, 2, 3.0)
    return g


class TestHermitianAdjacency:
    def test_undirected_entries_real(self):
        g = path_with_arc()
        h = hermitian_adjacency(g)
        assert h[0, 1] == 2.0 and h[1, 0] == 2.0

    def test_arc_entries_imaginary_at_default_theta(self):
        h = hermitian_adjacency(path_with_arc())
        assert np.isclose(h[1, 2], 3.0j)
        assert np.isclose(h[2, 1], -3.0j)

    def test_custom_theta_phase(self):
        theta = np.pi / 3
        h = hermitian_adjacency(path_with_arc(), theta=theta)
        assert np.isclose(h[1, 2], 3.0 * np.exp(1j * theta))

    def test_theta_validation(self):
        with pytest.raises(GraphError):
            hermitian_adjacency(path_with_arc(), theta=0.0)
        with pytest.raises(GraphError):
            hermitian_adjacency(path_with_arc(), theta=4.0)

    @given(seed=st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_always_hermitian(self, seed):
        g = random_mixed_graph(10, 0.4, seed=seed)
        assert is_hermitian(hermitian_adjacency(g))

    def test_undirected_only_graph_gives_real_matrix(self):
        g = random_mixed_graph(8, 0.5, directed_fraction=0.0, seed=3)
        h = hermitian_adjacency(g)
        assert np.allclose(h.imag, 0.0)


class TestHermitianLaplacian:
    @given(seed=st.integers(0, 25))
    @settings(max_examples=15, deadline=None)
    def test_unnormalized_is_psd(self, seed):
        g = random_mixed_graph(10, 0.4, seed=seed)
        assert is_psd(hermitian_laplacian(g, normalization="none"))

    @given(seed=st.integers(0, 25))
    @settings(max_examples=15, deadline=None)
    def test_symmetric_spectrum_in_bounds(self, seed):
        g = random_mixed_graph(10, 0.4, seed=seed)
        values, _ = laplacian_spectrum(g, normalization="symmetric")
        assert values.min() >= 0.0 - 1e-9
        assert values.max() <= 2.0 + 1e-9

    def test_quadratic_form_identity(self):
        # x* L x must equal the phase-aware edge sum.
        g = path_with_arc()
        lap = hermitian_laplacian(g, normalization="none")
        rng = np.random.default_rng(0)
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        direct = float(np.real(np.vdot(x, lap @ x)))
        theta = np.pi / 2
        expected = 2.0 * abs(x[0] - x[1]) ** 2 + 3.0 * abs(
            x[1] - np.exp(1j * theta) * x[2]
        ) ** 2
        assert np.isclose(direct, expected)

    def test_undirected_graph_matches_standard_laplacian(self):
        g = random_mixed_graph(8, 0.5, directed_fraction=0.0, seed=4)
        lap = hermitian_laplacian(g, normalization="none")
        standard = np.diag(g.degrees()) - g.symmetrized_adjacency()
        assert np.allclose(lap, standard)

    def test_connected_graph_zero_eigenvalue_only_for_undirected(self):
        # A purely undirected connected graph has eigenvalue exactly 0.
        g = MixedGraph(4)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            g.add_edge(u, v)
        values, _ = laplacian_spectrum(g)
        assert np.isclose(values[0], 0.0, atol=1e-9)

    def test_directed_cycle_lifts_zero_eigenvalue(self):
        # Phase frustration on a directed triangle pushes λ1 above 0.
        g = MixedGraph(3)
        g.add_arc(0, 1)
        g.add_arc(1, 2)
        g.add_arc(2, 0)
        values, _ = laplacian_spectrum(g)
        assert values[0] > 1e-3

    def test_unknown_normalization_rejected(self):
        with pytest.raises(GraphError):
            hermitian_laplacian(path_with_arc(), normalization="bogus")

    def test_randomwalk_spectrum_matches_symmetric(self):
        g = random_mixed_graph(9, 0.5, seed=5)
        sym_values, _ = laplacian_spectrum(g, normalization="symmetric")
        rw_values, _ = laplacian_spectrum(g, normalization="randomwalk")
        assert np.allclose(sym_values, rw_values)

    def test_isolated_node_has_unit_eigenvalue(self):
        g = MixedGraph(3)
        g.add_edge(0, 1)
        lap = hermitian_laplacian(g, normalization="symmetric")
        # node 2 is isolated; its diagonal entry must be exactly 1
        assert np.isclose(lap[2, 2].real, 1.0)
