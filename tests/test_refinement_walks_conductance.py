"""Tests for chiral continuous-time quantum walks on mixed graphs."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs import MixedGraph
from repro.quantum import QuantumWalk, directed_cycle, directional_transport_bias


class TestQuantumWalks:
    def test_walk_preserves_probability(self):
        walk = QuantumWalk(directed_cycle(5))
        profile = walk.probability_profile(0, time=1.7)
        assert np.isclose(profile.sum(), 1.0)

    def test_zero_time_stays_put(self):
        walk = QuantumWalk(directed_cycle(5))
        assert np.isclose(walk.transport_probability(0, 0, 0.0), 1.0)

    def test_chirality_on_three_cycle(self):
        bias = directional_transport_bias(directed_cycle(3), 0, 1, 2, time=1.0)
        assert abs(bias) > 0.1

    def test_no_chirality_when_flux_cancels(self):
        # n·θ = 4·(π/2) = 2π ≡ 0: gauge-equivalent to the undirected cycle
        bias = directional_transport_bias(directed_cycle(4), 0, 1, 3, time=1.0)
        assert abs(bias) < 1e-9

    def test_undirected_graph_is_unbiased(self):
        graph = MixedGraph(5)
        for node in range(5):
            graph.add_edge(node, (node + 1) % 5)
        bias = directional_transport_bias(graph, 0, 1, 4, time=1.3)
        assert abs(bias) < 1e-9

    def test_theta_zero_limit_matches_undirected(self):
        directed = directed_cycle(5)
        undirected = MixedGraph(5)
        for node in range(5):
            undirected.add_edge(node, (node + 1) % 5)
        small_theta = QuantumWalk(directed, theta=1e-6)
        symmetric = QuantumWalk(undirected)
        a = small_theta.probability_profile(0, 1.0)
        b = symmetric.probability_profile(0, 1.0)
        assert np.allclose(a, b, atol=1e-4)

    def test_mixing_profile_shape(self):
        walk = QuantumWalk(directed_cycle(6))
        profile = walk.mixing_profile(0, [0.5, 1.0, 1.5])
        assert profile.shape == (3, 6)
        assert np.allclose(profile.sum(axis=1), 1.0)

    def test_laplacian_driven_walk(self):
        walk = QuantumWalk(directed_cycle(5), use_laplacian=True)
        assert np.isclose(walk.probability_profile(0, 2.0).sum(), 1.0)

    def test_validation(self):
        with pytest.raises(GraphError):
            directed_cycle(2)
        walk = QuantumWalk(directed_cycle(4))
        with pytest.raises(GraphError):
            walk.evolve(np.zeros(4), 1.0)
        with pytest.raises(GraphError):
            walk.transport_probability(0, 9, 1.0)
