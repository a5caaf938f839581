"""Tests for the classical baseline algorithms."""

import numpy as np
import pytest
from matrix_checks import is_psd

from repro.baselines import (
    AdjacencyKMeans,
    DiSimClustering,
    RandomWalkSpectralClustering,
    SymmetrizedSpectralClustering,
    chung_laplacian,
    disim_embedding,
    stationary_distribution,
    stationary_distribution_sparse,
    symmetrized_laplacian,
    transition_matrix,
)
from repro.exceptions import ClusteringError
from repro.graphs import cyclic_flow_sbm, mixed_sbm, random_mixed_graph
from repro.linalg import SparseBackend
from repro.metrics import adjusted_rand_index
from repro.utils.linalg import is_hermitian


class TestSymmetrized:
    def test_recovers_density_clusters(self):
        graph, truth = mixed_sbm(
            60, 2, p_intra=0.5, p_inter=0.02, intra_directed_fraction=0.0, seed=0
        )
        result = SymmetrizedSpectralClustering(2, seed=0).fit(graph)
        assert adjusted_rand_index(truth, result.labels) == 1.0

    def test_blind_to_pure_flow_signal(self):
        graph, truth = cyclic_flow_sbm(
            60, 3, density=0.3, direction_strength=1.0, seed=1
        )
        result = SymmetrizedSpectralClustering(3, seed=0).fit(graph)
        # direction is the only signal; the symmetrized method must fail
        assert adjusted_rand_index(truth, result.labels) < 0.3

    def test_laplacian_is_psd(self):
        graph = random_mixed_graph(12, 0.4, seed=2)
        assert is_psd(symmetrized_laplacian(graph))

    def test_invalid_k(self):
        with pytest.raises(ClusteringError):
            SymmetrizedSpectralClustering(0)


@pytest.mark.parametrize(
    "method", [SymmetrizedSpectralClustering, RandomWalkSpectralClustering]
)
def test_dense_and_sparse_backends_give_the_same_labels(method):
    """Each baseline solves on the backend it built its Laplacian with; the
    sparse ARPACK route finds the partition the dense LAPACK route does."""
    graph, _ = mixed_sbm(60, 2, p_intra=0.5, p_inter=0.02, seed=6)
    dense = method(2, backend="dense", seed=0).fit(graph)
    sparse = method(2, backend=SparseBackend(dense_fallback_dim=8), seed=0).fit(graph)
    assert adjusted_rand_index(dense.labels, sparse.labels) == 1.0


class TestRandomWalk:
    def test_transition_matrix_row_stochastic(self):
        graph = random_mixed_graph(10, 0.3, seed=0)
        walk = transition_matrix(graph)
        assert np.allclose(walk.sum(axis=1), 1.0)
        assert (walk >= 0).all()

    def test_dangling_nodes_get_uniform_row(self):
        from repro.graphs import MixedGraph

        g = MixedGraph(3)
        g.add_arc(0, 1)  # node 2 dangles, node 1 has no out-arc
        walk = transition_matrix(g, teleport=0.1)
        assert np.allclose(walk[2], 1 / 3)

    def test_stationary_distribution_sums_to_one(self):
        graph = random_mixed_graph(10, 0.4, seed=1)
        phi = stationary_distribution(transition_matrix(graph))
        assert np.isclose(phi.sum(), 1.0)
        assert (phi > 0).all()

    def test_stationary_is_fixed_point(self):
        graph = random_mixed_graph(10, 0.4, seed=2)
        walk = transition_matrix(graph)
        phi = stationary_distribution(walk)
        assert np.allclose(phi @ walk, phi, atol=1e-9)

    def test_chung_laplacian_hermitian(self):
        graph = random_mixed_graph(10, 0.4, seed=3)
        assert is_hermitian(chung_laplacian(graph))

    def test_clusters_flow_graph_better_than_chance(self):
        graph, truth = cyclic_flow_sbm(
            60, 3, density=0.3, direction_strength=1.0, seed=4
        )
        result = RandomWalkSpectralClustering(3, seed=0).fit(graph)
        assert adjusted_rand_index(truth, result.labels) > -0.1  # sanity floor

    def test_teleport_validation(self):
        graph = random_mixed_graph(6, 0.5, seed=5)
        with pytest.raises(ClusteringError):
            transition_matrix(graph, teleport=0.0)

    @pytest.mark.parametrize("teleport", [0.05, 0.3, 0.9])
    def test_sparse_stationary_matches_the_dense_walk(self, teleport):
        graph = random_mixed_graph(14, 0.3, seed=6)
        dense = stationary_distribution(transition_matrix(graph, teleport))
        sparse = stationary_distribution_sparse(graph, teleport)
        assert np.isclose(sparse.sum(), 1.0)
        assert np.allclose(sparse, dense, atol=1e-10)

    def test_sparse_stationary_handles_dangling_nodes(self):
        from repro.graphs import MixedGraph

        g = MixedGraph(4)
        g.add_arc(0, 1)
        g.add_arc(1, 2)  # nodes 2 and 3 have no out-arcs
        dense = stationary_distribution(transition_matrix(g, teleport=0.1))
        assert np.allclose(stationary_distribution_sparse(g, 0.1), dense, atol=1e-10)

    @pytest.mark.parametrize("teleport", [0.0, 1.0])
    def test_sparse_stationary_teleport_validation(self, teleport):
        graph = random_mixed_graph(6, 0.5, seed=5)
        with pytest.raises(ClusteringError, match="teleport"):
            stationary_distribution_sparse(graph, teleport)


class TestDiSim:
    def test_embedding_shape(self):
        graph = random_mixed_graph(12, 0.4, seed=0)
        embedding = disim_embedding(graph, 3)
        assert embedding.shape == (12, 6)

    def test_k_validation(self):
        graph = random_mixed_graph(6, 0.5, seed=1)
        with pytest.raises(ClusteringError):
            disim_embedding(graph, 0)
        with pytest.raises(ClusteringError):
            disim_embedding(graph, 7)

    def test_recovers_density_clusters(self):
        graph, truth = mixed_sbm(60, 2, p_intra=0.5, p_inter=0.02, seed=2)
        result = DiSimClustering(2, seed=0).fit(graph)
        assert adjusted_rand_index(truth, result.labels) > 0.8

    def test_method_tag(self):
        graph, _ = mixed_sbm(20, 2, seed=3)
        assert DiSimClustering(2, seed=0).fit(graph).method == "disim"


class TestAdjacencyKMeans:
    def test_runs_and_labels_in_range(self):
        graph, _ = mixed_sbm(30, 3, seed=0)
        result = AdjacencyKMeans(3, seed=0).fit(graph)
        assert set(result.labels) <= {0, 1, 2}

    def test_dense_clusters_recoverable(self):
        graph, truth = mixed_sbm(50, 2, p_intra=0.8, p_inter=0.02, seed=1)
        result = AdjacencyKMeans(2, seed=0).fit(graph)
        assert adjusted_rand_index(truth, result.labels) > 0.5

    def test_invalid_k(self):
        with pytest.raises(ClusteringError):
            AdjacencyKMeans(0)
