"""Cross-module integration tests: invariants that span subsystems.

These tests pin the relationships the architecture relies on — e.g. that
the quantum projector rows really are the isometric image of the classical
spectral embedding, that every front end (dense, Lanczos, QPE) lands in
the same low subspace, and that netlists flow through the hypergraph
expansion into a partition.
"""

import numpy as np
import pytest

from repro import (
    ClassicalSpectralClustering,
    QSCConfig,
    QuantumSpectralClustering,
    adjusted_rand_index,
    mixed_sbm,
)
from repro.core.qpe_engine import AnalyticQPEBackend
from repro.graphs import (
    Hypergraph,
    ensure_connected,
    hermitian_laplacian,
    load_c17,
    load_s27,
    synthetic_netlist,
)
from repro.linalg import DenseBackend
from repro.metrics import partition_summary
from repro.spectral import lanczos_lowest_eigenpairs


def subspace_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest principal-angle cosine between two column subspaces."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return float(np.linalg.svd(qa.conj().T @ qb, compute_uv=False).min())


@pytest.fixture(scope="module")
def strong_graph():
    graph, truth = mixed_sbm(16, 2, p_intra=0.8, p_inter=0.05, seed=0)
    ensure_connected(graph, seed=0)
    return graph, truth


class TestFrontEndAgreement:
    def test_all_eigensolvers_find_the_same_subspace(self, strong_graph):
        graph, _ = strong_graph
        laplacian = hermitian_laplacian(graph)
        _, dense = DenseBackend().lowest_eigenpairs(laplacian, 2)
        _, lanczos = lanczos_lowest_eigenpairs(laplacian, 2, seed=0)
        assert subspace_fidelity(dense, lanczos) > 0.999

    def test_qpe_filter_matches_exact_projector(self, strong_graph):
        graph, _ = strong_graph
        laplacian = hermitian_laplacian(graph)
        values, vectors = DenseBackend().lowest_eigenpairs(laplacian, 2)
        projector = vectors @ vectors.conj().T
        backend = AnalyticQPEBackend(laplacian, 8)
        threshold = (values[1] + np.linalg.eigvalsh(laplacian)[2]) / 2
        accepted = np.flatnonzero(
            np.arange(2**8) / 2**8 * backend.lambda_scale <= threshold
        )
        for node in range(0, 16, 4):
            row, probability = backend.project_row(node, accepted)
            exact_row = projector[:, node]
            exact_norm = np.linalg.norm(exact_row)
            if exact_norm < 1e-9:
                continue
            overlap = abs(np.vdot(row[:16], exact_row / exact_norm))
            assert overlap > 0.95
            assert abs(probability - exact_norm**2) < 0.05


class TestQuantumClassicalEquivalence:
    def test_noiseless_quantum_equals_classical(self, strong_graph):
        graph, truth = strong_graph
        config = QSCConfig(precision_bits=8, shots=0, qmeans_delta=0.0, seed=3)
        quantum = QuantumSpectralClustering(2, config).fit(graph)
        classical = ClassicalSpectralClustering(2, seed=3).fit(graph)
        assert adjusted_rand_index(quantum.labels, classical.labels) == 1.0
        assert adjusted_rand_index(truth, quantum.labels) == 1.0


class TestNetlistChain:
    def test_netlist_to_hypergraph_to_partition(self):
        netlist = synthetic_netlist(2, 12, internal_fanin=3, seed=0)
        hypergraph = Hypergraph.from_netlist(netlist)
        graph = hypergraph.to_mixed_graph("clique")
        ensure_connected(graph, seed=0)
        config = QSCConfig(precision_bits=7, shots=1024, theta=float(np.pi / 4), seed=1)
        result = QuantumSpectralClustering(2, config).fit(graph)
        truth = netlist.module_labels()
        summary = partition_summary(graph, result.labels)
        assert summary["cut_weight"] >= 0
        assert adjusted_rand_index(truth, result.labels) > 0.3

    def test_both_embedded_benchmarks_cluster(self):
        for loader in (load_c17, load_s27):
            graph = loader().to_mixed_graph(net_cliques=True)
            ensure_connected(graph, seed=0)
            config = QSCConfig(precision_bits=6, shots=2048, seed=0)
            result = QuantumSpectralClustering(2, config).fit(graph)
            assert set(result.labels) == {0, 1}
