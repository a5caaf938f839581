"""Model selection: choosing the cluster count k from quantum data alone.

Classical spectral clustering picks k with the eigengap heuristic on the
exact spectrum.  The quantum pipeline never sees the exact spectrum — only
sampled, quantized QPE readouts.  This example shows the histogram-native
eigengap rule (``repro.core.autok``) recovering k for several ground
truths, then runs the full pipeline with the selected k.

Run:  python examples/model_selection.py
"""

import numpy as np

from repro import (
    QSCConfig,
    QuantumSpectralClustering,
    adjusted_rand_index,
    mixed_sbm,
)
from repro.core import estimate_num_clusters_quantum
from repro.core.qpe_engine import AnalyticQPEBackend
from repro.graphs import ensure_connected, hermitian_laplacian


def quantum_auto_k():
    print("=== histogram-only selection of k ===")
    precision = 7
    for k_true in (2, 3, 4):
        graph, truth = mixed_sbm(40, k_true, p_intra=0.7, p_inter=0.02, seed=k_true)
        ensure_connected(graph, seed=k_true)
        backend = AnalyticQPEBackend(hermitian_laplacian(graph), precision)
        histogram = backend.eigenvalue_histogram(16384, np.random.default_rng(k_true))
        selection = estimate_num_clusters_quantum(
            histogram, graph.num_nodes, precision, backend.lambda_scale
        )
        config = QSCConfig(precision_bits=precision, shots=1024, seed=k_true)
        result = QuantumSpectralClustering(selection.num_clusters, config).fit(graph)
        ari = adjusted_rand_index(truth, result.labels)
        print(
            f"true k = {k_true}: selected k = {selection.num_clusters}, "
            f"end-to-end ARI = {ari:.3f}"
        )


if __name__ == "__main__":
    quantum_auto_k()
