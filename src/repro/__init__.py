"""Quantum spectral clustering of mixed graphs (DAC 2021 reproduction).

Public API
----------
``repro.api`` is the stable facade external code should target —
``cluster()``, ``run_experiment()`` and ``connect()`` cover the common
workflows and track the versioned service surface:

>>> from repro import api  # doctest: +SKIP
>>> result = api.cluster(graph, 3)  # doctest: +SKIP

The most common building blocks are also re-exported at package level
(deep imports below these are internal and may move between releases):

>>> from repro import MixedGraph, QuantumSpectralClustering, QSCConfig
>>> from repro import ClassicalSpectralClustering, mixed_sbm

Subpackages
-----------
``repro.api``         stable facade: cluster / run_experiment / connect
``repro.quantum``     from-scratch quantum simulator substrate
``repro.graphs``      mixed graphs, Hermitian Laplacians, generators, netlists
``repro.linalg``      pluggable dense/sparse linear-algebra backends
``repro.spectral``    classical eigensolvers, embeddings, k-means
``repro.core``        the quantum pipeline (QPE filtering + q-means)
``repro.pipeline``    staged pipeline core (checkpoints, resume, telemetry)
``repro.baselines``   symmetrized / random-walk / DiSim / naive baselines
``repro.metrics``     ARI, accuracy, cut imbalance, flow ratio
``repro.experiments`` one module per paper table/figure
``repro.store``       shared content-addressed compute store
``repro.service``     the versioned clustering-as-a-service job server
"""

from repro.core import (
    QSCConfig,
    QSCResult,
    QuantumSpectralClustering,
)
from repro.graphs import (
    MixedGraph,
    cyclic_flow_sbm,
    hermitian_adjacency,
    hermitian_laplacian,
    load_c17,
    mixed_sbm,
    parse_bench,
    random_mixed_graph,
    synthetic_netlist,
)
from repro.linalg import (
    DenseBackend,
    SparseBackend,
    resolve_backend,
)
from repro.spectral import (
    ClassicalSpectralClustering,
)
from repro.baselines import (
    AdjacencyKMeans,
    DiSimClustering,
    RandomWalkSpectralClustering,
    SymmetrizedSpectralClustering,
)
from repro.metrics import (
    adjusted_rand_index,
    cut_imbalance,
    flow_ratio,
    matched_accuracy,
)
from repro.pipeline import QSCPipeline

__version__ = "1.0.0"

__all__ = [
    "QSCConfig",
    "QSCPipeline",
    "QSCResult",
    "QuantumSpectralClustering",
    "MixedGraph",
    "cyclic_flow_sbm",
    "hermitian_adjacency",
    "hermitian_laplacian",
    "load_c17",
    "mixed_sbm",
    "parse_bench",
    "random_mixed_graph",
    "synthetic_netlist",
    "DenseBackend",
    "SparseBackend",
    "resolve_backend",
    "ClassicalSpectralClustering",
    "AdjacencyKMeans",
    "DiSimClustering",
    "RandomWalkSpectralClustering",
    "SymmetrizedSpectralClustering",
    "adjusted_rand_index",
    "cut_imbalance",
    "flow_ratio",
    "matched_accuracy",
    "__version__",
]
