"""Classical spectral clustering of mixed graphs (the exact comparator).

:class:`ClassicalSpectralClustering` is the O(n³) pipeline the quantum
algorithm is benchmarked against: exact Hermitian-Laplacian
eigendecomposition, complex→real feature map, exact k-means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ClusteringError
from repro.graphs.hermitian import DEFAULT_THETA
from repro.graphs.mixed_graph import MixedGraph
from repro.spectral.embedding import spectral_embedding
from repro.spectral.kmeans import KMeansResult, kmeans


@dataclass(frozen=True)
class ClusteringResult:
    """Labels plus the artifacts needed by metrics and experiments.

    Attributes
    ----------
    labels:
        Cluster index per node.
    embedding:
        The real feature matrix that was clustered.
    kmeans:
        The underlying k-means result (centroids, inertia ...).
    method:
        Human-readable method tag for experiment tables.
    """

    labels: np.ndarray
    embedding: np.ndarray
    kmeans: KMeansResult
    method: str


class ClassicalSpectralClustering:
    """Exact Hermitian spectral clustering.

    Parameters
    ----------
    num_clusters:
        Number of clusters k.
    theta:
        Hermitian phase angle for arcs (π/2 = standard convention).
    normalization:
        Laplacian normalization.
    normalize_rows:
        Row-normalize the embedding before k-means.
    backend:
        ``repro.linalg`` backend spec (``"auto"``, ``"dense"``,
        ``"sparse"``, or an instance).  ``"auto"`` selects sparse CSR +
        Lanczos for large graphs, dense LAPACK otherwise.
    seed:
        RNG seed for k-means.

    Examples
    --------
    >>> from repro.graphs import mixed_sbm
    >>> graph, truth = mixed_sbm(60, 2, seed=0)
    >>> result = ClassicalSpectralClustering(2, seed=0).fit(graph)
    >>> len(result.labels) == graph.num_nodes
    True
    """

    def __init__(
        self,
        num_clusters: int,
        theta: float = DEFAULT_THETA,
        normalization: str = "symmetric",
        normalize_rows: bool = True,
        kmeans_restarts: int = 4,
        backend="auto",
        seed=None,
    ):
        if num_clusters < 1:
            raise ClusteringError(f"num_clusters must be >= 1, got {num_clusters}")
        self.num_clusters = num_clusters
        self.theta = theta
        self.normalization = normalization
        self.normalize_rows = normalize_rows
        self.kmeans_restarts = kmeans_restarts
        self.backend = backend
        self.seed = seed

    def fit(self, graph: MixedGraph) -> ClusteringResult:
        """Cluster ``graph`` and return labels plus artifacts."""
        if self.num_clusters > graph.num_nodes:
            raise ClusteringError(
                f"cannot form {self.num_clusters} clusters from "
                f"{graph.num_nodes} nodes"
            )
        embedding = spectral_embedding(
            graph,
            self.num_clusters,
            theta=self.theta,
            normalization=self.normalization,
            normalize_rows=self.normalize_rows,
            backend=self.backend,
        )
        km = kmeans(
            embedding,
            self.num_clusters,
            num_restarts=self.kmeans_restarts,
            seed=self.seed,
        )
        return ClusteringResult(
            labels=km.labels,
            embedding=embedding,
            kmeans=km,
            method="classical-hermitian",
        )
