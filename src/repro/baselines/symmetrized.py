"""Direction-blind baseline: spectral clustering of the symmetrized graph.

This is textbook Ng–Jordan–Weiss spectral clustering applied to
``graph.symmetrized_adjacency()`` — the method every practitioner reaches
for first, and the baseline the Hermitian approach is designed to beat when
cluster structure lives in arc orientation.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ClusteringError
from repro.graphs.mixed_graph import MixedGraph
from repro.linalg import resolve_backend
from repro.spectral.clustering import ClusteringResult
from repro.spectral.embedding import row_normalize
from repro.spectral.kmeans import kmeans


def symmetrized_laplacian(
    graph: MixedGraph, regularization: float = 1e-12, backend="dense"
):
    """Normalized Laplacian I − D^{−1/2} A_sym D^{−1/2} of the symmetrized graph.

    ``backend`` follows the ``repro.linalg`` contract; the sparse route
    assembles CSR directly from the edge arrays.
    """
    be = resolve_backend(backend, graph.num_nodes)
    adjacency = graph.symmetrized_adjacency(backend=be)
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    scale = 1.0 / np.sqrt(np.maximum(degrees, regularization))
    identity = be.identity(graph.num_nodes, dtype=float)
    return identity - be.scale_columns(be.scale_rows(adjacency, scale), scale)


class SymmetrizedSpectralClustering:
    """Classical spectral clustering that ignores arc directions.

    Parameters
    ----------
    num_clusters:
        Number of clusters k.
    backend:
        ``repro.linalg`` backend spec (``"auto"`` scales to sparse for
        large graphs).
    seed:
        RNG seed for k-means.
    """

    def __init__(
        self,
        num_clusters: int,
        kmeans_restarts: int = 4,
        backend="auto",
        seed=None,
    ):
        if num_clusters < 1:
            raise ClusteringError(f"num_clusters must be >= 1, got {num_clusters}")
        self.num_clusters = num_clusters
        self.kmeans_restarts = kmeans_restarts
        self.backend = backend
        self.seed = seed

    def fit(self, graph: MixedGraph) -> ClusteringResult:
        """Cluster the symmetrized graph."""
        be = resolve_backend(self.backend, graph.num_nodes)
        laplacian = symmetrized_laplacian(graph, backend=be)
        _, vectors = be.lowest_eigenpairs(laplacian, self.num_clusters)
        embedding = row_normalize(vectors.real)
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
            method="symmetrized",
        )
