"""Chung's directed random-walk Laplacian baseline.

Chung (2005) defines a symmetric Laplacian for *strongly connected*
directed graphs from the stationary distribution Φ of the random walk:

    L = I − (Φ^{1/2} P Φ^{−1/2} + Φ^{−1/2} P^T Φ^{1/2}) / 2.

It uses direction through the walk dynamics (not through complex phases),
making it the strongest classical directed competitor in the comparison
tables.  Dangling nodes and weak connectivity are handled with the standard
teleportation trick (PageRank-style restart).

The teleported walk matrix is dense by construction (the restart adds a
rank-one uniform term to every row), so the sparse route keeps the walk
*implicit*: the stationary distribution comes from a matvec-only power
iteration (:func:`stationary_distribution_sparse`, exact), and the
Laplacian assembled for the eigensolve keeps only the sparse (1−α)·D⁻¹A
part of the walk.  Two dense contributions are dropped there: the
rank-one teleport smoothing (an O(α) spectral perturbation) and the
uniform jump rows of *dangling* nodes (an O(1) perturbation per dangling
row — significant on dangling-heavy graphs such as netlists with output
sinks).  Because the sparse Laplacian is therefore an approximation, the
estimator defaults to the exact dense route; pass ``backend="sparse"``
(or ``"auto"``) explicitly to trade exactness for scalability.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ClusteringError
from repro.graphs.mixed_graph import MixedGraph
from repro.linalg import resolve_backend
from repro.spectral.clustering import ClusteringResult
from repro.spectral.embedding import row_normalize
from repro.spectral.kmeans import kmeans


def transition_matrix(graph: MixedGraph, teleport: float = 0.05) -> np.ndarray:
    """Row-stochastic walk matrix with teleportation ``teleport``."""
    if not 0.0 < teleport < 1.0:
        raise ClusteringError(f"teleport must be in (0, 1), got {teleport}")
    adjacency = graph.directed_adjacency()
    n = graph.num_nodes
    out_weight = adjacency.sum(axis=1)
    walk = np.empty((n, n))
    uniform = np.full(n, 1.0 / n)
    for i in range(n):
        if out_weight[i] > 0:
            walk[i] = adjacency[i] / out_weight[i]
        else:
            walk[i] = uniform
    return (1.0 - teleport) * walk + teleport * uniform[None, :]


def stationary_distribution(
    walk: np.ndarray, tolerance: float = 1e-12, max_iterations: int = 10000
) -> np.ndarray:
    """Left Perron vector of a row-stochastic matrix by power iteration."""
    n = walk.shape[0]
    phi = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        updated = phi @ walk
        if np.abs(updated - phi).max() < tolerance:
            return updated / updated.sum()
        phi = updated
    return phi / phi.sum()


def _sparse_walk_part(graph: MixedGraph):
    """Row-normalized sparse walk D⁻¹A (CSR) and the dangling-row mask."""
    adjacency = graph.directed_adjacency(backend="sparse")
    out_weight = np.asarray(adjacency.sum(axis=1)).ravel()
    dangling = out_weight <= 0.0
    inverse = np.where(dangling, 0.0, 1.0 / np.maximum(out_weight, 1e-300))
    backend = resolve_backend("sparse")
    return backend.scale_rows(adjacency, inverse), dangling


def stationary_distribution_sparse(
    graph: MixedGraph,
    teleport: float = 0.05,
    tolerance: float = 1e-12,
    max_iterations: int = 10000,
    walk_parts=None,
) -> np.ndarray:
    """Stationary distribution of the teleported walk via implicit matvecs.

    Mathematically identical to ``stationary_distribution(
    transition_matrix(graph, teleport))`` — the rank-one teleport and the
    dangling-row uniform jumps are applied as scalar corrections instead
    of dense matrix entries, so memory stays O(edges).

    ``walk_parts`` optionally supplies a precomputed ``(walk, dangling)``
    pair from :func:`_sparse_walk_part` so callers that already built the
    CSR walk (e.g. :func:`chung_laplacian`) don't assemble it twice.
    """
    if not 0.0 < teleport < 1.0:
        raise ClusteringError(f"teleport must be in (0, 1), got {teleport}")
    walk_part, dangling = walk_parts or _sparse_walk_part(graph)
    n = graph.num_nodes
    phi = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        spread = (1.0 - teleport) * float(phi[dangling].sum()) + teleport
        updated = (1.0 - teleport) * (phi @ walk_part) + spread / n
        if np.abs(updated - phi).max() < tolerance:
            return updated / updated.sum()
        phi = updated
    return phi / phi.sum()


def chung_laplacian(graph: MixedGraph, teleport: float = 0.05, backend="dense"):
    """Chung's symmetric directed Laplacian with teleportation.

    The dense route reproduces the definition exactly.  The sparse route
    (``backend="sparse"``/large-``"auto"``) uses the exact stationary
    distribution but symmetrizes only the sparse (1−α)·D⁻¹A part of the
    walk, dropping the rank-one teleport smoothing *and* the dangling-row
    uniform jumps to preserve sparsity — see the module docstring for the
    error characterization.
    """
    be = resolve_backend(backend, graph.num_nodes)
    if be.name != "sparse":
        walk = transition_matrix(graph, teleport)
        phi = stationary_distribution(walk)
        sqrt_phi = np.sqrt(np.maximum(phi, 1e-15))
        scaled = (sqrt_phi[:, None] * walk) / sqrt_phi[None, :]
        symmetric = (scaled + scaled.T) / 2.0
        return np.eye(graph.num_nodes) - symmetric
    walk_part, dangling = _sparse_walk_part(graph)
    phi = stationary_distribution_sparse(
        graph, teleport, walk_parts=(walk_part, dangling)
    )
    sqrt_phi = np.sqrt(np.maximum(phi, 1e-15))
    scaled = be.scale_columns(be.scale_rows(walk_part, sqrt_phi), 1.0 / sqrt_phi)
    symmetric = (1.0 - teleport) * (scaled + scaled.T) / 2.0
    return be.identity(graph.num_nodes, dtype=float) - symmetric


class RandomWalkSpectralClustering:
    """Spectral clustering on Chung's directed Laplacian.

    Parameters
    ----------
    num_clusters:
        Number of clusters k.
    teleport:
        Restart probability regularizing reducible walks.
    backend:
        ``repro.linalg`` backend spec.  Defaults to ``"dense"`` (the
        exact Chung Laplacian); ``"sparse"``/``"auto"`` opt in to the
        approximate sparsity-preserving route described in the module
        docstring.
    seed:
        RNG seed for k-means.
    """

    def __init__(
        self,
        num_clusters: int,
        teleport: float = 0.05,
        kmeans_restarts: int = 4,
        backend="dense",
        seed=None,
    ):
        if num_clusters < 1:
            raise ClusteringError(f"num_clusters must be >= 1, got {num_clusters}")
        self.num_clusters = num_clusters
        self.teleport = teleport
        self.kmeans_restarts = kmeans_restarts
        self.backend = backend
        self.seed = seed

    def fit(self, graph: MixedGraph) -> ClusteringResult:
        """Cluster using the walk-based directed Laplacian."""
        be = resolve_backend(self.backend, graph.num_nodes)
        laplacian = chung_laplacian(graph, self.teleport, backend=be)
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
            method="random-walk",
        )
