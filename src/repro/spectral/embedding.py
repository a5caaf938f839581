"""Spectral embeddings of mixed graphs.

The embedding row of node i is its coordinate vector in the span of the k
lowest Laplacian eigenvectors.  For the *Hermitian* Laplacian those
coordinates are complex; clustering algorithms operate on real vectors, so
:func:`complex_to_real_features` maps C^k → R^{2k} by stacking real and
imaginary parts — an isometry, so cluster geometry is preserved.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ClusteringError
from repro.graphs.hermitian import DEFAULT_THETA, hermitian_laplacian
from repro.graphs.mixed_graph import MixedGraph
from repro.linalg import resolve_backend
from repro.utils.linalg import row_blocks


def complex_to_real_features(matrix: np.ndarray) -> np.ndarray:
    """Stack [Re | Im] columns: an isometric map C^{n×k} → R^{n×2k}."""
    matrix = np.asarray(matrix)
    if np.iscomplexobj(matrix):
        return np.hstack([matrix.real, matrix.imag])
    return matrix.astype(float, copy=True)


def row_normalize(matrix: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    """Scale each row to unit norm (Ng–Jordan–Weiss normalization).

    Zero rows are left as zeros rather than divided — they correspond to
    nodes with no projection onto the cluster subspace.  Returns a new
    array in the input's memory layout; the input is not modified.
    """
    normalized = np.array(matrix, dtype=float, copy=True)
    _normalize_rows_in_place(normalized, epsilon)
    return normalized


def normalized_real_features(matrix: np.ndarray) -> np.ndarray:
    """:func:`complex_to_real_features` then :func:`row_normalize`, with
    one allocation of the n × 2k output."""
    features = complex_to_real_features(matrix)
    _normalize_rows_in_place(features)
    return features


def _normalize_rows_in_place(matrix: np.ndarray, epsilon: float = 1e-12) -> None:
    """Row-normalize a 2-D float array in place.

    The row norms are ``np.linalg.norm(matrix, axis=1)`` bit for bit: the
    same square-and-reduce, made one balanced row block at a time
    (:func:`~repro.utils.linalg.row_blocks`), so only a block-sized
    temporary is allocated.
    """
    norms = np.empty((matrix.shape[0], 1))
    for start, stop in row_blocks(matrix.shape[0], matrix.shape[1]):
        block = matrix[start:stop]
        np.add.reduce(block * block, axis=1, keepdims=True, out=norms[start:stop])
    np.sqrt(norms, out=norms)
    keep = norms > epsilon
    np.divide(matrix, np.where(keep, norms, 1.0), out=matrix)
    matrix[~keep[:, 0]] = 0.0


def spectral_embedding(
    graph: MixedGraph,
    num_clusters: int,
    theta: float = DEFAULT_THETA,
    normalization: str = "symmetric",
    normalize_rows: bool = True,
    backend="auto",
) -> np.ndarray:
    """Classical (exact) spectral embedding of a mixed graph.

    Parameters
    ----------
    graph:
        Input mixed graph on n nodes.
    num_clusters:
        Number of eigenvectors kept, k.
    theta:
        Hermitian phase angle for arcs.
    normalization:
        Laplacian normalization (see ``repro.graphs.hermitian``).
    normalize_rows:
        Apply row normalization after the real feature map.
    backend:
        ``repro.linalg`` backend spec.  ``"auto"`` (default) keeps small
        graphs on the exact dense path and switches large ones to sparse
        CSR construction + Lanczos, which is what makes 10k-node graphs
        tractable.

    Returns
    -------
    Real n × 2k feature matrix.
    """
    if num_clusters < 1 or num_clusters > graph.num_nodes:
        raise ClusteringError(
            f"num_clusters must be in [1, {graph.num_nodes}], got {num_clusters}"
        )
    be = resolve_backend(backend, graph.num_nodes)
    laplacian = hermitian_laplacian(graph, theta, normalization, backend=be)
    _, vectors = be.lowest_eigenpairs(laplacian, num_clusters)
    if normalize_rows:
        return normalized_real_features(vectors)
    return complex_to_real_features(vectors)
