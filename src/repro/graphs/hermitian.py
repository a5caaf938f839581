"""Hermitian adjacency and Laplacian matrices of a mixed graph.

The Hermitian adjacency matrix (Liu–Li 2015, Guo–Mohar 2017) encodes an
undirected edge {u,v} of weight w as H[u,v] = H[v,u] = w and an arc (u,v)
as H[u,v] = w·e^{+iθ}, H[v,u] = w·e^{−iθ}.  With θ = π/2 (the classical
``i / −i`` convention) an arc contributes a purely imaginary entry.

The Hermitian Laplacian L = D − H has quadratic form

    x* L x = Σ_{{u,v}∈E} w |x_u − x_v|²  +  Σ_{(u,v)∈A} w |x_u − e^{iθ} x_v|²

so it is Hermitian positive-semidefinite; its low eigenvectors separate
clusters whose internal connectivity is *phase-consistent* — exactly the
structure the DAC paper clusters on, and a valid quantum Hamiltonian.

Three normalizations are provided:

``"none"``       L = D − H
``"symmetric"``  𝓛 = I − D^{−1/2} H D^{−1/2}   (eigenvalues in [0, 2])
``"randomwalk"`` 𝓛 = I − D^{−1} H              (similar to symmetric)

Both constructors take a ``backend`` argument following the
``repro.linalg`` contract: ``"dense"`` (default) returns plain complex
ndarrays exactly as before, ``"sparse"`` returns ``scipy.sparse`` CSR
matrices assembled straight from COO edge triplets (never materializing
the n × n array), and ``"auto"`` picks by graph size.  Construction is
vectorized over the edge arrays in every case.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.mixed_graph import MixedGraph
from repro.linalg import resolve_backend

NORMALIZATIONS = ("none", "symmetric", "randomwalk")
DEFAULT_THETA = np.pi / 2


def hermitian_adjacency(
    graph: MixedGraph, theta: float = DEFAULT_THETA, backend="dense"
):
    """The Hermitian adjacency matrix H(θ) of a mixed graph.

    Parameters
    ----------
    graph:
        Input mixed graph on n nodes.
    theta:
        Phase angle assigned to arcs, in (0, π].  θ = π/2 is the standard
        convention; smaller θ damps the directional signal (experiment A2).
    backend:
        Linear-algebra backend spec (``"dense"``, ``"sparse"``, ``"auto"``,
        or a ``repro.linalg`` backend instance).

    Returns
    -------
    Complex Hermitian n × n matrix in the backend's representation.
    """
    if not 0 < theta <= np.pi:
        raise GraphError(f"theta must lie in (0, pi], got {theta}")
    n = graph.num_nodes
    be = resolve_backend(backend, n)
    u, v, w, directed = graph.edge_arrays()
    phase = np.where(directed, np.exp(1j * theta), 1.0)
    values = w * phase
    return be.from_coo(
        np.concatenate([u, v]),
        np.concatenate([v, u]),
        np.concatenate([values, np.conj(values)]),
        (n, n),
        dtype=complex,
    )


def hermitian_laplacian(
    graph: MixedGraph,
    theta: float = DEFAULT_THETA,
    normalization: str = "symmetric",
    regularization: float = 1e-12,
    backend="dense",
):
    """The (normalized) Hermitian Laplacian of a mixed graph.

    Parameters
    ----------
    graph:
        Input mixed graph.
    theta:
        Arc phase angle, forwarded to :func:`hermitian_adjacency`.
    normalization:
        One of ``"none"``, ``"symmetric"``, ``"randomwalk"``.
    regularization:
        Isolated nodes have zero degree; their inverse-degree entries are
        computed against ``max(degree, regularization)`` so the matrix stays
        finite (an isolated node then sits at Laplacian eigenvalue 1, i.e.
        mid-spectrum, and never pollutes the cluster subspace).
    backend:
        Linear-algebra backend spec (``"dense"``, ``"sparse"``, ``"auto"``,
        or a ``repro.linalg`` backend instance).

    Returns
    -------
    Complex n × n matrix; Hermitian for ``"none"`` and ``"symmetric"``.
    """
    if normalization not in NORMALIZATIONS:
        raise GraphError(
            f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}"
        )
    be = resolve_backend(backend, graph.num_nodes)
    h = hermitian_adjacency(graph, theta, backend=be)
    degrees = graph.degrees()
    if normalization == "none":
        return be.diagonal_matrix(degrees.astype(complex)) - h
    safe = np.maximum(degrees, regularization)
    identity = be.identity(graph.num_nodes, dtype=complex)
    if normalization == "symmetric":
        scale = 1.0 / np.sqrt(safe)
        return identity - be.scale_columns(be.scale_rows(h, scale), scale)
    return identity - be.scale_rows(h, 1.0 / safe)


def laplacian_spectrum(
    graph: MixedGraph,
    theta: float = DEFAULT_THETA,
    normalization: str = "symmetric",
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the Hermitian Laplacian.

    The random-walk Laplacian is not Hermitian, but it shares its spectrum
    with the symmetric one; for ``"randomwalk"`` the symmetric spectrum is
    returned with eigenvectors rescaled by D^{−1/2}.
    """
    if normalization == "randomwalk":
        sym = hermitian_laplacian(graph, theta, "symmetric")
        values, vectors = np.linalg.eigh(sym)
        scale = 1.0 / np.sqrt(np.maximum(graph.degrees(), 1e-12))
        vectors = scale[:, None] * vectors
        vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)
        return values, vectors
    lap = hermitian_laplacian(graph, theta, normalization)
    return np.linalg.eigh(lap)
