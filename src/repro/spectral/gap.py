"""Spectral-gap statistics and eigengap model selection.

Spectral clustering needs the cluster count k.  The *eigengap heuristic*
picks the k maximizing λ_{k+1} − λ_k over the low spectrum — large gaps
signal well-separated invariant subspaces.  :func:`estimate_num_clusters`
implements it on exact spectra;
``repro.core.autok.estimate_num_clusters_quantum`` ports the same rule to
sampled QPE histograms, keeping model selection end-to-end quantum.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ClusteringError


def eigengaps(eigenvalues: np.ndarray) -> np.ndarray:
    """Consecutive differences of an ascending eigenvalue array."""
    eigenvalues = np.asarray(eigenvalues, dtype=float).ravel()
    if eigenvalues.size < 2:
        raise ClusteringError("need at least two eigenvalues")
    if np.any(np.diff(eigenvalues) < -1e-9):
        raise ClusteringError("eigenvalues must be ascending")
    return np.diff(eigenvalues)


def relative_eigengap(eigenvalues: np.ndarray, k: int) -> float:
    """γ_k = (λ_{k+1} − λ_k) / λ_{k+1} — scale-free separation at k."""
    eigenvalues = np.asarray(eigenvalues, dtype=float).ravel()
    if not 1 <= k < eigenvalues.size:
        raise ClusteringError(f"k must be in [1, {eigenvalues.size - 1}]")
    upper = eigenvalues[k]
    if upper <= 1e-15:
        return 0.0
    return float((eigenvalues[k] - eigenvalues[k - 1]) / upper)


def estimate_num_clusters(
    eigenvalues: np.ndarray,
    k_min: int = 2,
    k_max: int | None = None,
) -> int:
    """The eigengap heuristic: argmax_k (λ_{k+1} − λ_k) over [k_min, k_max].

    Parameters
    ----------
    eigenvalues:
        Ascending Laplacian spectrum (or its low prefix).
    k_min / k_max:
        Search window; ``k_max`` defaults to ``len(eigenvalues) // 2``
        (a gap at the very top of the supplied prefix is not evidence).
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float).ravel()
    if eigenvalues.size < 3:
        raise ClusteringError("need at least three eigenvalues")
    limit = k_max if k_max is not None else max(eigenvalues.size // 2, k_min)
    limit = min(limit, eigenvalues.size - 1)
    if k_min < 1 or k_min > limit:
        raise ClusteringError(
            f"invalid window [{k_min}, {limit}] for {eigenvalues.size} values"
        )
    gaps = eigengaps(eigenvalues)
    window = gaps[k_min - 1 : limit]
    return int(np.argmax(window)) + k_min
