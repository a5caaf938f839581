"""A from-scratch Lanczos eigensolver for Hermitian matrices.

``lanczos_lowest_eigenpairs`` runs Lanczos with full reorthogonalization —
the "fast classical alternative" discussed in the papers' related-work
sections, used as an additional baseline in the runtime figure beside
LAPACK (``DenseBackend.lowest_eigenpairs``).  Every other classical
eigensolve goes through a resolved ``repro.linalg`` backend
(``LinalgBackend.lowest_eigenpairs``), the one dispatcher for the
representation of the matrix it built.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConvergenceError
from repro.linalg import DenseBackend
from repro.utils.linalg import is_hermitian
from repro.utils.rng import ensure_rng


def lanczos_lowest_eigenpairs(
    matrix: np.ndarray,
    k: int,
    max_iterations: int | None = None,
    tolerance: float = 1e-8,
    seed=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lanczos iteration with full reorthogonalization.

    Builds the Krylov tridiagonalization T = Q† A Q and Rayleigh–Ritz
    extracts the lowest-k pairs.  Full reorthogonalization keeps the basis
    numerically orthogonal, trading memory for the robustness issues the
    classic three-term recurrence suffers from.

    Parameters
    ----------
    matrix:
        Hermitian n × n matrix.
    k:
        Number of lowest eigenpairs wanted.
    max_iterations:
        Krylov dimension cap (default min(n, max(4k, 40))).
    tolerance:
        Convergence threshold on Ritz-value movement.
    seed:
        Seed for the random start vector.

    Raises
    ------
    ConvergenceError:
        If Ritz values fail to settle within the iteration budget.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if not is_hermitian(matrix, atol=1e-8):
        raise ConvergenceError("lanczos requires a Hermitian matrix")
    n = matrix.shape[0]
    if not 1 <= k <= n:
        raise ConvergenceError(f"k must be in [1, {n}], got {k}")
    if k == n:
        return DenseBackend().lowest_eigenpairs(matrix, k)
    budget = max_iterations or min(n, max(4 * k, 40))
    budget = min(max(budget, k + 2), n)
    rng = ensure_rng(seed)
    start = rng.normal(size=n) + 1j * rng.normal(size=n)
    basis = [start / np.linalg.norm(start)]
    alphas: list[float] = []
    betas: list[float] = []
    previous_ritz: np.ndarray | None = None
    for iteration in range(budget):
        w = matrix @ basis[-1]
        alpha = float(np.real(np.vdot(basis[-1], w)))
        alphas.append(alpha)
        w = w - alpha * basis[-1]
        if len(basis) > 1:
            w = w - betas[-1] * basis[-2]
        # full reorthogonalization against the whole basis
        for vector in basis:
            w = w - np.vdot(vector, w) * vector
        beta = float(np.linalg.norm(w))
        tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz_values = np.linalg.eigvalsh(tridiagonal)
        if len(alphas) >= k:
            current = ritz_values[:k]
            if previous_ritz is not None and np.all(
                np.abs(current - previous_ritz) < tolerance
            ):
                break
            previous_ritz = current
        if beta < 1e-12:
            break  # invariant subspace found — T is exact
        betas.append(beta)
        basis.append(w / beta)
    else:
        if previous_ritz is None:
            raise ConvergenceError("lanczos failed to produce Ritz values")
    tridiagonal = np.diag(alphas) + np.diag(betas[: len(alphas) - 1], 1) + np.diag(
        betas[: len(alphas) - 1], -1
    )
    ritz_values, ritz_vectors = np.linalg.eigh(tridiagonal)
    q = np.column_stack(basis[: len(alphas)])
    vectors = q @ ritz_vectors[:, :k]
    vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)
    return ritz_values[:k], vectors
