"""Pluggable linear-algebra backends: dense ``numpy`` vs ``scipy.sparse``.

The backend contract
--------------------
Every matrix-producing function in the graphs layer and every
matrix-consuming solver in the spectral layer goes through a
:class:`LinalgBackend`.  A backend owns exactly four responsibilities:

1. **Construction** — :meth:`~LinalgBackend.from_coo` assembles a matrix
   from COO triplets (duplicate entries sum, matching ``np.add.at``
   semantics), and :meth:`~LinalgBackend.identity` /
   :meth:`~LinalgBackend.diagonal_matrix` build the structured factors the
   Laplacian normalizations need.
2. **Scaling** — :meth:`~LinalgBackend.scale_rows` and
   :meth:`~LinalgBackend.scale_columns` apply diagonal conjugations
   (D^{-1/2} H D^{-1/2} and friends) without densifying.
3. **Solving** — :meth:`~LinalgBackend.lowest_eigenpairs` returns the k
   lowest eigenpairs of a Hermitian matrix.  The dense backend calls
   LAPACK ``eigh``; the sparse backend runs ARPACK Lanczos (``eigsh``)
   with a deterministic start vector and falls back to a dense solve for
   small n or near-full k, where Lanczos is either invalid (ARPACK
   requires k < n) or slower than LAPACK.
4. **Interop** — the module-level :func:`to_dense_array` adapter
   densifies either representation, so any consumer can accept both
   through one call.

Backends are selected by name: ``"dense"``, ``"sparse"`` or ``"auto"``
(:func:`resolve_backend`).  ``auto`` picks by problem size in three
bands: dense below :data:`SPARSE_AUTO_THRESHOLD` nodes, the sparse
backend's preconditioned LOBPCG route in the *midrange* band up to
:data:`LOBPCG_AUTO_CEILING` (where ARPACK's Lanczos struggles on
ill-conditioned graphs), and ARPACK ``eigsh`` above it.  The
``--backend`` CLI flag and ``QSCConfig.linalg_backend`` expose the same
names.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as _sparse
import scipy.sparse.linalg as _sparse_linalg

from repro.exceptions import ConvergenceError, ReproError
from repro.utils.linalg import is_hermitian

BACKEND_NAMES = ("auto", "dense", "sparse")

# "auto" switches off the dense backend at this node count: below it a
# dense eigh on the full matrix is faster than assembling CSR + iterating.
SPARSE_AUTO_THRESHOLD = 256

# Upper edge of the "auto" midrange band: from SPARSE_AUTO_THRESHOLD up to
# (excluding) this node count the sparse backend solves with preconditioned
# LOBPCG — the standard fix for ill-conditioned graphs where ARPACK's
# shiftless Lanczos needs many restarts — and from here up with eigsh,
# whose convergence per iteration wins once the spectrum is large and the
# matrix is truly sparse.
LOBPCG_AUTO_CEILING = 4096

# The sparse solver falls back to a dense eigh below this dimension (ARPACK
# start-up costs dominate) and whenever k is too close to n for Lanczos.
DENSE_FALLBACK_DIM = 64

# SciPy's lobpcg *warns* instead of raising on non-convergence, so the
# sparse backend verifies residual norms itself and falls back to eigsh
# when they exceed this relative bound.
LOBPCG_RESIDUAL_RTOL = 1e-6

# Relative accuracy passed to eigsh (0 = machine precision).
EIGSH_TOLERANCE = 0.0


class BackendError(ReproError):
    """A linear-algebra backend was misconfigured or is unavailable."""


def is_sparse_matrix(matrix) -> bool:
    """True when ``matrix`` is any ``scipy.sparse`` container."""
    return _sparse.issparse(matrix)


def to_dense_array(matrix, dtype=None, copy: bool = False) -> np.ndarray:
    """Densify ``matrix``.

    Parameters
    ----------
    matrix:
        Dense ndarray, ``scipy.sparse`` matrix, or anything
        ``np.asarray`` accepts.
    dtype:
        Target dtype (converted only when it differs).
    copy:
        * ``False`` (default) — the read-only fast path: the result may
          *alias* ``matrix`` (it does whenever the input is already a
          dense array of the right dtype), so the caller must not write
          to it.  This is the right mode for consumers that only read —
          eigensolves, spectral decompositions, fingerprinting.
        * ``True`` — always return a fresh array the caller owns and may
          mutate freely.
    """
    if is_sparse_matrix(matrix):
        dense = matrix.toarray()  # toarray always allocates: a fresh copy
        fresh = True
    else:
        dense = np.asarray(matrix)
        fresh = False
    if dtype is not None and dense.dtype != np.dtype(dtype):
        dense = dense.astype(dtype)
        fresh = True
    if copy and not fresh:
        dense = dense.copy()
    return dense


def _require_hermitian_dense(matrix: np.ndarray) -> None:
    """Raise ConvergenceError unless ``matrix`` is (numerically) Hermitian.

    ``eigh`` silently reads one triangle of a non-Hermitian input and
    returns plausible-looking garbage; both backends guard against that.
    """
    if not is_hermitian(matrix, atol=1e-8):
        raise ConvergenceError("lowest_eigenpairs requires a Hermitian matrix")


class LinalgBackend:
    """Shared behaviour of the dense and sparse backends (the contract)."""

    name = "abstract"

    def from_coo(self, rows, cols, values, shape, dtype=complex):
        """Assemble a matrix from COO triplets; duplicates sum."""
        raise NotImplementedError

    def identity(self, n: int, dtype=complex):
        """The n × n identity in the backend's native representation."""
        raise NotImplementedError

    def diagonal_matrix(self, values):
        """diag(values) in the backend's native representation."""
        raise NotImplementedError

    def scale_rows(self, matrix, scale):
        """diag(scale) @ matrix without materializing the diagonal."""
        raise NotImplementedError

    def scale_columns(self, matrix, scale):
        """matrix @ diag(scale) without materializing the diagonal."""
        raise NotImplementedError

    def lowest_eigenpairs(self, matrix, k: int):
        """The k lowest eigenpairs of a Hermitian backend matrix."""
        raise NotImplementedError


class DenseBackend(LinalgBackend):
    """Plain ``numpy`` arrays + LAPACK — exact, O(n²) memory, O(n³) solve."""

    name = "dense"

    def from_coo(self, rows, cols, values, shape, dtype=complex):
        matrix = np.zeros(shape, dtype=dtype)
        np.add.at(matrix, (np.asarray(rows), np.asarray(cols)), values)
        return matrix

    def identity(self, n: int, dtype=complex):
        return np.eye(n, dtype=dtype)

    def diagonal_matrix(self, values):
        return np.diag(np.asarray(values))

    def scale_rows(self, matrix, scale):
        return np.asarray(scale)[:, None] * matrix

    def scale_columns(self, matrix, scale):
        return matrix * np.asarray(scale)[None, :]

    def lowest_eigenpairs(self, matrix, k: int):
        # eigh only reads its input, so the no-copy fast path is safe
        matrix = to_dense_array(matrix, copy=False)
        n = matrix.shape[0]
        if not 1 <= k <= n:
            raise ConvergenceError(f"k must be in [1, {n}], got {k}")
        _require_hermitian_dense(matrix)
        values, vectors = np.linalg.eigh(matrix)
        return values[:k], vectors[:, :k]


class SparseBackend(LinalgBackend):
    """CSR matrices + iterative eigensolvers — O(nnz) memory.

    Parameters
    ----------
    dense_fallback_dim:
        Below this dimension :meth:`lowest_eigenpairs` densifies and calls
        LAPACK instead of an iterative solver (also used whenever
        ``k >= n - 1``, which ARPACK cannot handle).
    solver:
        ``"eigsh"`` (ARPACK Lanczos, the classic route) or ``"lobpcg"``
        (block LOBPCG with a deterministic start block and a
        degree/Jacobi preconditioner — the midrange route ``auto``
        selects between :data:`SPARSE_AUTO_THRESHOLD` and
        :data:`LOBPCG_AUTO_CEILING` nodes).  LOBPCG results are verified
        by residual norm; non-convergence falls back to ``eigsh``
        automatically, so the route can only change speed, not
        correctness.
    lobpcg_tolerance / lobpcg_maxiter:
        LOBPCG stopping controls (residual tolerance and iteration cap).

    Attributes
    ----------
    last_route:
        The solver route the most recent :meth:`lowest_eigenpairs` call
        actually took: ``"dense"``, ``"eigsh"``, ``"lobpcg"`` or
        ``"lobpcg->eigsh"`` (requested LOBPCG, fell back).  Telemetry
        reads this; ``None`` before the first solve.
    """

    name = "sparse"

    def __init__(
        self,
        dense_fallback_dim: int = DENSE_FALLBACK_DIM,
        solver: str = "eigsh",
        lobpcg_tolerance: float = 1e-8,
        lobpcg_maxiter: int = 500,
    ):
        if solver not in ("eigsh", "lobpcg"):
            raise BackendError(
                f"unknown sparse solver {solver!r}; expected 'eigsh' or 'lobpcg'"
            )
        self.dense_fallback_dim = int(dense_fallback_dim)
        self.solver = solver
        self.lobpcg_tolerance = float(lobpcg_tolerance)
        self.lobpcg_maxiter = int(lobpcg_maxiter)
        self.last_route: str | None = None

    def from_coo(self, rows, cols, values, shape, dtype=complex):
        matrix = _sparse.coo_matrix(
            (np.asarray(values, dtype=dtype), (np.asarray(rows), np.asarray(cols))),
            shape=shape,
        )
        csr = matrix.tocsr()  # sums duplicate entries
        csr.sum_duplicates()
        return csr

    def identity(self, n: int, dtype=complex):
        return _sparse.identity(n, dtype=dtype, format="csr")

    def diagonal_matrix(self, values):
        return _sparse.diags(np.asarray(values)).tocsr()

    def scale_rows(self, matrix, scale):
        return (_sparse.diags(np.asarray(scale)) @ matrix).tocsr()

    def scale_columns(self, matrix, scale):
        return (matrix @ _sparse.diags(np.asarray(scale))).tocsr()

    def lowest_eigenpairs(self, matrix, k: int):
        n = matrix.shape[0]
        if not 1 <= k <= n:
            raise ConvergenceError(f"k must be in [1, {n}], got {k}")
        if n <= self.dense_fallback_dim or k >= n - 1:
            # ARPACK needs k < n and is slower than LAPACK at small n.
            dense = to_dense_array(matrix, complex, copy=False)
            _require_hermitian_dense(dense)
            values, vectors = np.linalg.eigh(dense)
            self.last_route = "dense"
            return values[:k], vectors[:, :k]
        csr = _sparse.csr_matrix(matrix)
        # O(nnz) hermiticity guard — eigh/eigsh silently use one triangle
        # of a non-Hermitian input and return plausible-looking garbage.
        asymmetry = abs(csr - csr.getH())
        if asymmetry.nnz and asymmetry.max() > 1e-8:
            raise ConvergenceError("lowest_eigenpairs requires a Hermitian matrix")
        route = "eigsh"
        if self.solver == "lobpcg":
            solved = self._lobpcg_eigenpairs(csr, k, n)
            if solved is not None:
                self.last_route = "lobpcg"
                return solved
            route = "lobpcg->eigsh"
        # Deterministic start vector: eigsh defaults to a random one, which
        # would make cluster labels run-to-run nondeterministic.
        v0 = np.random.default_rng(0).normal(size=n)
        try:
            values, vectors = _sparse_linalg.eigsh(
                csr, k=k, which="SA", v0=v0, tol=EIGSH_TOLERANCE
            )
        except _sparse_linalg.ArpackNoConvergence as error:
            raise ConvergenceError(
                f"sparse eigensolver failed to converge for n={n}, k={k}: "
                f"{error}"
            ) from error
        order = np.argsort(values)
        self.last_route = route
        return values[order], vectors[:, order]

    def _lobpcg_eigenpairs(self, csr, k: int, n: int):
        """Preconditioned LOBPCG solve, or ``None`` when it cannot be
        trusted (unavailable, ill-posed block size, or residuals above
        :data:`LOBPCG_RESIDUAL_RTOL`) — the caller then runs eigsh.

        Determinism matches the eigsh route's contract: the start block
        comes from ``default_rng(0)``, so repeated solves of the same
        matrix return bit-identical eigenpairs.  The preconditioner is
        the Jacobi/degree inverse-diagonal — for Laplacian-like matrices
        the diagonal carries the degree spread that makes the problem
        ill-conditioned, which is exactly the midrange failure mode this
        route exists for.
        """
        if 5 * k >= n:
            # LOBPCG's Rayleigh–Ritz block needs headroom (rule of thumb
            # 5k < n) or its internal orthogonalisation degrades.
            return None
        rng = np.random.default_rng(0)
        block = rng.normal(size=(n, k))
        if np.iscomplexobj(csr):
            block = block + 1j * rng.normal(size=(n, k))
        diagonal = csr.diagonal().real
        preconditioner = None
        if np.all(np.abs(diagonal) > 1e-12):
            # Jacobi/degree preconditioner as a sparse diagonal matrix —
            # M ≈ A⁻¹ on the diagonal, which captures the degree spread
            # of unnormalized Laplacians (for the unit-diagonal symmetric
            # normalization it degenerates to the identity, harmlessly).
            preconditioner = _sparse.diags(1.0 / diagonal).tocsr()
        import warnings

        with warnings.catch_warnings():
            # lobpcg signals non-convergence with a UserWarning; the
            # residual check below is the authoritative verdict.
            warnings.simplefilter("ignore")
            try:
                values, vectors = _sparse_linalg.lobpcg(
                    csr,
                    block,
                    M=preconditioner,
                    largest=False,
                    tol=self.lobpcg_tolerance,
                    maxiter=self.lobpcg_maxiter,
                )
            except Exception:
                return None
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(vectors))):
            return None
        # Residual verification: ||A v - λ v|| per pair, relative to the
        # matrix scale — the only convergence signal lobpcg cannot fake.
        residual = csr @ vectors - vectors * values[None, :]
        scale = max(float(np.abs(values).max()), 1.0)
        if np.linalg.norm(residual, axis=0).max() > LOBPCG_RESIDUAL_RTOL * scale * n:
            return None
        order = np.argsort(values)
        return values[order], vectors[:, order]


_DENSE = DenseBackend()


def get_backend(name: str) -> LinalgBackend:
    """Backend instance for an explicit name (``"dense"`` or ``"sparse"``)."""
    if isinstance(name, LinalgBackend):
        return name
    if name == "dense":
        return _DENSE
    if name == "sparse":
        return SparseBackend()
    raise BackendError(
        f"unknown linalg backend {name!r}; valid backends: "
        + ", ".join(BACKEND_NAMES)
    )


def resolve_backend(spec, num_nodes: int | None = None) -> LinalgBackend:
    """Resolve a backend spec (name or instance) to a backend.

    ``"auto"`` picks by problem size in three bands:

    * ``num_nodes < SPARSE_AUTO_THRESHOLD`` — dense; LAPACK wins small.
    * ``SPARSE_AUTO_THRESHOLD <= num_nodes < LOBPCG_AUTO_CEILING`` — the
      sparse backend's preconditioned LOBPCG route (midrange graphs are
      where ARPACK's shiftless Lanczos struggles on ill-conditioned
      spectra; LOBPCG still falls back to eigsh if it fails to
      converge).
    * ``num_nodes >= LOBPCG_AUTO_CEILING`` — sparse with ARPACK eigsh.
    """
    if isinstance(spec, LinalgBackend):
        return spec
    if spec == "auto":
        if num_nodes is not None and num_nodes >= SPARSE_AUTO_THRESHOLD:
            if num_nodes < LOBPCG_AUTO_CEILING:
                return SparseBackend(solver="lobpcg")
            return SparseBackend()
        return _DENSE
    return get_backend(spec)
