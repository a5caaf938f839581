"""Pluggable dense/sparse linear-algebra backends (see ``backends``)."""

from repro.linalg.backends import (
    BACKEND_NAMES,
    DENSE_FALLBACK_DIM,
    LOBPCG_AUTO_CEILING,
    SPARSE_AUTO_THRESHOLD,
    BackendError,
    DenseBackend,
    LinalgBackend,
    SparseBackend,
    get_backend,
    is_sparse_matrix,
    resolve_backend,
    to_dense_array,
)

__all__ = [
    "BACKEND_NAMES",
    "DENSE_FALLBACK_DIM",
    "LOBPCG_AUTO_CEILING",
    "SPARSE_AUTO_THRESHOLD",
    "BackendError",
    "DenseBackend",
    "LinalgBackend",
    "SparseBackend",
    "get_backend",
    "is_sparse_matrix",
    "resolve_backend",
    "to_dense_array",
]
