"""Small linear-algebra helpers used across the quantum and spectral stacks."""

from __future__ import annotations

import numpy as np

DEFAULT_ATOL = 1e-10
#: Entries per row block of the blockwise helpers (2^16 entries, 1 MiB of
#: complex128), e.g. 64 rows of a 1024-wide matrix.
BLOCK_ENTRIES = 1 << 16
#: Fewest rows a block may be capped at, whatever the row width.  Narrower
#: blocks cost time: each readout block re-reads the whole eigenvector
#: matrix, and 16-row blocks at n = 2500 (dim 4096) take the readout from
#: 4.0 s to 6.4 s on one core.
MIN_BLOCK_ROWS = 64


def row_blocks(
    num_rows: int, row_entries: int, max_entries: int = BLOCK_ENTRIES
) -> list[tuple[int, int]]:
    """Balanced ``(start, stop)`` row blocks of at most
    ``max(max_entries // row_entries, MIN_BLOCK_ROWS)`` rows.

    The blocks cover ``range(num_rows)`` in order; their sizes differ by
    at most one, larger blocks first (the ``numpy.array_split``
    convention).  So no block has exactly one row unless ``num_rows`` is
    1: a block holds at least half the cap once there is more than one.
    That matters for bits, not only speed: a one-row block would send
    NumPy's products and reductions down another path (matrix-vector
    instead of matrix-matrix, or a differently ordered sum), while blocks
    of two or more rows reproduce a single block exactly.
    """
    if num_rows <= 0:
        return []
    cap = max(MIN_BLOCK_ROWS, max_entries // max(1, row_entries))
    count = -(-num_rows // cap)
    base, extra = divmod(num_rows, count)
    bounds = [index * base + min(index, extra) for index in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def is_hermitian(matrix: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
    """Return ``True`` if ``matrix`` equals its conjugate transpose.

    The same test as ``np.allclose(matrix, matrix.conj().T, atol=atol)``,
    made one row block at a time against the matching column block, so
    no full-size transpose or comparison temporary is allocated.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    for start, stop in row_blocks(matrix.shape[0], matrix.shape[1]):
        if not np.allclose(
            matrix[start:stop], matrix[:, start:stop].conj().T, atol=atol
        ):
            return False
    return True


def next_power_of_two(value: int) -> int:
    """Smallest power of two >= ``value`` (with ``value`` >= 1)."""
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    return 1 << (value - 1).bit_length()
