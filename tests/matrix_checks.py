"""Matrix predicates the tests hold results to.

Importable from any test module: ``tests/`` is on ``sys.path`` because
``tests/conftest.py`` lives there.
"""

import numpy as np
import scipy.sparse as sparse

from repro.utils.linalg import DEFAULT_ATOL, is_hermitian


def native_matrix(matrix: np.ndarray, backend):
    """A dense test ``matrix`` in ``backend``'s own representation."""
    return sparse.csr_matrix(matrix) if backend.name == "sparse" else matrix


def is_unitary(matrix: np.ndarray, atol: float = 1e-9) -> bool:
    """Return ``True`` if ``matrix`` is unitary (U @ U† = I)."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix @ matrix.conj().T, identity, atol=atol))


def is_psd(matrix: np.ndarray, atol: float = 1e-8) -> bool:
    """Return ``True`` if a Hermitian ``matrix`` is positive semidefinite."""
    if not is_hermitian(matrix, atol=max(atol, DEFAULT_ATOL)):
        return False
    eigenvalues = np.linalg.eigvalsh(matrix)
    return bool(eigenvalues.min() >= -atol)


def embed_gate(matrix: np.ndarray, qubits, num_qubits: int) -> np.ndarray:
    """The full 2^m x 2^m operator of ``matrix`` acting on ``qubits``.

    Built entry by entry from basis indices (qubit 0 most significant,
    ``qubits[0]`` the most significant bit of the gate index), so it is
    an oracle independent of the simulator's axis moves.
    """
    k = len(qubits)
    shifts = [num_qubits - 1 - q for q in qubits]
    dim = 2**num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    for column in range(dim):
        gate_in = 0
        for shift in shifts:
            gate_in = (gate_in << 1) | ((column >> shift) & 1)
        for gate_out in range(2**k):
            row = column
            for position, shift in enumerate(shifts):
                bit = (gate_out >> (k - 1 - position)) & 1
                row = (row & ~(1 << shift)) | (bit << shift)
            full[row, column] += matrix[gate_out, gate_in]
    return full
