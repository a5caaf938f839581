"""Pauli-string algebra and Pauli decomposition of Hermitian matrices.

A Pauli string is a label like ``"XIZ"`` denoting the Kronecker product
X ⊗ I ⊗ Z (leftmost letter acts on qubit 0, the most significant qubit).
Any Hermitian matrix on m qubits expands uniquely in this basis with real
coefficients:

    H = Σ_s  c_s · P_s,     c_s = Tr(P_s H) / 2^m.

The decomposition is what feeds Trotterized Hamiltonian simulation for the
gate-level realism path of the QPE engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from repro.exceptions import CircuitError
from repro.quantum import gates
from repro.utils.linalg import is_hermitian

_PAULI_MATRICES = {
    "I": gates.I2,
    "X": gates.X,
    "Y": gates.Y,
    "Z": gates.Z,
}

PAULI_LETTERS = "IXYZ"


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string, e.g. ``0.5 * XIZ``."""

    label: str
    coefficient: float

    def __post_init__(self):
        if not self.label or any(c not in _PAULI_MATRICES for c in self.label):
            raise CircuitError(f"invalid Pauli label {self.label!r}")

    @property
    def num_qubits(self) -> int:
        """Number of qubits the string acts on."""
        return len(self.label)

    def matrix(self) -> np.ndarray:
        """Dense matrix of the *unweighted* Pauli string."""
        return pauli_matrix(self.label)

    def weighted_matrix(self) -> np.ndarray:
        """Dense matrix including the coefficient."""
        return self.coefficient * self.matrix()


def pauli_matrix(label: str) -> np.ndarray:
    """Kronecker product of single-qubit Paulis named by ``label``."""
    if not label:
        raise CircuitError("empty Pauli label")
    try:
        factors = [_PAULI_MATRICES[c] for c in label]
    except KeyError as exc:
        raise CircuitError(f"invalid Pauli letter in {label!r}") from exc
    return reduce(np.kron, factors)


def all_pauli_labels(num_qubits: int):
    """Yield all 4^m Pauli labels on ``num_qubits`` qubits in lexicographic order."""
    if num_qubits < 1:
        raise CircuitError(f"need at least one qubit, got {num_qubits}")

    def extend(prefix: str, remaining: int):
        if remaining == 0:
            yield prefix
            return
        for letter in PAULI_LETTERS:
            yield from extend(prefix + letter, remaining - 1)

    yield from extend("", num_qubits)


def pauli_decompose(matrix: np.ndarray, tol: float = 1e-12) -> list[PauliTerm]:
    """Expand a Hermitian matrix in the Pauli basis.

    Parameters
    ----------
    matrix:
        Hermitian matrix of dimension 2^m.
    tol:
        Coefficients with absolute value <= ``tol`` are dropped.

    Returns
    -------
    list of :class:`PauliTerm` whose weighted sum reconstructs ``matrix``.

    Notes
    -----
    Runs in O(8^m) time — intended for the small-m Trotter path (m <= 6),
    not for the analytic backend which never decomposes.
    """
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise CircuitError("pauli_decompose requires a square matrix")
    if dim & (dim - 1) or dim < 2:
        raise CircuitError(f"dimension {dim} is not a power of two")
    if not is_hermitian(matrix, atol=1e-9):
        raise CircuitError("pauli_decompose requires a Hermitian matrix")
    num_qubits = dim.bit_length() - 1
    terms = []
    for label in all_pauli_labels(num_qubits):
        coefficient = np.trace(pauli_matrix(label) @ matrix).real / dim
        if abs(coefficient) > tol:
            terms.append(PauliTerm(label, float(coefficient)))
    return terms
