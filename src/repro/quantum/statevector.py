"""Dense statevector simulation backend.

The :class:`Statevector` class stores the full 2^m amplitude vector and
applies k-qubit gate matrices by reshaping to a rank-m tensor and contracting
with :func:`numpy.einsum`-free axis moves — O(2^m · 2^k) per gate, which is
the standard cost for dense simulation.

Qubit 0 is the most significant bit of the basis index (big-endian), matching
``repro.quantum.gates``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CircuitError, QubitError
from repro.utils.rng import ensure_rng

_NORM_ATOL = 1e-9


class Statevector:
    """A normalized pure state on ``num_qubits`` qubits.

    Parameters
    ----------
    data:
        Either an integer qubit count (state initialised to ``|0...0>``) or
        an amplitude vector of length ``2**m``; the vector is copied and
        validated for normalization.

    Examples
    --------
    >>> sv = Statevector(2)
    >>> sv.apply_gate(gates.H, [0])
    >>> sv.probabilities().round(3)
    array([0.5, 0. , 0.5, 0. ])
    """

    def __init__(self, data):
        if isinstance(data, (int, np.integer)):
            if data < 1:
                raise CircuitError(f"need at least one qubit, got {data}")
            self._num_qubits = int(data)
            self._amplitudes = np.zeros(2**self._num_qubits, dtype=complex)
            self._amplitudes[0] = 1.0
            return
        amplitudes = np.asarray(data, dtype=complex).ravel().copy()
        dim = amplitudes.size
        if dim < 2 or dim & (dim - 1):
            raise CircuitError(f"amplitude vector length {dim} is not a power of two")
        norm = np.linalg.norm(amplitudes)
        if abs(norm - 1.0) > 1e-6:
            raise CircuitError(f"statevector is not normalized (norm={norm:.3g})")
        self._amplitudes = amplitudes / norm
        self._num_qubits = dim.bit_length() - 1

    # -- basic accessors ---------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of qubits in the register."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Hilbert-space dimension 2**num_qubits."""
        return self._amplitudes.size

    @property
    def amplitudes(self) -> np.ndarray:
        """A copy of the amplitude vector (basis index big-endian in qubit 0)."""
        return self._amplitudes.copy()

    def copy(self) -> "Statevector":
        """Deep copy of this state."""
        clone = Statevector(self._num_qubits)
        clone._amplitudes = self._amplitudes.copy()
        return clone

    def norm(self) -> float:
        """l2 norm of the amplitudes (should always be 1 within tolerance)."""
        return float(np.linalg.norm(self._amplitudes))

    def probabilities(self) -> np.ndarray:
        """Measurement probabilities over all 2**m basis states."""
        return np.abs(self._amplitudes) ** 2

    # -- gate application --------------------------------------------------

    def _validate_qubits(self, qubits) -> tuple[int, ...]:
        qubits = tuple(int(q) for q in qubits)
        for q in qubits:
            if not 0 <= q < self._num_qubits:
                raise QubitError(
                    f"qubit {q} out of range for {self._num_qubits}-qubit state"
                )
        if len(set(qubits)) != len(qubits):
            raise QubitError(f"duplicate qubits in {qubits}")
        return qubits

    def apply_gate(self, matrix: np.ndarray, qubits) -> None:
        """Apply a 2^k x 2^k unitary ``matrix`` to the listed ``qubits``.

        ``qubits[0]`` corresponds to the most significant bit of the gate
        matrix index, consistent with the global big-endian convention.
        """
        qubits = self._validate_qubits(qubits)
        k = len(qubits)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2**k, 2**k):
            raise CircuitError(
                f"gate on {k} qubit(s) must be {2**k}x{2**k}, got {matrix.shape}"
            )
        m = self._num_qubits
        tensor = self._amplitudes.reshape((2,) * m)
        # Move the targeted axes to the front, contract, and move them back.
        tensor = np.moveaxis(tensor, qubits, range(k))
        tensor = tensor.reshape(2**k, -1)
        tensor = matrix @ tensor
        tensor = tensor.reshape((2,) * m)
        tensor = np.moveaxis(tensor, range(k), qubits)
        self._amplitudes = np.ascontiguousarray(tensor).ravel()

    # -- measurement -------------------------------------------------------

    def measure_qubits(self, qubits, seed=None) -> tuple[int, "Statevector"]:
        """Projectively measure ``qubits``; return (outcome, collapsed state).

        The outcome integer packs the measured bits big-endian in the order
        the qubits were given.  The returned state is renormalized.
        """
        qubits = self._validate_qubits(qubits)
        rng = ensure_rng(seed)
        marginal = self.marginal_probabilities(qubits)
        outcome = int(rng.choice(marginal.size, p=marginal))
        collapsed = self._project(qubits, outcome)
        return outcome, collapsed

    def marginal_probabilities(self, qubits) -> np.ndarray:
        """Exact marginal distribution of the listed qubits."""
        qubits = self._validate_qubits(qubits)
        m = self._num_qubits
        probs = self.probabilities().reshape((2,) * m)
        keep = list(qubits)
        drop = [axis for axis in range(m) if axis not in keep]
        marginal = probs.sum(axis=tuple(drop)) if drop else probs
        if len(keep) > 1:
            # ``sum`` leaves kept axes in ascending qubit order; permute them
            # back to the order the caller requested.  The rank of each qubit
            # within ``keep`` is exactly its axis position after the sum.
            marginal = np.transpose(marginal, axes=np.argsort(np.argsort(keep)))
        flat = marginal.ravel()
        total = flat.sum()
        if not np.isclose(total, 1.0, atol=1e-6):
            raise CircuitError(f"marginal does not sum to 1 (got {total:.3g})")
        return flat / total

    def _project(self, qubits, outcome: int) -> "Statevector":
        m = self._num_qubits
        tensor = self._amplitudes.reshape((2,) * m).copy()
        bits = [(outcome >> (len(qubits) - 1 - i)) & 1 for i in range(len(qubits))]
        index = [slice(None)] * m
        for qubit, bit in zip(qubits, bits):
            mask_index = list(index)
            mask_index[qubit] = 1 - bit
            tensor[tuple(mask_index)] = 0.0
        flat = tensor.ravel()
        norm = np.linalg.norm(flat)
        if norm < 1e-12:
            raise CircuitError("projection onto a zero-probability outcome")
        return Statevector(flat / norm)
