"""The quantum Fourier transform and its inverse.

These are the building blocks the phase-estimation module assembles.  All
constructions follow the big-endian qubit convention of the package: qubit 0
is the most significant bit of the basis index.
"""

from __future__ import annotations

import numpy as np

from repro.quantum.circuit import QuantumCircuit


def qft_circuit(num_qubits: int, swap: bool = True) -> QuantumCircuit:
    """The quantum Fourier transform on ``num_qubits`` qubits.

    With ``swap=True`` the output bit order matches the textbook DFT matrix
    ``F[j, k] = exp(2πi jk / 2^m) / sqrt(2^m)``.

    Parameters
    ----------
    num_qubits:
        Register width m.
    swap:
        Whether to append the final qubit-reversal swaps.
    """
    qc = QuantumCircuit(num_qubits, name=f"qft{num_qubits}")
    for target in range(num_qubits):
        qc.h(target)
        for offset, control in enumerate(range(target + 1, num_qubits), start=1):
            qc.cp(np.pi / (2**offset), control, target)
    if swap:
        for low in range(num_qubits // 2):
            qc.swap(low, num_qubits - 1 - low)
    return qc


def inverse_qft_circuit(num_qubits: int, swap: bool = True) -> QuantumCircuit:
    """Adjoint of :func:`qft_circuit`."""
    inv = qft_circuit(num_qubits, swap=swap).inverse()
    inv.name = f"iqft{num_qubits}"
    return inv
