"""Quantum phase estimation (QPE).

Provides both:

* :func:`qpe_circuit` — the textbook circuit (Hadamard fan-out, controlled
  powers of U, inverse QFT) executed on the statevector simulator, and
* :func:`qpe_outcome_distribution` — the exact closed-form ancilla outcome
  distribution for a single eigenphase,

      Pr[y | φ] = sin²(2^p π Δ_y) / (4^p sin²(π Δ_y)),  Δ_y = φ − y/2^p,

  which the scalable ``analytic`` backend samples directly (see "QPE
  backends" in docs/architecture.md).  Property tests assert the two agree.
* :func:`qpe_outcome_distributions` — the batched form: the full
  (phases × outcomes) response matrix in one broadcast pass, which is how
  the analytic backend's kernel cache builds its entries; the scalar
  function is a batch of one and bit-identical to its batched row.

Register layout of the circuit: ancilla (counting) qubits are 0..p−1 with
qubit 0 the most significant readout bit; system qubits follow at p..p+m−1.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CircuitError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.library import inverse_qft_circuit


def controlled_power_unitaries(unitary: np.ndarray, precision: int) -> list:
    """Pre-compute U^(2^j) for j = 0..p−1 by repeated squaring."""
    unitary = np.asarray(unitary, dtype=complex)
    powers = [unitary]
    for _ in range(precision - 1):
        powers.append(powers[-1] @ powers[-1])
    return powers


def qpe_circuit(
    unitary: np.ndarray,
    precision: int,
    state_prep: QuantumCircuit | None = None,
) -> QuantumCircuit:
    """Build the QPE circuit for ``unitary`` with ``precision`` ancilla bits.

    Parameters
    ----------
    unitary:
        2^m x 2^m unitary whose eigenphases are estimated.
    precision:
        Number of ancilla (readout) qubits p.
    state_prep:
        Optional m-qubit circuit preparing the system register; composed at
        the front so ``qpe_circuit(...).run()`` is self-contained.

    Returns
    -------
    QuantumCircuit on p + m qubits.  Measuring qubits 0..p−1 (big-endian)
    yields y with y/2^p ≈ eigenphase of the system component.
    """
    unitary = np.asarray(unitary, dtype=complex)
    dim = unitary.shape[0]
    if dim < 2 or dim & (dim - 1):
        raise CircuitError(f"unitary dimension {dim} is not a power of two")
    if precision < 1:
        raise CircuitError(f"precision must be >= 1, got {precision}")
    num_system = dim.bit_length() - 1
    total = precision + num_system
    qc = QuantumCircuit(total, name=f"qpe(p={precision}, m={num_system})")
    system_qubits = tuple(range(precision, total))
    if state_prep is not None:
        if state_prep.num_qubits != num_system:
            raise CircuitError(
                f"state_prep acts on {state_prep.num_qubits} qubits, "
                f"system register has {num_system}"
            )
        qc.compose(state_prep, qubits=system_qubits)
    for ancilla in range(precision):
        qc.h(ancilla)
    powers = controlled_power_unitaries(unitary, precision)
    for ancilla in range(precision):
        # Ancilla 0 is the most significant readout bit and therefore
        # controls the largest power U^(2^{p-1}).
        exponent_index = precision - 1 - ancilla
        qc.cu(
            powers[exponent_index],
            ancilla,
            system_qubits,
            label=f"c-U^{2**exponent_index}",
        )
    qc.compose(inverse_qft_circuit(precision), qubits=tuple(range(precision)))
    return qc


def qpe_outcome_distribution(phase: float, precision: int) -> np.ndarray:
    """Exact QPE readout distribution for one eigenphase.

    Parameters
    ----------
    phase:
        Eigenphase φ ∈ [0, 1) with U|u> = e^{2πiφ}|u>.
    precision:
        Ancilla bits p.

    Returns
    -------
    Length-2^p probability vector over readouts y.

    Notes
    -----
    A batch of one: :func:`qpe_outcome_distributions` computes the same
    closed form for a whole spectrum at once, and every arithmetic step is
    elementwise, so this row is bit-identical whether computed alone or as
    part of a batch (pinned in ``tests/quantum``).
    """
    return qpe_outcome_distributions([phase], precision)[0]


def qpe_outcome_distributions(phases, precision: int) -> np.ndarray:
    """Exact QPE readout distributions for many eigenphases in one pass.

    Parameters
    ----------
    phases:
        Array-like of eigenphases φ_j ∈ [0, 1) (values outside wrap mod 1).
    precision:
        Ancilla bits p.

    Returns
    -------
    ``(len(phases), 2^p)`` matrix whose row ``j`` is the Dirichlet-kernel
    readout distribution of phase ``j`` — the full (eigenvalues × outcomes)
    QPE response matrix the analytic backend's kernel cache stores.  The
    whole matrix is built by broadcast arithmetic; there is no per-phase
    Python loop.
    """
    if precision < 1:
        raise CircuitError(f"precision must be >= 1, got {precision}")
    size = 2**precision
    phases = np.atleast_1d(np.asarray(phases, dtype=float)) % 1.0
    if phases.ndim != 1:
        raise CircuitError(
            f"phases must be a scalar or 1-D array, got shape {phases.shape}"
        )
    y = np.arange(size)
    delta = phases[:, None] - y / size
    sin_delta = np.sin(np.pi * delta)
    numerator = np.sin(np.pi * size * delta) ** 2
    denominator = (size * sin_delta) ** 2
    near_zero = np.isclose(sin_delta, 0.0, atol=1e-12)
    # limit of the Dirichlet kernel at Δ → integer is exactly 1; the
    # denominator is patched before dividing only to avoid the 0/0 warning
    probs = np.where(near_zero, 1.0, numerator / np.where(near_zero, 1.0, denominator))
    totals = probs.sum(axis=1)
    off = ~np.isclose(totals, 1.0, atol=1e-8)
    if off.any():
        probs[off] = probs[off] / totals[off, None]
    return probs
