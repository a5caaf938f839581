"""Simple noise channels for the NISQ-robustness ablation (experiment A3).

Full density-matrix simulation would square the memory cost, so noise is
applied in the standard Monte-Carlo (quantum-trajectory) style directly on
statevectors: each channel draws a random Kraus branch per application.
Averaged over trajectories this reproduces the channel exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import CircuitError
from repro.quantum import gates
from repro.quantum.statevector import Statevector
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class NoiseModel:
    """Gate and readout error rates.

    Attributes
    ----------
    depolarizing_rate:
        Per-gate probability of applying a uniformly random Pauli to each
        qubit the gate touched.
    readout_error:
        Per-bit probability of flipping a measured bit.
    """

    depolarizing_rate: float = 0.0
    readout_error: float = 0.0

    def __post_init__(self):
        for name in ("depolarizing_rate", "readout_error"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise CircuitError(f"{name} must be in [0, 1], got {value}")


_PAULIS = (gates.X, gates.Y, gates.Z)


def apply_depolarizing(
    state: Statevector, qubits, rate: float, rng: np.random.Generator
) -> None:
    """Monte-Carlo depolarizing noise on each listed qubit (in place)."""
    if rate <= 0.0:
        return
    for qubit in qubits:
        if rng.random() < rate:
            pauli = _PAULIS[rng.integers(3)]
            state.apply_gate(pauli, [qubit])


def noisy_run(circuit, noise: NoiseModel, seed=None) -> Statevector:
    """Run a circuit inserting depolarizing noise after every operation."""
    rng = ensure_rng(seed)
    state = Statevector(circuit.num_qubits)
    for op in circuit.operations:
        state.apply_gate(op.resolve_matrix(), op.qubits)
        apply_depolarizing(state, op.qubits, noise.depolarizing_rate, rng)
    return state


def flip_readout_bits(
    outcome: int, num_bits: int, error_rate: float, rng: np.random.Generator
) -> int:
    """Apply independent bit-flip readout errors to a measured integer."""
    if error_rate <= 0.0:
        return outcome
    flipped = outcome
    for bit in range(num_bits):
        if rng.random() < error_rate:
            flipped ^= 1 << bit
    return flipped


def noisy_sample_counts(
    circuit,
    shots: int,
    noise: NoiseModel,
    qubits=None,
    seed=None,
) -> dict[int, int]:
    """Sample measurement counts under gate and readout noise.

    Each shot runs its own noisy trajectory, so correlations between gate
    errors and outcomes are captured faithfully (at O(shots · circuit) cost —
    keep circuits small, which experiment A3 does).
    """
    if shots < 0:
        raise CircuitError(f"shots must be non-negative, got {shots}")
    rng = ensure_rng(seed)
    counts: dict[int, int] = {}
    measure_qubits = (
        list(range(circuit.num_qubits)) if qubits is None else list(qubits)
    )
    num_bits = len(measure_qubits)
    for _ in range(shots):
        state = noisy_run(circuit, noise, seed=rng)
        outcome, _ = state.measure_qubits(measure_qubits, seed=rng)
        outcome = flip_readout_bits(outcome, num_bits, noise.readout_error, rng)
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts
