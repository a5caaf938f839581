"""From-scratch quantum-computing substrate.

Statevector simulation, a circuit IR, gate library, QFT, Pauli algebra,
Hamiltonian simulation, phase estimation, measurement/tomography models,
noise channels, quantum walks and resource accounting — everything the
mixed-graph quantum spectral clustering pipeline needs, with no external
quantum SDK.
"""

from repro.quantum.circuit import Operation, QuantumCircuit
from repro.quantum.statevector import (
    Statevector,
    basis_state,
    uniform_superposition,
)
from repro.quantum.library import (
    qft_circuit,
    inverse_qft_circuit,
    qft_matrix,
    hadamard_layer,
    basis_preparation,
)
from repro.quantum.pauli import (
    PauliTerm,
    pauli_matrix,
    pauli_decompose,
    pauli_reconstruct,
    all_pauli_labels,
)
from repro.quantum.hamiltonian import (
    SpectralDecomposition,
    exact_evolution,
    trotter_evolution,
    trotter_error,
)
from repro.quantum.phase_estimation import (
    QPEResult,
    qpe_circuit,
    qpe_outcome_distribution,
    qpe_outcome_distributions,
    run_qpe,
)
from repro.quantum.measurement import (
    counts_to_probabilities,
    sample_distribution,
    tomography_estimate,
    tomography_estimate_batch,
    expectation_from_counts,
)
from repro.quantum.noise import NoiseModel, noisy_run, noisy_sample_counts
from repro.quantum.density_matrix import (
    DensityMatrix,
    amplitude_damping_kraus,
    bitflip_kraus,
    depolarizing_kraus,
    noisy_circuit_density,
    phase_damping_kraus,
)
from repro.quantum.walks import (
    QuantumWalk,
    directed_cycle,
    directional_transport_bias,
)
from repro.quantum.resources import (
    QPEResources,
    qpe_resources,
    quantum_pipeline_step_count,
    classical_pipeline_step_count,
)

__all__ = [
    "Operation",
    "QuantumCircuit",
    "Statevector",
    "basis_state",
    "uniform_superposition",
    "qft_circuit",
    "inverse_qft_circuit",
    "qft_matrix",
    "hadamard_layer",
    "basis_preparation",
    "PauliTerm",
    "pauli_matrix",
    "pauli_decompose",
    "pauli_reconstruct",
    "all_pauli_labels",
    "SpectralDecomposition",
    "exact_evolution",
    "trotter_evolution",
    "trotter_error",
    "QPEResult",
    "qpe_circuit",
    "qpe_outcome_distribution",
    "qpe_outcome_distributions",
    "run_qpe",
    "counts_to_probabilities",
    "sample_distribution",
    "tomography_estimate",
    "tomography_estimate_batch",
    "expectation_from_counts",
    "NoiseModel",
    "noisy_run",
    "noisy_sample_counts",
    "DensityMatrix",
    "amplitude_damping_kraus",
    "bitflip_kraus",
    "depolarizing_kraus",
    "noisy_circuit_density",
    "phase_damping_kraus",
    "QPEResources",
    "qpe_resources",
    "quantum_pipeline_step_count",
    "classical_pipeline_step_count",
    "QuantumWalk",
    "directed_cycle",
    "directional_transport_bias",
]
