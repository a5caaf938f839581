"""Tests for Hamiltonian simulation and quantum phase estimation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from matrix_checks import is_unitary

from repro.exceptions import CircuitError
from repro.quantum.hamiltonian import (
    SpectralDecomposition,
    exact_evolution,
    trotter_error,
    trotter_evolution,
)
from repro.quantum.phase_estimation import (
    controlled_power_unitaries,
    qpe_circuit,
    qpe_outcome_distribution,
)
from repro.quantum.statevector import Statevector


def qpe_table(unitary, precision, input_state):
    """Run the QPE circuit on |0…0⟩_anc ⊗ |input⟩; row y of the returned
    (2^p, dim) table is the unnormalized system state after reading y."""
    dim = unitary.shape[0]
    joint = np.zeros(2**precision * dim, dtype=complex)
    # the ancillas are the most significant qubits
    joint[:dim] = input_state
    final = qpe_circuit(unitary, precision).run(Statevector(joint))
    return final.amplitudes.reshape(2**precision, dim)


def qpe_readout(unitary, precision, input_state):
    """Exact ancilla readout distribution of the QPE circuit."""
    return (np.abs(qpe_table(unitary, precision, input_state)) ** 2).sum(axis=1)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2


class TestExactEvolution:
    @given(seed=st.integers(0, 40), time=st.floats(-3, 3))
    @settings(max_examples=20, deadline=None)
    def test_evolution_is_unitary(self, seed, time):
        hamiltonian = random_hermitian(4, seed)
        assert is_unitary(exact_evolution(hamiltonian, time))

    def test_zero_time_is_identity(self):
        assert np.allclose(exact_evolution(random_hermitian(4, 1), 0.0), np.eye(4))

    def test_evolution_composes_in_time(self):
        h = random_hermitian(4, 2)
        u1 = exact_evolution(h, 0.4)
        u2 = exact_evolution(h, 0.6)
        assert np.allclose(u1 @ u2, exact_evolution(h, 1.0))

    def test_eigenvector_acquires_phase(self):
        h = random_hermitian(4, 3)
        decomp = SpectralDecomposition.of(h)
        v = decomp.eigenvectors[:, 0]
        evolved = exact_evolution(h, 1.3) @ v
        expected = np.exp(1j * decomp.eigenvalues[0] * 1.3) * v
        assert np.allclose(evolved, expected)

    def test_rejects_non_hermitian(self):
        with pytest.raises(CircuitError):
            exact_evolution(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


class TestTrotter:
    def test_first_order_converges(self):
        h = random_hermitian(4, 5)
        errors = [trotter_error(h, 1.0, steps, order=1) for steps in (4, 16, 64)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.05

    def test_second_order_beats_first(self):
        h = random_hermitian(4, 6)
        assert trotter_error(h, 1.0, 8, order=2) < trotter_error(h, 1.0, 8, order=1)

    def test_trotter_is_unitary(self):
        h = random_hermitian(4, 7)
        assert is_unitary(trotter_evolution(h, 0.9, steps=3, order=1))

    def test_commuting_terms_exact_in_one_step(self):
        diagonal = np.diag([0.3, -0.4, 1.0, 0.2])
        approx = trotter_evolution(diagonal, 1.7, steps=1, order=1)
        assert np.allclose(approx, exact_evolution(diagonal, 1.7), atol=1e-9)

    def test_invalid_order_raises(self):
        with pytest.raises(CircuitError):
            trotter_evolution(np.eye(2), 1.0, order=3)

    def test_invalid_steps_raises(self):
        with pytest.raises(CircuitError):
            trotter_evolution(np.eye(2), 1.0, steps=0)


class TestQPECircuit:
    def test_dyadic_phase_exact_readout(self):
        phase = 5 / 16
        unitary = np.diag([1.0, np.exp(2j * np.pi * phase)])
        probabilities = qpe_readout(unitary, 4, np.array([0.0, 1.0]))
        assert probabilities.argmax() == 5
        assert np.isclose(probabilities[5], 1.0)

    def test_eigenstate_input_leaves_system_intact(self):
        phase = 3 / 8
        unitary = np.diag([1.0, np.exp(2j * np.pi * phase)])
        conditional = qpe_table(unitary, 3, np.array([0.0, 1.0]))[3]
        assert np.isclose(abs(conditional[1]), 1.0)

    def test_superposition_input_splits_readout(self):
        phases = (1 / 4, 3 / 4)
        unitary = np.diag([np.exp(2j * np.pi * p) for p in phases])
        amplitude = 1 / np.sqrt(2)
        probabilities = qpe_readout(unitary, 2, np.array([amplitude, amplitude]))
        assert np.isclose(probabilities[1], 0.5)
        assert np.isclose(probabilities[3], 0.5)

    def test_circuit_matches_analytic_distribution(self):
        phase = 0.23
        unitary = np.diag([1.0, np.exp(2j * np.pi * phase)])
        probabilities = qpe_readout(unitary, 4, np.array([0.0, 1.0]))
        analytic = qpe_outcome_distribution(phase, 4)
        assert np.allclose(probabilities, analytic, atol=1e-10)

    def test_two_qubit_system(self):
        h = random_hermitian(4, 9)
        decomp = SpectralDecomposition.of(h)
        # scale so eigenphases land in [0, 1)
        span = decomp.eigenvalues.max() - decomp.eigenvalues.min() + 1e-9
        scaled = (h - decomp.eigenvalues.min() * np.eye(4)) / (span * 1.1)
        unitary = exact_evolution(scaled, 2 * np.pi)
        v0 = SpectralDecomposition.of(scaled).eigenvectors[:, 0]
        peak_phase = qpe_readout(unitary, 5, v0).argmax() / 32
        true_phase = SpectralDecomposition.of(scaled).eigenvalues[0]
        assert abs(peak_phase - true_phase) < 1 / 16

    @pytest.mark.parametrize("outcome", range(8))
    def test_every_dyadic_phase_reads_out_exactly(self, outcome):
        unitary = np.diag([1.0, np.exp(2j * np.pi * outcome / 8)])
        probabilities = qpe_readout(unitary, 3, np.array([0.0, 1.0]))
        assert np.allclose(probabilities, np.eye(8)[outcome])

    def test_qpe_circuit_validates_inputs(self):
        with pytest.raises(CircuitError):
            qpe_circuit(np.eye(3), 2)
        with pytest.raises(CircuitError):
            qpe_circuit(np.eye(2), 0)


class TestAnalyticDistribution:
    @given(
        phase=st.floats(0, 0.999),
        precision=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_distribution_normalized(self, phase, precision):
        probs = qpe_outcome_distribution(phase, precision)
        assert np.isclose(probs.sum(), 1.0)
        assert (probs >= -1e-12).all()

    def test_dyadic_phase_is_deterministic(self):
        probs = qpe_outcome_distribution(0.25, 4)
        assert np.isclose(probs[4], 1.0)

    def test_peak_near_phase(self):
        probs = qpe_outcome_distribution(0.3, 6)
        assert abs(probs.argmax() / 64 - 0.3) < 1 / 32

    def test_majority_mass_within_one_bin(self):
        # Standard QPE guarantee: >= 8/pi^2 probability within +-1 bin.
        probs = qpe_outcome_distribution(0.37, 5)
        center = int(round(0.37 * 32))
        mass = probs[center - 1 : center + 2].sum()
        assert mass >= 8 / np.pi**2 - 1e-9

    def test_precision_validation(self):
        with pytest.raises(CircuitError):
            qpe_outcome_distribution(0.5, 0)

    @pytest.mark.parametrize("shift", [-2.0, -1.0, 1.0, 3.0])
    def test_phase_is_read_mod_one(self, shift):
        assert np.allclose(
            qpe_outcome_distribution(0.37 + shift, 4),
            qpe_outcome_distribution(0.37, 4),
        )


class TestQPEHelpers:
    @pytest.mark.parametrize("precision", [1, 2, 5])
    def test_controlled_powers_are_repeated_squares(self, precision):
        unitary = exact_evolution(random_hermitian(2, 4), 0.9)
        powers = controlled_power_unitaries(unitary, precision)
        assert len(powers) == precision
        for j, power in enumerate(powers):
            assert np.allclose(power, np.linalg.matrix_power(unitary, 2**j))

    def test_controlled_powers_multiply_eigenphases(self):
        phase = 0.15
        unitary = np.diag([1.0, np.exp(2j * np.pi * phase)])
        powers = controlled_power_unitaries(unitary, 4)
        for j, power in enumerate(powers):
            assert np.isclose(power[1, 1], np.exp(2j * np.pi * phase * 2**j))
