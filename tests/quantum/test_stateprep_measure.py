"""Tests for tomography and noise."""

import itertools

import numpy as np
import pytest

from repro.exceptions import CircuitError, EncodingError
from repro.quantum import gates
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.measurement import tomography_estimate
from repro.quantum.noise import (
    NoiseModel,
    apply_depolarizing,
    flip_readout_bits,
    noisy_run,
    noisy_sample_counts,
)
from repro.quantum.statevector import Statevector


def basis_state(num_qubits, index):
    return Statevector(np.eye(2**num_qubits)[index])


def unit(vector) -> np.ndarray:
    vector = np.asarray(vector, dtype=complex)
    return vector / np.linalg.norm(vector)


class TestTomography:
    def test_zero_shots_returns_exact(self):
        state = unit([1.0, 2.0, 2.0, 0.0])
        assert np.allclose(tomography_estimate(state, 0), state)

    def test_error_decreases_with_shots(self):
        rng = np.random.default_rng(1)
        state = unit(rng.normal(size=8))
        errors = []
        for shots in (100, 10000, 1000000):
            estimate = tomography_estimate(state, shots, seed=42)
            estimate = estimate * np.exp(-1j * np.angle(np.vdot(estimate, state)))
            errors.append(np.linalg.norm(estimate - state))
        assert errors[0] > errors[2]
        assert errors[2] < 0.02

    def test_estimate_is_normalized(self):
        state = unit([1.0, 1.0, 1.0, 1.0])
        estimate = tomography_estimate(state, 100, seed=7)
        assert np.isclose(np.linalg.norm(estimate), 1.0)

    def test_negative_shots_rejected(self):
        with pytest.raises(EncodingError):
            tomography_estimate(np.array([1.0, 0.0]), -5)

    def test_zero_state_rejected(self):
        with pytest.raises(EncodingError):
            tomography_estimate(np.zeros(2), 10)


class TestNoise:
    def test_rates_validated(self):
        with pytest.raises(CircuitError):
            NoiseModel(depolarizing_rate=1.5)
        with pytest.raises(CircuitError):
            NoiseModel(readout_error=-0.1)

    def test_noiseless_run_matches_ideal(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1)
        noisy = noisy_run(qc, NoiseModel(), seed=0)
        assert np.allclose(noisy.probabilities(), [0.5, 0, 0, 0.5])

    def test_depolarizing_perturbs_distribution(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1)
        counts = noisy_sample_counts(
            qc, shots=300, noise=NoiseModel(depolarizing_rate=0.3), seed=1
        )
        # Forbidden Bell outcomes must now appear.
        assert counts.get(1, 0) + counts.get(2, 0) > 0

    def test_readout_error_flips_bits(self):
        qc = QuantumCircuit(1)  # stays in |0>
        counts = noisy_sample_counts(
            qc, shots=2000, noise=NoiseModel(readout_error=0.25), seed=2
        )
        assert abs(counts.get(1, 0) / 2000 - 0.25) < 0.05

    def test_negative_shots_rejected(self):
        with pytest.raises(CircuitError):
            noisy_sample_counts(QuantumCircuit(1), -1, NoiseModel())

    def test_monte_carlo_converges_to_exact_channel(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1)
        rate = 0.15
        # Exact reference: after each gate every touched qubit takes I with
        # weight 1 − p or one of X, Y, Z with weight p/3; the 4 × 16 = 64
        # branches' outcome distributions, weighted, are the channel's.
        branches = [(1 - rate, gates.I2)] + [
            (rate / 3, pauli) for pauli in (gates.X, gates.Y, gates.Z)
        ]
        touched = sum(len(op.qubits) for op in qc.operations)
        exact = np.zeros(4)
        for choice in itertools.product(branches, repeat=touched):
            state, weight, draws = Statevector(2), 1.0, iter(choice)
            for op in qc.operations:
                state.apply_gate(op.resolve_matrix(), op.qubits)
                for qubit in op.qubits:
                    probability, pauli = next(draws)
                    weight *= probability
                    state.apply_gate(pauli, [qubit])
            exact += weight * state.probabilities()
        assert np.isclose(exact.sum(), 1.0)
        trials = 3000
        rng = np.random.default_rng(0)
        accumulated = np.zeros(4)
        for _ in range(trials):
            sv = noisy_run(qc, NoiseModel(depolarizing_rate=rate), seed=rng)
            accumulated += sv.probabilities()
        empirical = accumulated / trials
        assert np.abs(empirical - exact).max() < 0.03


class TestNoiseChannels:
    @pytest.mark.parametrize("num_bits", [1, 3, 6])
    def test_zero_readout_error_returns_the_outcome(self, num_bits):
        rng = np.random.default_rng(0)
        for outcome in range(2**num_bits):
            assert flip_readout_bits(outcome, num_bits, 0.0, rng) == outcome

    @pytest.mark.parametrize("num_bits", [1, 3, 6])
    def test_certain_readout_error_flips_every_measured_bit(self, num_bits):
        rng = np.random.default_rng(0)
        mask = 2**num_bits - 1
        for outcome in (0, 1, mask):
            assert flip_readout_bits(outcome, num_bits, 1.0, rng) == outcome ^ mask

    def test_readout_error_leaves_unmeasured_bits_alone(self):
        rng = np.random.default_rng(0)
        high = 0b1010 << 3
        for _ in range(50):
            assert flip_readout_bits(high, 3, 0.5, rng) >> 3 == 0b1010

    def test_readout_bits_flip_independently_at_the_rate(self):
        rng = np.random.default_rng(3)
        draws = np.array([flip_readout_bits(0, 2, 0.2, rng) for _ in range(4000)])
        for bit in range(2):
            assert abs(((draws >> bit) & 1).mean() - 0.2) < 0.03

    def test_zero_depolarizing_rate_leaves_the_state(self):
        state = basis_state(2, 0b01)
        apply_depolarizing(state, [0, 1], 0.0, np.random.default_rng(0))
        assert np.array_equal(state.amplitudes, basis_state(2, 0b01).amplitudes)

    def test_certain_depolarizing_applies_a_pauli_to_each_listed_qubit(self):
        rng = np.random.default_rng(5)
        flipped = 0
        trials = 600
        for _ in range(trials):
            state = basis_state(2, 0)
            apply_depolarizing(state, [1], 1.0, rng)
            assert np.isclose(state.norm(), 1.0)
            probabilities = state.probabilities()
            # qubit 0 is not listed, so it stays |0>
            assert np.isclose(probabilities[0b00] + probabilities[0b01], 1.0)
            flipped += int(np.isclose(probabilities[0b01], 1.0))
        # X and Y flip |0>, Z does not: two thirds of the draws flip
        assert abs(flipped / trials - 2 / 3) < 0.06
