"""Tests for the statevector simulation backend."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from matrix_checks import embed_gate

from repro.exceptions import CircuitError, QubitError
from repro.quantum import gates
from repro.quantum.statevector import Statevector


def basis_state(num_qubits, index):
    return Statevector(np.eye(2**num_qubits)[index])


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return Statevector(amps / np.linalg.norm(amps))


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


#: Target-qubit placements on a 3-qubit register: every single qubit, every
#: ordered pair (adjacent, split and reversed) and two orders of all three.
PLACEMENTS = [
    (0,), (1,), (2,),
    (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1),
    (0, 1, 2), (2, 0, 1),
]


class TestConstruction:
    def test_int_constructor_gives_zero_state(self):
        sv = Statevector(3)
        assert sv.num_qubits == 3
        assert sv.amplitudes[0] == 1.0
        assert np.count_nonzero(sv.amplitudes) == 1

    def test_vector_constructor_validates_norm(self):
        with pytest.raises(CircuitError):
            Statevector(np.array([1.0, 1.0]))

    def test_vector_constructor_validates_power_of_two(self):
        with pytest.raises(CircuitError):
            Statevector(np.ones(3) / np.sqrt(3))

    def test_zero_qubits_rejected(self):
        with pytest.raises(CircuitError):
            Statevector(0)

    def test_numpy_integer_is_a_qubit_count(self):
        sv = Statevector(np.int64(2))
        assert sv.num_qubits == 2 and sv.dim == 4
        assert np.allclose(sv.probabilities(), [1, 0, 0, 0])

    def test_vector_constructor_copies_its_input(self):
        data = np.array([1.0, 0.0], dtype=complex)
        sv = Statevector(data)
        data[:] = [0.0, 1.0]
        assert np.allclose(sv.amplitudes, [1.0, 0.0])

    def test_amplitudes_is_a_copy(self):
        sv = Statevector(1)
        sv.amplitudes[0] = 0.0
        assert sv.amplitudes[0] == 1.0

    def test_copy_is_independent(self):
        sv = Statevector(2)
        clone = sv.copy()
        clone.apply_gate(gates.X, [0])
        assert sv.amplitudes[0] == 1.0


class TestGateApplication:
    def test_x_flips_msb_qubit0(self):
        sv = Statevector(2)
        sv.apply_gate(gates.X, [0])
        # qubit 0 is the most significant bit: |10> has index 2
        assert np.isclose(abs(sv.amplitudes[2]), 1.0)

    def test_x_flips_lsb_qubit1(self):
        sv = Statevector(2)
        sv.apply_gate(gates.X, [1])
        assert np.isclose(abs(sv.amplitudes[1]), 1.0)

    def test_bell_state(self):
        sv = Statevector(2)
        sv.apply_gate(gates.H, [0])
        sv.apply_gate(gates.controlled(gates.X), [0, 1])
        probs = sv.probabilities()
        assert np.allclose(probs, [0.5, 0, 0, 0.5])

    def test_two_qubit_gate_order_matters(self):
        # CNOT with control=1, target=0 on |01> flips to |11>
        sv = basis_state(2, 0b01)
        sv.apply_gate(gates.controlled(gates.X), [1, 0])
        assert np.isclose(abs(sv.amplitudes[0b11]), 1.0)

    def test_gate_shape_mismatch_raises(self):
        sv = Statevector(2)
        with pytest.raises(CircuitError):
            sv.apply_gate(gates.SWAP, [0])

    def test_out_of_range_qubit_raises(self):
        sv = Statevector(2)
        with pytest.raises(QubitError):
            sv.apply_gate(gates.X, [5])

    def test_duplicate_qubits_raise(self):
        sv = Statevector(2)
        with pytest.raises(QubitError):
            sv.apply_gate(gates.SWAP, [1, 1])

    @given(seed=st.integers(0, 100), qubit=st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_unitarity_preserves_norm(self, seed, qubit):
        sv = random_state(3, seed)
        sv.apply_gate(gates.u3(0.3 * seed, 0.2, 1.1), [qubit])
        assert np.isclose(sv.norm(), 1.0)

    def test_gate_on_qubit_zero_is_the_leading_kron_factor(self):
        sv = random_state(2, 7)
        expected = np.kron(gates.H, np.eye(2)) @ sv.amplitudes
        sv.apply_gate(gates.H, [0])
        assert np.allclose(sv.amplitudes, expected)

    @pytest.mark.parametrize("qubits", PLACEMENTS, ids=str)
    def test_gate_matches_its_full_operator(self, qubits):
        unitary = random_unitary(2 ** len(qubits), seed=len(qubits))
        sv = random_state(3, 4)
        expected = embed_gate(unitary, qubits, 3) @ sv.amplitudes
        sv.apply_gate(unitary, qubits)
        assert np.allclose(sv.amplitudes, expected)

    def test_swap_gate_consistency(self):
        sv = random_state(3, 11)
        swapped = sv.copy()
        swapped.apply_gate(gates.SWAP, [0, 2])
        tensor = sv.amplitudes.reshape(2, 2, 2)
        assert np.allclose(swapped.amplitudes, np.transpose(tensor, (2, 1, 0)).ravel())


class TestMeasurement:
    def test_marginal_of_bell_state(self):
        sv = Statevector(2)
        sv.apply_gate(gates.H, [0])
        sv.apply_gate(gates.controlled(gates.X), [0, 1])
        assert np.allclose(sv.marginal_probabilities([0]), [0.5, 0.5])
        assert np.allclose(sv.marginal_probabilities([1]), [0.5, 0.5])

    def test_marginal_respects_requested_order(self):
        # |01>: qubit0=0, qubit1=1
        sv = basis_state(2, 0b01)
        assert np.allclose(sv.marginal_probabilities([0, 1]), [0, 1, 0, 0])
        assert np.allclose(sv.marginal_probabilities([1, 0]), [0, 0, 1, 0])

    def test_measurement_collapses(self):
        sv = Statevector(2)
        sv.apply_gate(gates.H, [0])
        sv.apply_gate(gates.controlled(gates.X), [0, 1])
        outcome, collapsed = sv.measure_qubits([0], seed=0)
        # After measuring qubit 0 of a Bell pair, qubit 1 must agree.
        other = collapsed.marginal_probabilities([1])
        assert np.isclose(other[outcome], 1.0)

    @pytest.mark.parametrize("qubits", PLACEMENTS, ids=str)
    def test_marginal_matches_a_sum_over_basis_states(self, qubits):
        sv = random_state(3, 8)
        expected = np.zeros(2 ** len(qubits))
        for index, probability in enumerate(sv.probabilities()):
            outcome = 0
            for q in qubits:
                outcome = (outcome << 1) | ((index >> (2 - q)) & 1)
            expected[outcome] += probability
        assert np.allclose(sv.marginal_probabilities(qubits), expected)

    def test_outcome_frequencies_follow_the_marginal(self):
        sv = random_state(2, 5)
        rng = np.random.default_rng(6)
        draws = [sv.measure_qubits([1, 0], seed=rng)[0] for _ in range(4000)]
        frequencies = np.bincount(draws, minlength=4) / len(draws)
        assert np.abs(frequencies - sv.marginal_probabilities([1, 0])).max() < 0.03

    def test_measuring_a_definite_qubit_leaves_the_state(self):
        sv = basis_state(2, 0b01)
        for seed in range(5):
            outcome, collapsed = sv.measure_qubits([1], seed=seed)
            assert outcome == 1
            assert np.allclose(collapsed.amplitudes, sv.amplitudes)

    def test_collapsed_state_is_the_normalized_projection(self):
        sv = random_state(3, 9)
        outcome, collapsed = sv.measure_qubits([2, 0], seed=1)
        # outcome packs qubit 2 (the index's low bit) above qubit 0 (its high bit)
        kept = [((i & 1) << 1 | i >> 2) == outcome for i in range(8)]
        projected = np.where(kept, sv.amplitudes, 0.0)
        assert np.allclose(collapsed.amplitudes, projected / np.linalg.norm(projected))

    def test_measurement_validates_qubits(self):
        with pytest.raises(QubitError):
            Statevector(2).measure_qubits([2])
        with pytest.raises(QubitError):
            Statevector(2).marginal_probabilities([0, 0])

    @given(seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_probabilities_sum_to_one(self, seed):
        sv = random_state(3, seed)
        assert np.isclose(sv.probabilities().sum(), 1.0)
