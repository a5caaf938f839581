"""Tests for circuit library (QFT) and Pauli algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import CircuitError
from repro.quantum.library import (
    basis_preparation,
    hadamard_layer,
    inverse_qft_circuit,
    qft_circuit,
    qft_matrix,
)
from repro.quantum.pauli import (
    PauliTerm,
    all_pauli_labels,
    pauli_decompose,
    pauli_matrix,
    pauli_reconstruct,
)
from repro.utils.linalg import is_unitary


class TestQFT:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_qft_matches_dft_matrix(self, m):
        assert np.allclose(qft_circuit(m).to_matrix(), qft_matrix(m))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_inverse_qft_is_adjoint(self, m):
        qft = qft_circuit(m).to_matrix()
        iqft = inverse_qft_circuit(m).to_matrix()
        assert np.allclose(iqft, qft.conj().T)

    def test_qft_unitary(self):
        assert is_unitary(qft_circuit(4).to_matrix())

    def test_qft_no_swap_differs_by_bit_reversal(self):
        m = 3
        plain = qft_circuit(m, swap=False).to_matrix()
        full = qft_circuit(m, swap=True).to_matrix()
        # bit-reversal permutation on rows recovers the swapped version
        dim = 2**m
        perm = np.zeros((dim, dim))
        for i in range(dim):
            rev = int(format(i, f"0{m}b")[::-1], 2)
            perm[rev, i] = 1.0
        assert np.allclose(perm @ plain, full)

    def test_qft_on_zero_state_gives_uniform(self):
        sv = qft_circuit(3).statevector()
        assert np.allclose(sv.probabilities(), 1 / 8)


class TestLayers:
    def test_hadamard_layer_uniform(self):
        sv = hadamard_layer(3).statevector()
        assert np.allclose(sv.probabilities(), 1 / 8)

    def test_hadamard_layer_subset(self):
        sv = hadamard_layer(2, qubits=[1]).statevector()
        assert np.allclose(sv.probabilities(), [0.5, 0.5, 0, 0])

    @pytest.mark.parametrize("index", [0, 3, 5, 7])
    def test_basis_preparation(self, index):
        sv = basis_preparation(3, index).statevector()
        assert np.isclose(abs(sv.amplitudes[index]), 1.0)

    def test_basis_preparation_range_check(self):
        with pytest.raises(CircuitError):
            basis_preparation(2, 4)


class TestPauli:
    def test_pauli_matrix_kron_order(self):
        # "XI" acts with X on qubit 0 (most significant)
        xi = pauli_matrix("XI")
        state = np.zeros(4)
        state[0b00] = 1.0
        assert np.allclose(xi @ state, np.eye(4)[0b10])

    def test_all_labels_count(self):
        assert len(list(all_pauli_labels(2))) == 16

    def test_all_labels_unique(self):
        labels = list(all_pauli_labels(3))
        assert len(set(labels)) == len(labels)

    def test_invalid_label_raises(self):
        with pytest.raises(CircuitError):
            pauli_matrix("XQ")

    def test_invalid_term_raises(self):
        with pytest.raises(CircuitError):
            PauliTerm("A", 1.0)

    @given(seed=st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_decompose_reconstruct_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        hermitian = raw + raw.conj().T
        terms = pauli_decompose(hermitian)
        assert np.allclose(pauli_reconstruct(terms, 2), hermitian)

    def test_decompose_coefficients_real(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        hermitian = raw + raw.conj().T
        for term in pauli_decompose(hermitian):
            assert isinstance(term.coefficient, float)

    def test_decompose_identity(self):
        terms = pauli_decompose(np.eye(4))
        assert len(terms) == 1
        assert terms[0].label == "II"
        assert np.isclose(terms[0].coefficient, 1.0)

    def test_decompose_rejects_non_hermitian(self):
        with pytest.raises(CircuitError):
            pauli_decompose(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_decompose_rejects_non_power_of_two(self):
        with pytest.raises(CircuitError):
            pauli_decompose(np.eye(3))

    def test_reconstruct_size_mismatch(self):
        with pytest.raises(CircuitError):
            pauli_reconstruct([PauliTerm("X", 1.0)], 2)


class TestPauliTerm:
    @pytest.mark.parametrize("label", ["I", "X", "Y", "Z", "XY", "ZZI"])
    def test_weighted_matrix_scales_the_string(self, label):
        term = PauliTerm(label, -0.75)
        assert term.num_qubits == len(label)
        assert np.allclose(term.weighted_matrix(), -0.75 * pauli_matrix(label))
        assert np.allclose(term.matrix(), pauli_matrix(label))
