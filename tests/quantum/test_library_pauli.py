"""Tests for circuit library (QFT) and Pauli algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from matrix_checks import is_unitary

from repro.exceptions import CircuitError
from repro.quantum.library import inverse_qft_circuit, qft_circuit
from repro.quantum.pauli import (
    PauliTerm,
    all_pauli_labels,
    pauli_decompose,
    pauli_matrix,
)


class TestQFT:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_qft_matches_dft_matrix(self, m):
        # F[j, k] = exp(+2πi jk / 2^m) / sqrt(2^m): NumPy's orthonormal
        # inverse DFT of the identity
        dft = np.fft.ifft(np.eye(2**m), norm="ortho")
        assert np.allclose(qft_circuit(m).to_matrix(), dft)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_inverse_qft_is_adjoint(self, m):
        qft = qft_circuit(m).to_matrix()
        iqft = inverse_qft_circuit(m).to_matrix()
        assert np.allclose(iqft, qft.conj().T)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_inverse_qft_without_swap_is_adjoint(self, m):
        qft = qft_circuit(m, swap=False).to_matrix()
        iqft = inverse_qft_circuit(m, swap=False).to_matrix()
        assert np.allclose(iqft @ qft, np.eye(2**m))

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
        assert np.allclose(sum(t.weighted_matrix() for t in terms), hermitian)

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

    @pytest.mark.parametrize("label", ["X", "Y", "Z", "XZ", "YY", "IZX"])
    def test_decompose_of_a_pauli_string_is_that_term(self, label):
        terms = pauli_decompose(2.5 * pauli_matrix(label))
        assert [t.label for t in terms] == [label]
        assert np.isclose(terms[0].coefficient, 2.5)

    def test_decompose_rejects_non_hermitian(self):
        with pytest.raises(CircuitError):
            pauli_decompose(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_decompose_rejects_non_power_of_two(self):
        with pytest.raises(CircuitError):
            pauli_decompose(np.eye(3))


class TestPauliTerm:
    @pytest.mark.parametrize("label", ["I", "X", "Y", "Z", "XY", "ZZI"])
    def test_weighted_matrix_scales_the_string(self, label):
        term = PauliTerm(label, -0.75)
        assert term.num_qubits == len(label)
        assert np.allclose(term.weighted_matrix(), -0.75 * pauli_matrix(label))
        assert np.allclose(term.matrix(), pauli_matrix(label))
