"""Unit and property tests for the gate library."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from matrix_checks import is_unitary

from repro.exceptions import CircuitError
from repro.quantum import gates

ANGLES = st.floats(-4 * np.pi, 4 * np.pi, allow_nan=False, allow_infinity=False)

#: Every name ``gates.gate_matrix`` resolves without parameters.
FIXED_GATE_NAMES = ("h", "i", "id", "s", "sdg", "swap", "t", "tdg", "x", "y", "z")


class TestFixedGates:
    def test_pauli_matrices_square_to_identity(self):
        for pauli in (gates.X, gates.Y, gates.Z):
            assert np.allclose(pauli @ pauli, np.eye(2))

    def test_pauli_anticommutation(self):
        assert np.allclose(gates.X @ gates.Y + gates.Y @ gates.X, 0)
        assert np.allclose(gates.Y @ gates.Z + gates.Z @ gates.Y, 0)
        assert np.allclose(gates.X @ gates.Z + gates.Z @ gates.X, 0)

    def test_xyz_cyclic_product(self):
        assert np.allclose(gates.X @ gates.Y, 1j * gates.Z)

    def test_hadamard_diagonalizes_x(self):
        assert np.allclose(gates.H @ gates.X @ gates.H, gates.Z)

    def test_s_squared_is_z(self):
        assert np.allclose(gates.S @ gates.S, gates.Z)

    def test_t_squared_is_s(self):
        assert np.allclose(gates.T @ gates.T, gates.S)

    def test_sdg_tdg_are_adjoints(self):
        assert np.allclose(gates.SDG, gates.S.conj().T)
        assert np.allclose(gates.TDG, gates.T.conj().T)

    def test_swap_exchanges_basis_states(self):
        assert np.allclose(gates.SWAP @ np.array([0, 1, 0, 0]), [0, 0, 1, 0])

    def test_all_fixed_gates_unitary(self):
        for name in FIXED_GATE_NAMES:
            assert is_unitary(gates.gate_matrix(name)), name


class TestParametricGates:
    @given(theta=ANGLES)
    def test_rotations_are_unitary(self, theta):
        for fn in (gates.rx, gates.ry, gates.rz, gates.phase):
            assert is_unitary(fn(theta))

    @given(theta=ANGLES)
    def test_rotation_composition(self, theta):
        half = gates.ry(theta / 2)
        assert np.allclose(half @ half, gates.ry(theta))

    def test_rx_pi_is_minus_i_x(self):
        assert np.allclose(gates.rx(np.pi), -1j * gates.X)

    def test_rz_2pi_is_minus_identity(self):
        assert np.allclose(gates.rz(2 * np.pi), -np.eye(2))

    @given(theta=ANGLES, phi=ANGLES, lam=ANGLES)
    def test_u3_unitary(self, theta, phi, lam):
        assert is_unitary(gates.u3(theta, phi, lam))

    def test_u3_special_cases(self):
        assert np.allclose(gates.u3(0, 0, 0), np.eye(2))
        # u3(pi/2, 0, pi) is the Hadamard
        assert np.allclose(gates.u3(np.pi / 2, 0, np.pi), gates.H)

    def test_phase_gate_matches_p(self):
        assert np.allclose(gates.gate_matrix("p", (0.3,)), gates.phase(0.3))


class TestControlled:
    def test_cnot_matrix(self):
        cx = gates.controlled(gates.X)
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.allclose(cx, expected)

    def test_toffoli_from_double_control(self):
        ccx = gates.controlled(gates.X, num_controls=2)
        assert ccx.shape == (8, 8)
        state = np.zeros(8)
        state[0b110] = 1.0
        assert np.allclose(ccx @ state, np.eye(8)[0b111])

    def test_controlled_preserves_unitarity(self):
        assert is_unitary(gates.controlled(gates.u3(0.3, 0.1, 2.0)))

    def test_controlled_rejects_zero_controls(self):
        with pytest.raises(CircuitError):
            gates.controlled(gates.X, num_controls=0)


class TestGateMatrixLookup:
    def test_unknown_gate_raises(self):
        with pytest.raises(CircuitError):
            gates.gate_matrix("nope")

    def test_fixed_gate_with_params_raises(self):
        with pytest.raises(CircuitError):
            gates.gate_matrix("x", (0.1,))

    def test_returns_fresh_copies(self):
        first = gates.gate_matrix("x")
        first[0, 0] = 99
        assert gates.gate_matrix("x")[0, 0] == 0


#: One parameter tuple per parametric gate name.
GATE_PARAMS = {
    "rx": (0.7,),
    "ry": (0.7,),
    "rz": (0.7,),
    "p": (0.7,),
    "phase": (0.7,),
    "u3": (0.3, 0.5, 0.7),
    "gphase": (0.7,),
}
#: Every name ``gates.gate_matrix`` resolves.
GATE_NAMES = tuple(sorted(FIXED_GATE_NAMES + tuple(GATE_PARAMS)))


class TestGateTable:
    @pytest.mark.parametrize("name", GATE_NAMES)
    def test_every_named_gate_is_a_unitary_on_one_or_two_qubits(self, name):
        matrix = gates.gate_matrix(name, GATE_PARAMS.get(name, ()))
        assert matrix.shape in ((2, 2), (4, 4))
        assert is_unitary(matrix), name

    @pytest.mark.parametrize("name", GATE_NAMES)
    def test_lookup_ignores_case(self, name):
        params = GATE_PARAMS.get(name, ())
        assert np.array_equal(
            gates.gate_matrix(name.upper(), params), gates.gate_matrix(name, params)
        )

    def test_global_phase_is_a_scalar_identity(self):
        gamma = 0.7
        assert np.allclose(gates.global_phase(gamma), np.exp(1j * gamma) * np.eye(2))
        assert np.allclose(gates.global_phase(2 * np.pi), np.eye(2))

    def test_controlled_global_phase_is_a_phase_gate_on_the_control(self):
        # the bookkeeping a controlled-U needs when U carries a global phase
        gamma = 0.7
        controlled = gates.controlled(gates.global_phase(gamma))
        assert np.allclose(controlled, np.kron(gates.phase(gamma), np.eye(2)))
