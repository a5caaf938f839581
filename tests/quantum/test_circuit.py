"""Tests for the quantum-circuit IR."""

import numpy as np
import pytest
from matrix_checks import embed_gate, is_unitary

from repro.exceptions import CircuitError, QubitError
from repro.quantum import gates
from repro.quantum.circuit import Operation, QuantumCircuit
from repro.quantum.statevector import Statevector


#: One parameter tuple per named gate the inverse test covers.
NAMED_GATES = {
    "h": (), "s": (), "t": (), "y": (), "swap": (),
    "rx": (0.7,), "rz": (-1.3,), "u3": (0.3, 0.5, 0.7),
}


class TestConstruction:
    def test_empty_circuit_is_identity(self):
        qc = QuantumCircuit(2)
        assert np.allclose(qc.to_matrix(), np.eye(4))

    def test_zero_qubits_rejected(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(0)

    def test_fluent_interface_chains(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1)
        assert len(qc) == 2

    def test_add_gate_validates_arity(self):
        qc = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            qc.add_gate("swap", (0,))

    def test_qubit_range_validated(self):
        with pytest.raises(QubitError):
            QuantumCircuit(1).h(3)

    def test_add_unitary_shape_checked(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2).add_unitary(np.eye(3), (0, 1))

    def test_append_validates_qubits(self):
        with pytest.raises(QubitError):
            QuantumCircuit(2).append(Operation(name="x", qubits=(2,)))
        with pytest.raises(QubitError):
            QuantumCircuit(2).append(Operation(name="swap", qubits=(1, 1)))


class TestExecution:
    def test_bell_statevector(self):
        sv = QuantumCircuit(2).h(0).cx(0, 1).statevector()
        assert np.allclose(sv.probabilities(), [0.5, 0, 0, 0.5])

    def test_ghz_state(self):
        sv = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2).statevector()
        probs = sv.probabilities()
        assert np.isclose(probs[0], 0.5) and np.isclose(probs[7], 0.5)

    def test_run_does_not_mutate_input(self):
        qc = QuantumCircuit(1).x(0)
        initial = Statevector(1)
        qc.run(initial)
        assert initial.amplitudes[0] == 1.0

    def test_run_rejects_size_mismatch(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2).run(Statevector(3))

    def test_to_matrix_is_unitary(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).add_gate("rz", (1,), (0.3,)).swap(0, 1)
        assert is_unitary(qc.to_matrix())


class TestControlledUnitary:
    @pytest.mark.parametrize(
        "control, targets", [(0, (1,)), (2, (0,)), (1, (2, 0)), (0, (2, 1))]
    )
    def test_cu_is_the_controlled_block_on_its_qubits(self, control, targets):
        rng = np.random.default_rng(len(targets))
        dim = 2 ** len(targets)
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        unitary = np.linalg.qr(raw)[0]
        matrix = QuantumCircuit(3).cu(unitary, control, targets).to_matrix()
        # identity where the control reads 0, the unitary on the targets where
        # it reads 1
        low = np.diag([1.0, 0.0])
        high = np.diag([0.0, 1.0])
        expected = embed_gate(np.kron(low, np.eye(dim)), (control, *targets), 3)
        expected += embed_gate(np.kron(high, unitary), (control, *targets), 3)
        assert np.allclose(matrix, expected)

    def test_cu_leaves_the_control_clear_state_alone(self):
        state = QuantumCircuit(2).h(1).statevector()
        after = QuantumCircuit(2).cu(gates.X, 0, (1,)).run(state)
        assert np.allclose(after.amplitudes, state.amplitudes)


class TestAlgebra:
    def test_inverse_cancels(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).t(1).add_gate("rx", (0,), (0.7,))
        roundtrip = QuantumCircuit(2).compose(qc).compose(qc.inverse())
        assert np.allclose(roundtrip.to_matrix(), np.eye(4))

    def test_compose_with_mapping(self):
        inner = QuantumCircuit(1).x(0)
        outer = QuantumCircuit(3).compose(inner, qubits=(2,))
        sv = outer.statevector()
        assert np.isclose(abs(sv.amplitudes[0b001]), 1.0)

    def test_remapped_compose_matches_the_full_operator(self):
        sub = QuantumCircuit(2).h(0).cx(0, 1).t(1)
        matrix = QuantumCircuit(3).compose(sub, qubits=(2, 0)).to_matrix()
        assert np.allclose(matrix, embed_gate(sub.to_matrix(), (2, 0), 3))

    def test_compose_keeps_raw_unitaries(self):
        unitary = gates.u3(0.2, 0.4, 0.6)
        sub = QuantumCircuit(1).add_unitary(unitary, (0,), label="V")
        op = QuantumCircuit(2).compose(sub, qubits=(1,)).operations[0]
        assert op.qubits == (1,) and op.label == "V"
        assert np.array_equal(op.resolve_matrix(), unitary)

    def test_inverse_reverses_the_operation_order(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).t(1)
        inverse = qc.inverse()
        assert [op.qubits for op in inverse.operations] == [(1,), (0, 1), (0,)]
        assert np.allclose(inverse.to_matrix(), qc.to_matrix().conj().T)

    def test_compose_requires_matching_size_without_map(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2).compose(QuantumCircuit(3))

    def test_compose_mapping_length_checked(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(3).compose(QuantumCircuit(2), qubits=(0,))


class TestOperations:
    def test_operation_inverse_matrix(self):
        op = Operation(name="t", qubits=(0,))
        assert np.allclose(op.inverse().resolve_matrix(), gates.TDG)

    @pytest.mark.parametrize("name", sorted(NAMED_GATES))
    def test_named_gate_inverse_is_its_adjoint(self, name):
        params = NAMED_GATES[name]
        qubits = (0, 1) if name == "swap" else (0,)
        op = Operation(name=name, qubits=qubits, params=params)
        matrix = gates.gate_matrix(name, params)
        inverse = op.inverse()
        assert inverse.qubits == qubits
        assert np.allclose(inverse.resolve_matrix() @ matrix, np.eye(matrix.shape[0]))

    def test_repr(self):
        assert "num_qubits=2" in repr(QuantumCircuit(2))

    def test_operations_tuple_is_immutable_view(self):
        qc = QuantumCircuit(1).x(0)
        ops = qc.operations
        assert isinstance(ops, tuple) and len(ops) == 1


class TestTwoQubitGates:
    @pytest.mark.parametrize("lam", [0.0, 0.4, np.pi / 2, np.pi, 5.0])
    def test_cp_phases_only_the_all_ones_state(self, lam):
        matrix = QuantumCircuit(2).cp(lam, 0, 1).to_matrix()
        assert np.allclose(matrix, np.diag([1, 1, 1, np.exp(1j * lam)]))

    def test_cp_of_pi_is_cz(self):
        cz = np.diag([1, 1, 1, -1])
        assert np.allclose(QuantumCircuit(2).cp(np.pi, 1, 0).to_matrix(), cz)
        # and CZ is H·CX·H on the target
        conjugated = QuantumCircuit(2).h(1).cx(0, 1).h(1).to_matrix()
        assert np.allclose(conjugated, cz)

    def test_cp_composes_additively(self):
        twice = QuantumCircuit(2).cp(0.3, 0, 1).cp(0.5, 0, 1).to_matrix()
        assert np.allclose(twice, QuantumCircuit(2).cp(0.8, 0, 1).to_matrix())
