"""Tests for the quantum-circuit IR."""

import numpy as np
import pytest

from repro.exceptions import CircuitError, QubitError
from repro.quantum import gates
from repro.quantum.circuit import Operation, QuantumCircuit
from repro.quantum.statevector import Statevector
from repro.utils.linalg import is_unitary


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
        qc = QuantumCircuit(2).h(0).cx(0, 1).rz(0.3, 1).swap(0, 1)
        assert is_unitary(qc.to_matrix())


class TestAlgebra:
    def test_inverse_cancels(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).t(1).rx(0.7, 0)
        roundtrip = QuantumCircuit(2).compose(qc).compose(qc.inverse())
        assert np.allclose(roundtrip.to_matrix(), np.eye(4))

    def test_compose_with_mapping(self):
        inner = QuantumCircuit(1).x(0)
        outer = QuantumCircuit(3).compose(inner, qubits=(2,))
        sv = outer.statevector()
        assert np.isclose(abs(sv.amplitudes[0b001]), 1.0)

    def test_compose_requires_matching_size_without_map(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2).compose(QuantumCircuit(3))

    def test_compose_mapping_length_checked(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(3).compose(QuantumCircuit(2), qubits=(0,))

    def test_controlled_circuit(self):
        flip = QuantumCircuit(1).x(0)
        controlled = flip.controlled()
        # control |0>: nothing happens
        sv = controlled.statevector()
        assert np.isclose(abs(sv.amplitudes[0b00]), 1.0)
        # control |1>: target flips
        sv = QuantumCircuit(2).x(0).compose(controlled).statevector()
        assert np.isclose(abs(sv.amplitudes[0b11]), 1.0)

    def test_power_repeats(self):
        qc = QuantumCircuit(1).rx(0.3, 0)
        assert np.allclose(qc.power(3).to_matrix(), gates.rx(0.9))

    def test_power_negative_rejected(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(1).power(-1)

    def test_power_zero_is_identity(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1)
        assert np.allclose(qc.power(0).to_matrix(), np.eye(4))


class TestOperations:
    def test_operation_inverse_matrix(self):
        op = Operation(name="t", qubits=(0,))
        assert np.allclose(op.inverse().resolve_matrix(), gates.TDG)

    def test_gate_counts(self):
        qc = QuantumCircuit(2).h(0).h(1).cx(0, 1)
        counts = qc.gate_counts()
        assert counts["h"] == 2 and counts["cx"] == 1

    def test_draw_contains_ops(self):
        text = QuantumCircuit(2).h(0).cx(0, 1).draw()
        assert "h" in text and "cx" in text

    def test_repr(self):
        assert "num_qubits=2" in repr(QuantumCircuit(2))

    def test_operations_tuple_is_immutable_view(self):
        qc = QuantumCircuit(1).x(0)
        ops = qc.operations
        assert isinstance(ops, tuple) and len(ops) == 1


class TestTwoQubitGates:
    def test_cz_is_cx_conjugated_by_hadamards(self):
        cz = QuantumCircuit(2).cz(0, 1).to_matrix()
        conjugated = QuantumCircuit(2).h(1).cx(0, 1).h(1).to_matrix()
        assert np.allclose(cz, conjugated)

    def test_cz_is_symmetric_in_its_qubits(self):
        forward = QuantumCircuit(2).cz(0, 1).to_matrix()
        backward = QuantumCircuit(2).cz(1, 0).to_matrix()
        assert np.allclose(forward, backward)
        assert np.allclose(forward, np.diag([1, 1, 1, -1]))

    @pytest.mark.parametrize("lam", [0.0, 0.4, np.pi / 2, np.pi, 5.0])
    def test_cp_phases_only_the_all_ones_state(self, lam):
        matrix = QuantumCircuit(2).cp(lam, 0, 1).to_matrix()
        assert np.allclose(matrix, np.diag([1, 1, 1, np.exp(1j * lam)]))

    def test_cp_of_pi_is_cz(self):
        assert np.allclose(
            QuantumCircuit(2).cp(np.pi, 1, 0).to_matrix(),
            QuantumCircuit(2).cz(0, 1).to_matrix(),
        )

    def test_cp_composes_additively(self):
        twice = QuantumCircuit(2).cp(0.3, 0, 1).cp(0.5, 0, 1).to_matrix()
        assert np.allclose(twice, QuantumCircuit(2).cp(0.8, 0, 1).to_matrix())

    def test_two_qubit_gates_are_counted_by_name(self):
        qc = QuantumCircuit(3).cz(0, 1).cz(1, 2).cp(0.25, 0, 2)
        counts = qc.gate_counts()
        assert counts["cz"] == 2
        assert sum(counts.values()) == 3
