"""A minimal but complete quantum-circuit intermediate representation.

:class:`QuantumCircuit` stores a list of :class:`Operation` records.  Each
operation is either a *named gate* (resolved through
``repro.quantum.gates.gate_matrix`` at simulation time) or a *raw unitary*
(an explicit matrix, used for oracle-style gates such as ``exp(i L t)``).
Circuits compose and invert, and ``cu`` controls an arbitrary unitary,
which is everything the QPE construction needs.

The class deliberately has no symbolic parameters or classical registers:
measurement lives in the simulator (``Statevector``) and in
``repro.quantum.measurement``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import CircuitError, QubitError
from repro.quantum import gates
from repro.quantum.statevector import Statevector


@dataclass(frozen=True)
class Operation:
    """One gate application inside a circuit.

    Attributes
    ----------
    name:
        Gate name for named gates, or ``"unitary"`` for raw matrices.
    qubits:
        Target qubits, most significant first (big-endian).
    params:
        Parameters for parametric named gates.
    matrix:
        Explicit unitary for raw-matrix operations (``None`` otherwise).
    label:
        Optional human-readable tag, e.g. ``"cx"`` or ``"c-U^4"``.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple = ()
    matrix: np.ndarray | None = field(default=None, compare=False)
    label: str = ""

    def resolve_matrix(self) -> np.ndarray:
        """The concrete unitary implementing this operation."""
        if self.matrix is not None:
            return self.matrix
        return gates.gate_matrix(self.name, self.params)

    def inverse(self) -> "Operation":
        """The adjoint operation (named gates become raw inverses)."""
        matrix = self.resolve_matrix().conj().T
        return Operation(
            name=f"{self.name}_dg" if self.name != "unitary" else "unitary",
            qubits=self.qubits,
            matrix=matrix,
            label=f"{self.label}†" if self.label else "",
        )


class QuantumCircuit:
    """An ordered list of gate operations on ``num_qubits`` qubits.

    Examples
    --------
    Build a Bell pair:

    >>> qc = QuantumCircuit(2)
    >>> qc.h(0).cx(0, 1)
    >>> qc.statevector().probabilities().round(3)
    array([0.5, 0. , 0. , 0.5])
    """

    def __init__(self, num_qubits: int, name: str = "circuit"):
        if num_qubits < 1:
            raise CircuitError(f"need at least one qubit, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._operations: list[Operation] = []

    # -- bookkeeping ---------------------------------------------------------

    @property
    def operations(self) -> tuple[Operation, ...]:
        """Immutable view of the operation list."""
        return tuple(self._operations)

    def __len__(self) -> int:
        return len(self._operations)

    def _check_qubits(self, qubits) -> tuple[int, ...]:
        qubits = tuple(int(q) for q in qubits)
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise QubitError(
                    f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                )
        if len(set(qubits)) != len(qubits):
            raise QubitError(f"duplicate qubits in {qubits}")
        return qubits

    def append(self, operation: Operation) -> "QuantumCircuit":
        """Append a pre-built operation (qubits are validated)."""
        self._check_qubits(operation.qubits)
        self._operations.append(operation)
        return self

    def add_gate(self, name: str, qubits, params: tuple = ()) -> "QuantumCircuit":
        """Append a named gate; shape is validated eagerly."""
        qubits = self._check_qubits(qubits)
        matrix = gates.gate_matrix(name, params)
        if matrix.shape != (2 ** len(qubits),) * 2:
            raise CircuitError(
                f"gate {name!r} has dimension {matrix.shape[0]}, "
                f"but {len(qubits)} qubit(s) were given"
            )
        self._operations.append(Operation(name=name, qubits=qubits, params=params))
        return self

    def add_unitary(self, matrix: np.ndarray, qubits, label="U") -> "QuantumCircuit":
        """Append an explicit unitary matrix acting on ``qubits``."""
        qubits = self._check_qubits(qubits)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2 ** len(qubits),) * 2:
            raise CircuitError(
                f"unitary shape {matrix.shape} does not fit {len(qubits)} qubit(s)"
            )
        self._operations.append(
            Operation(name="unitary", qubits=qubits, matrix=matrix, label=label)
        )
        return self

    # -- fluent gate helpers ---------------------------------------------------

    def h(self, qubit: int) -> "QuantumCircuit":
        """Hadamard."""
        return self.add_gate("h", (qubit,))

    def x(self, qubit: int) -> "QuantumCircuit":
        """Pauli-X."""
        return self.add_gate("x", (qubit,))

    def t(self, qubit: int) -> "QuantumCircuit":
        """T gate."""
        return self.add_gate("t", (qubit,))

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        """SWAP two qubits."""
        return self.add_gate("swap", (a, b))

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-X (CNOT)."""
        return self.add_unitary(gates.controlled(gates.X), (control, target), "cx")

    def cp(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled phase gate."""
        return self.add_unitary(
            gates.controlled(gates.phase(lam)), (control, target), f"cp({lam:.3g})"
        )

    def cu(self, matrix: np.ndarray, control: int, targets, label="cU"):
        """Controlled application of an arbitrary unitary ``matrix``."""
        targets = tuple(targets)
        return self.add_unitary(
            gates.controlled(np.asarray(matrix, dtype=complex)),
            (control, *targets),
            label,
        )

    # -- circuit algebra -------------------------------------------------------

    def compose(self, other: "QuantumCircuit", qubits=None) -> "QuantumCircuit":
        """Append ``other``'s operations, optionally remapped onto ``qubits``.

        ``qubits[i]`` receives what ``other`` applied to its qubit ``i``.
        """
        if qubits is None:
            if other.num_qubits != self.num_qubits:
                raise CircuitError(
                    "compose without a qubit map requires equal register sizes"
                )
            mapping = tuple(range(self.num_qubits))
        else:
            mapping = self._check_qubits(qubits)
            if len(mapping) != other.num_qubits:
                raise CircuitError(
                    f"qubit map has {len(mapping)} entries for a "
                    f"{other.num_qubits}-qubit circuit"
                )
        for op in other.operations:
            remapped = tuple(mapping[q] for q in op.qubits)
            self._operations.append(
                Operation(
                    name=op.name,
                    qubits=remapped,
                    params=op.params,
                    matrix=op.matrix,
                    label=op.label,
                )
            )
        return self

    def inverse(self) -> "QuantumCircuit":
        """The adjoint circuit (reversed order, each gate inverted)."""
        inv = QuantumCircuit(self.num_qubits, name=f"{self.name}_dg")
        for op in reversed(self._operations):
            inv.append(op.inverse())
        return inv

    # -- evaluation --------------------------------------------------------

    def run(self, state: Statevector | None = None) -> Statevector:
        """Apply the circuit to ``state`` (default ``|0...0>``); returns new state."""
        if state is None:
            state = Statevector(self.num_qubits)
        else:
            if state.num_qubits != self.num_qubits:
                raise CircuitError(
                    f"state has {state.num_qubits} qubits, circuit needs "
                    f"{self.num_qubits}"
                )
            state = state.copy()
        for op in self._operations:
            state.apply_gate(op.resolve_matrix(), op.qubits)
        return state

    def statevector(self) -> Statevector:
        """The state this circuit prepares from ``|0...0>``."""
        return self.run()

    def to_matrix(self) -> np.ndarray:
        """The full 2^m x 2^m unitary of the circuit (exponential in m)."""
        dim = 2**self.num_qubits
        result = np.eye(dim, dtype=complex)
        state = Statevector(self.num_qubits)
        for column in range(dim):
            amplitudes = np.zeros(dim, dtype=complex)
            amplitudes[column] = 1.0
            state._amplitudes = amplitudes
            out = state.copy()
            for op in self._operations:
                out.apply_gate(op.resolve_matrix(), op.qubits)
            result[:, column] = out._amplitudes
        return result

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"ops={len(self)})"
        )
