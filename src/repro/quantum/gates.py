"""Standard quantum gate matrices.

Every function returns a fresh ``numpy.ndarray`` of complex128 so callers
can mutate results safely.  Single-qubit constants are exposed both as
module-level matrices (``X``, ``H`` ...) and through :func:`gate_matrix`,
which resolves a gate by name with optional parameters — the circuit IR uses
the latter.

Qubit-ordering convention (used consistently across the package):
qubit 0 is the **most significant** bit of the computational basis index,
matching the big-endian convention of most textbooks, so the basis state
``|q0 q1 ... q_{m-1}>`` has index ``q0·2^{m-1} + ... + q_{m-1}``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CircuitError

SQRT2_INV = 1.0 / np.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[SQRT2_INV, SQRT2_INV], [SQRT2_INV, -SQRT2_INV]], dtype=complex)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
TDG = np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex)

SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def rx(theta: float) -> np.ndarray:
    """Rotation about the X axis: exp(-i θ X / 2)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """Rotation about the Y axis: exp(-i θ Y / 2)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Rotation about the Z axis: exp(-i θ Z / 2)."""
    phase = np.exp(-1j * theta / 2)
    return np.array([[phase, 0], [0, np.conj(phase)]], dtype=complex)


def phase(lam: float) -> np.ndarray:
    """Phase gate diag(1, e^{iλ}) — ``P(λ)`` in Qiskit nomenclature."""
    return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=complex)


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """Generic single-qubit unitary with three Euler angles."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def global_phase(gamma: float) -> np.ndarray:
    """Single-qubit identity times e^{iγ} (bookkeeping for controlled phases)."""
    return np.exp(1j * gamma) * np.eye(2, dtype=complex)


def controlled(unitary: np.ndarray, num_controls: int = 1) -> np.ndarray:
    """Embed ``unitary`` as a multi-controlled gate matrix.

    The controls occupy the most significant qubits; the target block sits in
    the bottom-right corner of the enlarged matrix, which matches the
    big-endian qubit ordering used by the simulator.
    """
    unitary = np.asarray(unitary, dtype=complex)
    if num_controls < 1:
        raise CircuitError(f"num_controls must be >= 1, got {num_controls}")
    dim = unitary.shape[0]
    full = np.eye(dim * (2**num_controls), dtype=complex)
    full[-dim:, -dim:] = unitary
    return full


_FIXED_GATES = {
    "i": I2,
    "id": I2,
    "x": X,
    "y": Y,
    "z": Z,
    "h": H,
    "s": S,
    "sdg": SDG,
    "t": T,
    "tdg": TDG,
    "swap": SWAP,
}

_PARAMETRIC_GATES = {
    "rx": rx,
    "ry": ry,
    "rz": rz,
    "p": phase,
    "phase": phase,
    "u3": u3,
    "gphase": global_phase,
}


def gate_matrix(name: str, params: tuple = ()) -> np.ndarray:
    """Resolve a gate name (case-insensitive) to its matrix.

    Parameters
    ----------
    name:
        A fixed gate (``"x"``, ``"h"``, ``"swap"`` ...) or a parametric one
        (``"rx"``, ``"p"``, ``"u3"`` ...).
    params:
        Parameters for parametric gates; must be empty for fixed gates.
    """
    key = name.lower()
    if key in _FIXED_GATES:
        if params:
            raise CircuitError(f"gate {name!r} takes no parameters")
        return _FIXED_GATES[key].copy()
    if key in _PARAMETRIC_GATES:
        return _PARAMETRIC_GATES[key](*params)
    raise CircuitError(f"unknown gate {name!r}")
