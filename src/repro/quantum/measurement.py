"""The finite-shot state tomography model of the readout stage.

:func:`tomography_estimate` is the finite-shot readout model used by the
end-to-end pipeline: the magnitudes of a pure state are estimated from a
computational-basis multinomial sample and the relative phases from a
simulated interference measurement whose variance follows the same 1/shots
law.  With ``shots → ∞`` the estimate converges to the true state
(property-tested), and the l2 error scales as O(sqrt(d/shots)), matching the
Kerenidis–Prakash vector-tomography guarantee the paper builds on.

:func:`tomography_estimate_batch` is the same model vectorized across many
states at once: all deterministic arithmetic (normalization, magnitudes,
phase noise application) runs as whole-matrix NumPy operations, while the
random draws are taken from one caller-supplied generator *per row*: two
plain row loops draw every row's magnitude multinomial, then every row's
phase normals, each from that row's own stream.  Because each row consumes
exactly the draws — same distributions, same arguments, same order — that
:func:`tomography_estimate` would take from the same generator, the batched
path is bit-identical to a per-row loop at the same seeds;
:func:`tomography_estimate` is in fact a batch of one.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import EncodingError
from repro.utils.rng import ensure_rng


def tomography_estimate(
    state: np.ndarray,
    shots: int,
    seed=None,
) -> np.ndarray:
    """Finite-shot l2 tomography of a pure state.

    Parameters
    ----------
    state:
        The true normalized complex statevector (the simulator knows it; a
        real device would not).
    shots:
        Measurement budget.  Half the shots estimate magnitudes, half the
        relative phases.
    seed:
        RNG seed or generator.

    Returns
    -------
    Estimated complex unit vector.  ``shots=0`` returns the exact state
    (the noiseless limit, used by exact-mode experiments).
    """
    state = np.asarray(state, dtype=complex).ravel()
    return tomography_estimate_batch(state[None, :], shots, [ensure_rng(seed)])[0]


def tomography_estimate_batch(
    states: np.ndarray,
    shots: int,
    rngs,
) -> np.ndarray:
    """Vectorized :func:`tomography_estimate` across many states at once.

    Parameters
    ----------
    states:
        ``(rows, dim)`` complex matrix; each row is one (non-zero) state to
        tomograph.  Rows need not be normalized — each is normalized
        independently, exactly as the scalar path does.
    shots:
        Measurement budget shared by every row (0 = noiseless readout).
    rngs:
        One :class:`numpy.random.Generator` per row.  Row ``i`` draws only
        from ``rngs[i]``, in the same order as the scalar path, so a batch
        is bit-identical to looping :func:`tomography_estimate` over rows
        with the same generators.

    Returns
    -------
    ``(rows, dim)`` complex matrix of estimated unit vectors.
    """
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2:
        raise EncodingError(
            f"states must be a (rows, dim) matrix, got shape {states.shape}"
        )
    num_rows, dim = states.shape
    if len(rngs) != num_rows:
        raise EncodingError(
            f"need one generator per row: {num_rows} rows, {len(rngs)} rngs"
        )
    if shots < 0:
        raise EncodingError(f"shots must be non-negative, got {shots}")
    # One squared-magnitude pass serves normalization, the multinomial
    # pvals and the phase-noise scale.
    squared = states.real**2 + states.imag**2
    squared_norms = np.sum(squared, axis=-1)
    if num_rows and squared_norms.min() < 1e-28:
        raise EncodingError("cannot tomograph the zero vector")
    if shots == 0:
        return states / np.sqrt(squared_norms)[:, None]
    magnitude_shots = max(shots // 2, 1)
    phase_shots = max(shots - magnitude_shots, 1)
    probability = squared / squared_norms[:, None]
    counts = np.empty((num_rows, dim))

    # Draw pass 1: the magnitude multinomial of every row, from that row's
    # own generator.
    for row in range(num_rows):
        counts[row] = rngs[row].multinomial(magnitude_shots, probability[row])
    magnitudes = np.sqrt(counts / magnitude_shots)
    # Relative-phase estimation: each component's phase is measured through
    # interference against a reference component; the phase error of
    # component s scales as 1/sqrt(phase_shots * p_s) — low-mass components
    # carry proportionally noisier phases, exactly as on hardware.  Only
    # *observed* components (non-zero magnitude count) need a phase: the
    # others enter the estimate with magnitude exactly zero, so their
    # phase draws and trigonometry are skipped.  True phases are read off
    # the raw states (phase is scale-invariant).
    observed = counts != 0
    observed_per_row = np.count_nonzero(observed, axis=-1)
    phase_sigma = np.minimum(
        1.0
        / np.sqrt(phase_shots * np.clip(probability[observed], 1e-12, None)),
        np.pi,
    )
    noise = np.empty(phase_sigma.size)
    offsets = np.concatenate([[0], np.cumsum(observed_per_row)])

    # Draw pass 2: each row's phase normals, drawn after its multinomial
    # exactly as the scalar path orders them; rows write disjoint slices
    # of the flattened noise vector.
    for row in range(num_rows):
        low, high = offsets[row], offsets[row + 1]
        noise[low:high] = rngs[row].normal(0.0, phase_sigma[low:high])
    phases = np.arctan2(states.imag[observed], states.real[observed]) + noise
    values = magnitudes[observed]
    estimates = np.zeros((num_rows, dim), dtype=complex)
    estimates.real[observed] = values * np.cos(phases)
    estimates.imag[observed] = values * np.sin(phases)
    # ||estimate||² = Σ counts/magnitude_shots = 1 up to rounding (the
    # multinomial distributes every shot), so the renormalization below is
    # a guard against accumulated rounding; the basis-state fallback can
    # only trigger for degenerate inputs.
    estimate_norms = np.sqrt(np.sum(magnitudes**2, axis=-1))
    degenerate = estimate_norms < 1e-14
    if degenerate.any():
        for row in np.flatnonzero(degenerate):
            estimates[row] = 0.0
            estimates[row, int(np.argmax(squared[row]))] = 1.0
        estimate_norms[degenerate] = 1.0
    return estimates / estimate_norms[:, None]
