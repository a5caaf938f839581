"""Batched QPE readout: filter, tomograph, and shot-sample all rows at once.

This module is the pipeline stage between the QPE backend and the q-means
clustering step.  For every node ``i`` the paper's algorithm prepares
``|e_i>``, applies the eigenvalue filter (QPE → post-selection on accepted
readouts → uncompute), estimates the acceptance probability by amplitude
estimation, and reconstructs the filtered state by finite-shot tomography.
The seed implementation walked nodes one at a time; :func:`batched_readout`
runs the same computation as four batched stages:

1. **filter** — ``backend.project_rows`` returns the normalized filtered
   states and exact acceptance probabilities for a whole block of rows in
   one call (a single matmul on the analytic backend, one batched circuit
   pass on the circuit backend);
2. **tomography** — :func:`repro.quantum.measurement.tomography_estimate_batch`
   vectorizes magnitude and phase estimation across the block;
3. **amplitude estimation** — binomial shot noise on the acceptance
   probabilities, one draw per row;
4. **phase anchoring** — :func:`canonicalize_row_phases` rotates every row
   so its diagonal component is real-positive, recovering the projector's
   relative phases across rows.

Determinism contract: per-row RNG streams are spawned with
:func:`repro.utils.rng.spawn_rngs` from the single ``rng`` argument, and row
``i`` consumes exactly the draws a per-row loop over the scalar APIs
(``project_row`` + ``tomography_estimate`` + ``binomial``) would take from
the same generator — so the batched pipeline is bit-identical to that loop
at the same seed.  Chunking changes only how many rows are in flight, never
which generator serves which row, and every partition of the rows into
blocks of two or more rows gives bit-identical output.  The one exception
is a block of exactly one row: its filter product runs as a
matrix-vector product, whose rounding differs from the matrix-matrix
product by a few 1e-16 per entry, under 1e-15 (an explicit ``chunk_size``
that leaves a remainder of one row).  The default
blocking never makes a one-row block unless the graph has one node.  This
is pinned in ``tests/core/test_readout.py``.

Memory: with ``chunk_size=None`` the rows are split into balanced blocks
(:func:`~repro.utils.linalg.row_blocks`: at most ``max(64, 2^16 // D)``
rows, so 64 rows from D = 1024 up), and the node columns of each block's
estimates are written straight into the preallocated ``(n, n)`` output, so
the stage's working set is its output plus a few block-sized temporaries.
The ``dim - n`` pad columns are still estimated (under the v3 engine they
are exact zeros, but the tomography draws over all ``dim`` columns fix
each row's random stream) and then dropped: nothing downstream reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ClusteringError
from repro.quantum.measurement import tomography_estimate_batch
from repro.utils.linalg import row_blocks
from repro.utils.rng import spawn_rngs


@dataclass(frozen=True)
class ReadoutResult:
    """Output of the batched readout stage.

    Attributes
    ----------
    rows:
        ``(n, n)`` complex matrix; row ``i`` is the tomography estimate of
        the filtered state, restricted to the node columns and scaled by
        the estimated acceptance amplitude — the noisy reconstruction of
        row ``i`` of the subspace projector on the graph's nodes.
    norms:
        ``(n,)`` estimated acceptance amplitudes ``sqrt(p̂_i)`` (amplitude-
        estimation output; becomes ``QSCResult.row_norms``).
    probabilities:
        ``(n,)`` exact acceptance probabilities from the filter stage
        (pre-shot-noise; useful for diagnostics and variance studies).
    """

    rows: np.ndarray
    norms: np.ndarray
    probabilities: np.ndarray


def canonicalize_row_phases(rows: np.ndarray) -> np.ndarray:
    """Rotate each row's global phase so its diagonal entry is real-positive.

    Tomography fixes each row only up to a global phase.  Row ``i`` of the
    projector Π_A has a *canonical* phase: its diagonal component
    ``Π[i, i] = ||Π_A e_i||²`` is real and non-negative, so rotating the
    estimate until component ``i`` is real-positive recovers the true
    relative phases across rows (up to shot noise).

    Parameters
    ----------
    rows:
        ``(n, dim)`` complex matrix with ``dim >= n``; anchor of row ``i``
        is column ``i``.  Rows whose anchor magnitude is below ``1e-12``
        (no diagonal mass survived the filter) are left untouched.

    Returns
    -------
    A new ``(n, dim)`` matrix; the input is not modified
    (:func:`anchor_row_phases` rotates in place).
    """
    rows = np.array(rows, copy=True)
    anchor_row_phases(rows)
    return rows


def anchor_row_phases(rows: np.ndarray) -> None:
    """:func:`canonicalize_row_phases` in place, one row at a time."""
    n = rows.shape[0]
    if rows.shape[1] < n:
        raise ClusteringError(
            f"rows matrix {rows.shape} has no diagonal anchor for every row"
        )
    # The rotation factors are computed with *scalar* abs and division on
    # purpose: NumPy's array-path complex absolute value and division round
    # differently from the scalar path by an ulp, and bit-compatibility
    # with the historical per-row loop requires the scalar results.
    for row in range(n):
        anchor = rows[row, row]
        magnitude = abs(anchor)
        if magnitude > 1e-12:
            rows[row] *= np.conj(anchor / magnitude)


def batched_readout(
    backend,
    accepted: np.ndarray,
    shots: int,
    rng,
    *,
    chunk_size: int | None = None,
    canonical_phases: bool = True,
) -> ReadoutResult:
    """Run the full readout stage for every node of ``backend``.

    Parameters
    ----------
    backend:
        A QPE backend (``AnalyticQPEBackend`` or ``CircuitQPEBackend``)
        exposing ``num_nodes``, ``dim`` and ``project_rows``.
    accepted:
        Integer array of accepted QPE readout outcomes (the eigenvalue
        filter set A).
    shots:
        Per-node measurement budget for tomography and amplitude
        estimation; ``0`` means noiseless readout.
    rng:
        Seed or generator; per-row streams are spawned from it exactly as
        the seed loop did, so results are reproducible and chunk-invariant.
    chunk_size:
        Rows processed per filter/tomography block.  ``None`` (default)
        splits the rows into balanced blocks of at most
        ``max(64, 2^16 // dim)`` rows, so the working set is the
        ``(n, n)`` output plus a few blocks; an
        explicit value fixes the block length (the circuit backend
        materialises ``chunk × 2^(p+m)`` amplitudes per block).  Chunking
        never changes the result, except that a block of exactly one row
        may differ by float rounding (see the module docstring).
    canonical_phases:
        Apply :func:`canonicalize_row_phases` before returning (the
        pipeline default; disable to inspect raw tomography output).

    Returns
    -------
    :class:`ReadoutResult` with dead rows (zero acceptance probability)
    left as zero vectors.
    """
    if shots < 0:
        raise ClusteringError(f"shots must be non-negative, got {shots}")
    num_nodes = int(backend.num_nodes)
    row_rngs = spawn_rngs(rng, num_nodes)
    rows = np.zeros((num_nodes, num_nodes), dtype=complex)
    norms = np.zeros(num_nodes)
    probabilities = np.zeros(num_nodes)
    if chunk_size is None:
        blocks = row_blocks(num_nodes, backend.dim)
    elif chunk_size < 1:
        raise ClusteringError(f"chunk_size must be >= 1, got {chunk_size}")
    else:
        blocks = [
            (start, min(start + chunk_size, num_nodes))
            for start in range(0, num_nodes, chunk_size)
        ]
    accepted = np.asarray(accepted, dtype=int)
    for start, stop in blocks:
        nodes = np.arange(start, stop)
        filtered, block_probabilities = backend.project_rows(nodes, accepted)
        probabilities[nodes] = block_probabilities
        alive = np.flatnonzero(block_probabilities > 0.0)
        if alive.size == 0:
            continue  # no row in this block has mass in the subspace
        alive_nodes = nodes[alive]
        estimates = tomography_estimate_batch(
            filtered[alive],
            shots,
            [row_rngs[node] for node in alive_nodes],
        )
        if shots > 0:
            # Amplitude estimation of the acceptance probability: binomial
            # shot noise at the same budget, one draw per row from that
            # row's own stream (after its tomography draws, as in the seed
            # loop).
            estimated = np.empty(alive.size)
            clipped = np.minimum(block_probabilities[alive], 1.0)
            for index in range(alive.size):
                estimated[index] = (
                    row_rngs[alive_nodes[index]].binomial(shots, clipped[index])
                    / shots
                )
        else:
            estimated = block_probabilities[alive]
        amplitudes = np.sqrt(estimated)
        node_columns = estimates[:, :num_nodes]
        rows[alive_nodes] = np.multiply(
            amplitudes[:, None], node_columns, out=node_columns
        )
        norms[alive_nodes] = amplitudes
    if canonical_phases:
        anchor_row_phases(rows)
    return ReadoutResult(rows=rows, norms=norms, probabilities=probabilities)
