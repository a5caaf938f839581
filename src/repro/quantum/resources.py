"""Quantum resource accounting for the runtime-scaling experiment (F3).

A statevector simulator cannot measure quantum wall-clock, so — exactly as
the original evaluation does — the runtime figure compares *step-count
proxies*: the number of elementary operations each algorithm would execute.
This module centralises those counts so the F3 harness and the tests agree
on one model.

Quantum cost model for the mixed-graph pipeline on an n-node graph
(m = ceil(log2 n) system qubits, p ancilla bits, k clusters, s shots):

* state preparation of one node index: O(m) X gates (basis state);
* one QPE execution: p Hadamards + (2^p − 1) controlled-U applications +
  O(p²) gates of inverse QFT;
* each controlled-U costs ``trotter_steps · num_pauli_terms`` two-qubit-
  equivalent gates — for graph Laplacians the Pauli term count scales with
  the edge count, which is O(n·davg), giving the near-linear envelope the
  paper reports;
* per node the routine repeats ``shots`` times for tomography.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import CircuitError
from repro.utils.linalg import next_power_of_two


@dataclass(frozen=True)
class QPEResources:
    """Elementary-operation counts of one phase-estimation execution."""

    system_qubits: int
    ancilla_qubits: int
    controlled_u_applications: int
    elementary_gates: int


def qpe_resources(
    num_nodes: int,
    precision: int,
    pauli_terms: int,
    trotter_steps: int = 1,
) -> QPEResources:
    """Gate/qubit counts for one QPE run on an n-node graph Hamiltonian.

    Parameters
    ----------
    num_nodes:
        Graph size n; the system register has ceil(log2 n) qubits.
    precision:
        Ancilla bits p.
    pauli_terms:
        Number of Pauli terms in the Hamiltonian decomposition (edge-count
        proxy when the decomposition is not materialised).
    trotter_steps:
        Trotter slices per unit evolution.
    """
    if num_nodes < 2:
        raise CircuitError(f"need at least two nodes, got {num_nodes}")
    if precision < 1:
        raise CircuitError(f"precision must be >= 1, got {precision}")
    if pauli_terms < 1 or trotter_steps < 1:
        raise CircuitError("pauli_terms and trotter_steps must be >= 1")
    system_qubits = next_power_of_two(num_nodes).bit_length() - 1
    controlled_u = 2**precision - 1
    gates_per_u = pauli_terms * trotter_steps
    iqft_gates = precision * (precision + 1) // 2 + precision // 2
    elementary = (
        precision  # Hadamard fan-out
        + system_qubits  # basis-state preparation bound
        + controlled_u * gates_per_u
        + iqft_gates
    )
    return QPEResources(
        system_qubits=system_qubits,
        ancilla_qubits=precision,
        controlled_u_applications=controlled_u,
        elementary_gates=elementary,
    )


def quantum_pipeline_step_count(
    num_nodes: int,
    num_edges: int,
    num_clusters: int,
    precision: int,
    shots: int,
    trotter_steps: int = 1,
    qmeans_iterations: int = 10,
) -> float:
    """Total step-count proxy of the end-to-end quantum pipeline.

    Counts ``n · shots`` QPE executions (row extraction with tomography)
    plus the q-means iterations, whose per-iteration cost is
    O(n · k · polylog) distance estimations.  The Hamiltonian's Pauli-term
    count is proxied by the edge count (each edge contributes O(1) terms).
    """
    per_qpe = qpe_resources(
        num_nodes,
        precision,
        pauli_terms=max(num_edges, 1),
        trotter_steps=trotter_steps,
    ).elementary_gates
    row_extraction = float(num_nodes) * max(shots, 1) * per_qpe
    qmeans = (
        qmeans_iterations
        * num_nodes
        * num_clusters
        * max(math.log2(max(num_nodes, 2)), 1.0)
    )
    return row_extraction + qmeans


def classical_pipeline_step_count(num_nodes: int, num_clusters: int,
                                  kmeans_iterations: int = 10) -> float:
    """Step-count proxy of classical spectral clustering: O(n³) eigensolve
    plus O(iters · n · k²) Lloyd refinement."""
    if num_nodes < 2:
        raise CircuitError(f"need at least two nodes, got {num_nodes}")
    eigensolve = float(num_nodes) ** 3
    lloyd = float(kmeans_iterations) * num_nodes * num_clusters**2
    return eigensolve + lloyd
