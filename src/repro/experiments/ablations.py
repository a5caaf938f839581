"""Ablations A1–A4 and A6: Trotter, θ phase, gate noise, auto-k, net expansion.

* **A1** — QPE eigenvalue error and end-to-end agreement versus Trotter
  steps/order on small graphs (circuit backend).
* **A2** — classical-Hermitian ARI on flow SBMs versus the arc phase θ;
  the directional signal vanishes as θ → 0 and is strongest near π/2.
* **A3** — QPE readout corruption under depolarizing + readout noise,
  scanning error rates (the NISQ outlook).
* **A4** — quantum model selection: recovering the cluster count k from
  sampled QPE histograms alone, versus the classical eigengap oracle.
* **A6** — hypergraph-expansion ablation: clique versus star expansion of
  netlist nets and their effect on module recovery.

These reproduce the paper's ablation paragraphs rather than a numbered
figure/table; each function states the knob it varies (Trotter steps and
order, arc phase θ, noise rates, shot budget, net expansion).  A5, the
VQE front end, was retired with the variational solver; A6 keeps its name.
They are deliberate one-off scans, not :class:`SweepSpec` sweeps — the
declarative engine in :mod:`repro.experiments.runner` covers the six
figure/table artifacts.
"""

from __future__ import annotations

import numpy as np

from repro.core.qpe_engine import CircuitQPEBackend, pad_laplacian
from repro.graphs import (
    cyclic_flow_sbm,
    ensure_connected,
    hermitian_laplacian,
    mixed_sbm,
)
from repro.metrics import adjusted_rand_index
from repro.quantum.hamiltonian import exact_evolution, trotter_error
from repro.quantum.noise import NoiseModel, noisy_sample_counts
from repro.quantum.phase_estimation import qpe_circuit
from repro.spectral import ClassicalSpectralClustering


def trotter_ablation(
    steps_list=(1, 2, 4, 8, 16, 32),
    orders=(1, 2),
    num_nodes: int = 8,
    seed: int = 0,
) -> list[dict]:
    """A1: unitary error and QPE-distribution deviation versus Trotter depth."""
    graph, _ = mixed_sbm(num_nodes, 2, p_intra=0.8, p_inter=0.1, seed=seed)
    ensure_connected(graph, seed=seed)
    laplacian = pad_laplacian(hermitian_laplacian(graph))
    time = 2.0 * np.pi / 2.125
    exact_backend = CircuitQPEBackend(hermitian_laplacian(graph), 4, evolution="exact")
    exact_dist = exact_backend.node_outcome_distribution(0)
    rows = []
    for order in orders:
        for steps in steps_list:
            unitary_error = trotter_error(laplacian, time, steps, order=order)
            backend = CircuitQPEBackend(
                hermitian_laplacian(graph),
                4,
                evolution="trotter",
                trotter_steps=steps,
                trotter_order=order,
            )
            deviation = float(
                np.abs(backend.node_outcome_distribution(0) - exact_dist).sum()
            ) / 2.0
            rows.append(
                {
                    "order": order,
                    "steps": steps,
                    "unitary_error": float(unitary_error),
                    "qpe_tv_distance": deviation,
                }
            )
    return rows


def theta_ablation(
    thetas=(np.pi / 16, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2),
    num_nodes: int = 60,
    num_clusters: int = 3,
    trials: int = 5,
    base_seed: int = 1300,
) -> list[dict]:
    """A2: flow-SBM recovery versus Hermitian phase angle θ."""
    rows = []
    for theta in thetas:
        scores = []
        for trial in range(trials):
            seed = base_seed + trial
            graph, truth = cyclic_flow_sbm(
                num_nodes,
                num_clusters,
                density=0.3,
                direction_strength=0.95,
                seed=seed,
            )
            ensure_connected(graph, seed=seed)
            labels = (
                ClassicalSpectralClustering(num_clusters, theta=float(theta), seed=seed)
                .fit(graph)
                .labels
            )
            scores.append(adjusted_rand_index(truth, labels))
        rows.append(
            {
                "theta": float(theta),
                "ari_mean": float(np.mean(scores)),
                "ari_std": float(np.std(scores)),
            }
        )
    return rows


def noise_ablation(
    depolarizing_rates=(0.0, 0.002, 0.01, 0.05),
    num_nodes: int = 6,
    precision_bits: int = 3,
    shots: int = 1500,
    seed: int = 1500,
) -> list[dict]:
    """A3: QPE readout corruption under depolarizing + readout noise.

    Runs the actual QPE circuit of a small mixed graph through the
    Monte-Carlo noise simulator and reports the total-variation distance
    between noisy and ideal ancilla readout distributions — the quantity
    that corrupts threshold selection (and hence clustering) on NISQ
    hardware.
    """
    graph, _ = mixed_sbm(num_nodes, 2, p_intra=0.9, p_inter=0.1, seed=seed)
    ensure_connected(graph, seed=seed)
    laplacian = hermitian_laplacian(graph)
    unitary = exact_evolution(pad_laplacian(laplacian), 2.0 * np.pi / 2.125)
    circuit = qpe_circuit(unitary, precision_bits)
    ancillas = list(range(precision_bits))
    # Exact (infinite-shot) noiseless reference — so the rate = 0 row shows
    # pure sampling noise and the noisy rows isolate the hardware effect.
    ideal = circuit.statevector().marginal_probabilities(ancillas)
    rows = []
    size = 2**precision_bits
    for rate in depolarizing_rates:
        noisy = np.zeros(size)
        counts = noisy_sample_counts(
            circuit,
            shots=shots,
            noise=NoiseModel(depolarizing_rate=rate, readout_error=rate),
            qubits=ancillas,
            seed=seed + 1,
        )
        for outcome, count in counts.items():
            noisy[outcome] = count / shots
        rows.append(
            {
                "depolarizing_rate": rate,
                "qpe_tv_distance": float(np.abs(noisy - ideal).sum() / 2.0),
            }
        )
    return rows


def autok_ablation(
    cluster_counts=(2, 3, 4),
    num_nodes: int = 40,
    precision_bits: int = 7,
    shots: int = 16384,
    trials: int = 5,
    base_seed: int = 1700,
) -> list[dict]:
    """A4: success rate of histogram-only k selection per true k."""
    from repro.core import estimate_num_clusters_quantum
    from repro.core.qpe_engine import AnalyticQPEBackend
    from repro.spectral import estimate_num_clusters
    from repro.graphs import laplacian_spectrum

    rows = []
    for k_true in cluster_counts:
        quantum_hits = 0
        classical_hits = 0
        for trial in range(trials):
            seed = base_seed + 13 * trial + k_true
            graph, _ = mixed_sbm(
                num_nodes, k_true, p_intra=0.7, p_inter=0.02, seed=seed
            )
            ensure_connected(graph, seed=seed)
            backend = AnalyticQPEBackend(hermitian_laplacian(graph), precision_bits)
            histogram = backend.eigenvalue_histogram(shots, np.random.default_rng(seed))
            quantum_k = estimate_num_clusters_quantum(
                histogram, num_nodes, precision_bits, backend.lambda_scale
            ).num_clusters
            values, _ = laplacian_spectrum(graph)
            classical_k = estimate_num_clusters(values)
            quantum_hits += int(quantum_k == k_true)
            classical_hits += int(classical_k == k_true)
        rows.append(
            {
                "k_true": k_true,
                "quantum_hit_rate": quantum_hits / trials,
                "classical_hit_rate": classical_hits / trials,
            }
        )
    return rows


def expansion_ablation(
    expansions=("clique", "star"),
    num_modules: int = 3,
    gates_per_module: int = 14,
    trials: int = 5,
    base_seed: int = 2100,
) -> list[dict]:
    """A6: net-expansion style versus netlist module recovery.

    Clique expansion adds undirected sink–sink coupling (density signal);
    star expansion keeps only driver→sink arcs (pure flow signal).  Both
    are clustered classically (θ = π/4) against module ground truth.
    """
    from repro.graphs import Hypergraph, synthetic_netlist
    from repro.spectral import ClassicalSpectralClustering as CSC

    rows = []
    for expansion in expansions:
        scores = []
        for trial in range(trials):
            seed = base_seed + trial
            netlist = synthetic_netlist(
                num_modules,
                gates_per_module,
                internal_fanin=3,
                cross_module_nets=2,
                feedback_registers=3,
                seed=seed,
            )
            hypergraph = Hypergraph.from_netlist(netlist)
            graph = hypergraph.to_mixed_graph(expansion)
            ensure_connected(graph, seed=seed)
            labels = (
                CSC(num_modules, theta=float(np.pi / 4), seed=seed)
                .fit(graph)
                .labels
            )
            truth = netlist.module_labels()
            scores.append(adjusted_rand_index(truth, labels))
        rows.append(
            {
                "expansion": expansion,
                "ari_mean": float(np.mean(scores)),
                "ari_std": float(np.std(scores)),
            }
        )
    return rows


def main() -> str:
    """Run all five ablations and return a textual report."""
    lines = ["A1 (Trotter):"]
    for row in trotter_ablation():
        lines.append(
            "  order={order} steps={steps:>3} unitary_err={unitary_error:.4f} "
            "qpe_tv={qpe_tv_distance:.4f}".format(**row)
        )
    lines.append("A2 (theta):")
    for row in theta_ablation():
        lines.append(
            "  theta={theta:.3f} ari={ari_mean:.3f}±{ari_std:.3f}".format(**row)
        )
    lines.append("A3 (noise):")
    for row in noise_ablation():
        lines.append(
            "  rate={depolarizing_rate} qpe_tv={qpe_tv_distance:.3f}".format(**row)
        )
    lines.append("A4 (auto-k):")
    for row in autok_ablation():
        lines.append(
            "  k={k_true} quantum_hit={quantum_hit_rate:.2f} "
            "classical_hit={classical_hit_rate:.2f}".format(**row)
        )
    lines.append("A6 (net expansion):")
    for row in expansion_ablation():
        lines.append("  {expansion}: ari={ari_mean:.3f}±{ari_std:.3f}".format(**row))
    output = "\n".join(lines)
    print(output)
    return output


if __name__ == "__main__":
    main()
