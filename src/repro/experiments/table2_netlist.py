"""Experiment T2 — reproduces **Table 2** of the paper: netlist module
partitioning (the DAC workload).

Swept knobs: the module count of the synthetic netlists (the only axis)
over per-trial seeds; fixed knobs: gates per module, QPE precision, shots
and the netlist arc phase θ = π/4.  The sweep runs through
:class:`repro.experiments.runner.SweepRunner` and evaluates the full
six-method comparison panel per trial; :func:`c17_partition` adds the
embedded ISCAS-85 c17 circuit as a no-ground-truth sanity target.

Synthetic hierarchical netlists with known module structure, converted to
mixed graphs with clique-expanded nets, plus the embedded ISCAS-85 c17
circuit as a no-ground-truth sanity target (we report its cut metrics).

Expected shape: Hermitian methods (quantum and classical, θ = π/4) recover
module structure well ahead of direction-blind baselines; cut imbalance of
the found partitions is high because inter-module nets all flow forward.
"""

from __future__ import annotations

import numpy as np

from repro.core import QSCConfig
from repro.experiments.common import (
    SWEEP_SPECTRAL_ENGINE,
    TrialRecord,
    aggregate,
    evaluate_methods,
    render_markdown_table,
    standard_methods,
    trial_graph,
)
from repro.experiments.runner import SweepAxis, SweepRunner, SweepSpec
from repro.graphs import ensure_connected, load_c17, synthetic_netlist
from repro.metrics import partition_summary

NETLIST_THETA = float(np.pi / 4)
DEFAULT_MODULES = (2, 3, 4)
DEFAULT_TRIALS = 5
DEFAULT_BASE_SEED = 300


def _trial_seed(point, trial, base_seed) -> int:
    """The historical T2 per-trial seed formula (records stay identical)."""
    return base_seed + 104729 * trial + point["modules"]


def _netlist_graph(
    num_modules,
    gates_per_module,
    seed,
    internal_fanin=3,
    cross_module_nets=2,
    feedback_registers=3,
):
    """A synthetic netlist's clique-expanded mixed graph and module labels.

    The netlist shape knobs are defaulted parameters, not constants, so the
    trial graph's store key (:func:`~repro.experiments.common.graph_key`)
    names them.
    """
    netlist = synthetic_netlist(
        num_modules,
        gates_per_module,
        internal_fanin=internal_fanin,
        cross_module_nets=cross_module_nets,
        feedback_registers=feedback_registers,
        seed=seed,
    )
    return netlist.to_mixed_graph(net_cliques=True), netlist.module_labels()


def _trial(
    point,
    trial,
    seed,
    rng,
    gates_per_module,
    precision_bits,
    shots,
    generator_version="v1",
    readout_shards=None,
    store_dir=None,
    linalg_backend="auto",
    spectral_engine="v1",
) -> list[TrialRecord]:
    """One T2 trial: the method panel on one synthetic netlist instance."""
    num_modules = point["modules"]
    graph, truth, graph_digest = trial_graph(
        store_dir,
        _netlist_graph,
        connect_seed=seed,
        num_modules=num_modules,
        gates_per_module=gates_per_module,
        seed=seed,
    )
    config = QSCConfig(
        precision_bits=precision_bits,
        shots=shots,
        theta=NETLIST_THETA,
        seed=seed,
        readout_shards=readout_shards,
        store_dir=store_dir,
        linalg_backend=linalg_backend,
        spectral_engine=spectral_engine,
    )
    methods = standard_methods(num_modules, seed, config, theta=NETLIST_THETA)
    return evaluate_methods(
        "T2",
        methods,
        graph,
        truth,
        {"modules": num_modules, "n": graph.num_nodes},
        seed,
        store_dir,
        graph_digest=graph_digest,
    )


def spec(
    module_counts=DEFAULT_MODULES,
    gates_per_module: int = 14,
    trials: int = DEFAULT_TRIALS,
    precision_bits: int = 7,
    shots: int = 2048,
    base_seed: int = DEFAULT_BASE_SEED,
    generator_version: str = "v1",
    readout_shards: int | None = None,
    store_dir: str | None = None,
    linalg_backend: str = "auto",
) -> SweepSpec:
    """The declarative T2 sweep (same knobs as :func:`run`).

    T2's graphs come from deterministic synthetic netlists, not the SBM
    generators, so ``generator_version`` changes nothing here; it is
    accepted (and recorded in the artifact) so every sweep in the registry
    carries the same provenance field.
    """
    return SweepSpec(
        name="table2",
        artifact="Table 2",
        description="Synthetic-netlist partitioning table over module counts",
        axes=(SweepAxis("modules", tuple(module_counts)),),
        trial=_trial,
        seed=_trial_seed,
        base_seed=base_seed,
        trials=trials,
        fixed={
            "gates_per_module": gates_per_module,
            "precision_bits": precision_bits,
            "shots": shots,
            "generator_version": generator_version,
            "readout_shards": readout_shards,
            "store_dir": store_dir,
            "linalg_backend": linalg_backend,
            "spectral_engine": SWEEP_SPECTRAL_ENGINE,
        },
        render=table,
    )


def run(
    module_counts=DEFAULT_MODULES,
    gates_per_module: int = 14,
    trials: int = DEFAULT_TRIALS,
    precision_bits: int = 7,
    shots: int = 2048,
    base_seed: int = DEFAULT_BASE_SEED,
    jobs: int = 1,
) -> list[TrialRecord]:
    """Run the T2 sweep over module counts and seeds."""
    return (
        SweepRunner(
            spec(
                module_counts=module_counts,
                gates_per_module=gates_per_module,
                trials=trials,
                precision_bits=precision_bits,
                shots=shots,
                base_seed=base_seed,
            ),
            jobs=jobs,
        )
        .run()
        .records
    )


def c17_partition(num_clusters: int = 2, seed: int = 0) -> dict:
    """Cluster the embedded c17 benchmark and report its cut metrics."""
    graph = load_c17().to_mixed_graph(net_cliques=True)
    ensure_connected(graph, seed=seed)
    from repro.core import QuantumSpectralClustering

    config = QSCConfig(
        backend="circuit",
        precision_bits=5,
        shots=4096,
        theta=NETLIST_THETA,
        seed=seed,
    )
    result = QuantumSpectralClustering(num_clusters, config).fit(graph)
    summary = partition_summary(graph, result.labels)
    summary["num_nodes"] = graph.num_nodes
    return summary


def table(records: list[TrialRecord]) -> str:
    """Markdown rendering of the T2 table."""
    rows = aggregate(records, ("modules",))
    return render_markdown_table(
        rows, ["modules", "method", "trials", "ari_mean", "ari_std", "acc_mean"]
    )


def main() -> str:
    """Run with defaults, print the table plus the c17 summary."""
    output = table(run())
    print(output)
    summary = c17_partition()
    line = "c17 (circuit backend): " + ", ".join(
        f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
        for key, value in summary.items()
    )
    print(line)
    return output + "\n" + line


if __name__ == "__main__":
    main()
