"""Experiment T1 — reproduces **Table 1** of the paper: clustering
accuracy on mixed stochastic block models.

Swept knobs: graph size ``n`` and cluster count ``k`` (two axes, n
outermost) over per-trial seeds; fixed knobs: QPE precision and shots.
The sweep runs through :class:`repro.experiments.runner.SweepRunner` and
evaluates the full six-method comparison panel per trial.

The headline comparison table: quantum spectral clustering versus the exact
classical Hermitian pipeline and the direction-blind / directed baselines,
over graph sizes and cluster counts, averaged over seeds.

Expected shape (see EXPERIMENTS.md): quantum ≈ classical Hermitian, both
near-perfect; symmetrized competitive only because mixed SBMs also carry a
density signal; the gap widens in experiment F1 where density is removed.
"""

from __future__ import annotations

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
from repro.experiments.runner import SweepAxis, SweepSpec
from repro.graphs import mixed_sbm

DEFAULT_SIZES = (32, 64, 128)
DEFAULT_CLUSTERS = (2, 3)
DEFAULT_TRIALS = 5
DEFAULT_BASE_SEED = 100


def _trial_seed(point, trial, base_seed) -> int:
    """The historical T1 per-trial seed formula (records stay identical)."""
    return base_seed + 7919 * trial + point["n"] + point["k"]


def _trial(
    point,
    trial,
    seed,
    rng,
    precision_bits,
    shots,
    generator_version="v1",
    store_dir=None,
    linalg_backend="auto",
    spectral_engine="v1",
) -> list[TrialRecord]:
    """One T1 trial: the full method panel on one mixed SBM instance."""
    num_nodes, num_clusters = point["n"], point["k"]
    graph, truth, graph_digest = trial_graph(
        store_dir,
        mixed_sbm,
        connect_seed=seed,
        num_nodes=num_nodes,
        num_clusters=num_clusters,
        p_intra=0.4,
        p_inter=0.05,
        seed=seed,
        generator_version=generator_version,
    )
    config = QSCConfig(
        precision_bits=precision_bits,
        shots=shots,
        seed=seed,
        store_dir=store_dir,
        linalg_backend=linalg_backend,
        spectral_engine=spectral_engine,
    )
    methods = standard_methods(num_clusters, seed, config)
    return evaluate_methods(
        "T1",
        methods,
        graph,
        truth,
        {"n": num_nodes, "k": num_clusters},
        seed,
        store_dir,
        graph_digest=graph_digest,
    )


def spec(
    sizes=DEFAULT_SIZES,
    cluster_counts=DEFAULT_CLUSTERS,
    trials: int = DEFAULT_TRIALS,
    precision_bits: int = 7,
    shots: int = 1024,
    base_seed: int = DEFAULT_BASE_SEED,
    generator_version: str = "v1",
    store_dir: str | None = None,
    linalg_backend: str = "auto",
) -> SweepSpec:
    """The declarative T1 sweep."""
    return SweepSpec(
        name="table1",
        artifact="Table 1",
        description="Mixed-SBM comparison table over sizes and cluster counts",
        axes=(
            SweepAxis("n", tuple(sizes)),
            SweepAxis("k", tuple(cluster_counts)),
        ),
        trial=_trial,
        seed=_trial_seed,
        base_seed=base_seed,
        trials=trials,
        fixed={
            "precision_bits": precision_bits,
            "shots": shots,
            "generator_version": generator_version,
            "store_dir": store_dir,
            "linalg_backend": linalg_backend,
            "spectral_engine": SWEEP_SPECTRAL_ENGINE,
        },
        render=table,
    )


def table(records: list[TrialRecord]) -> str:
    """Markdown rendering of the T1 table."""
    rows = aggregate(records, ("n", "k"))
    return render_markdown_table(
        rows,
        ["n", "k", "method", "trials", "ari_mean", "ari_std", "acc_mean"],
    )

