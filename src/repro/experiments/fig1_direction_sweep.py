"""Experiment F1 — reproduces **Figure 1** of the paper: accuracy versus
direction strength (the crossover figure).

Swept knobs: ``direction_strength`` (the only axis) over per-trial seeds;
fixed knobs: graph size, cluster count, edge density, QPE precision and
shots.  The sweep runs through
:class:`repro.experiments.runner.SweepRunner` and evaluates the full
six-method comparison panel per trial.

Cyclic-flow SBMs hold edge density constant everywhere; sweeping
``direction_strength`` from 0.5 (orientation pure noise) to 1.0 (every
boundary arc points forward) isolates the directional signal.

Expected shape: Hermitian methods (quantum, classical) climb from chance to
perfect as strength grows; symmetrized stays at chance for the entire sweep
because its input is literally independent of the swept parameter.
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
from repro.graphs import cyclic_flow_sbm

DEFAULT_STRENGTHS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEFAULT_TRIALS = 5
DEFAULT_BASE_SEED = 500


def _trial_seed(point, trial, base_seed) -> int:
    """The historical F1 per-trial seed formula (records stay identical)."""
    return base_seed + 1009 * trial + int(point["strength"] * 1000)


def _trial(
    point,
    trial,
    seed,
    rng,
    num_nodes,
    num_clusters,
    density,
    precision_bits,
    shots,
    generator_version="v1",
    store_dir=None,
    linalg_backend="auto",
    spectral_engine="v1",
) -> list[TrialRecord]:
    """One F1 trial: the full method panel on one cyclic-flow SBM."""
    strength = point["strength"]
    graph, truth, graph_digest = trial_graph(
        store_dir,
        cyclic_flow_sbm,
        connect_seed=seed,
        num_nodes=num_nodes,
        num_clusters=num_clusters,
        density=density,
        direction_strength=strength,
        intra_directed=True,  # orientation is the ONLY signal
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
        "F1",
        methods,
        graph,
        truth,
        {"strength": strength},
        seed,
        store_dir,
        graph_digest=graph_digest,
    )


def spec(
    strengths=DEFAULT_STRENGTHS,
    num_nodes: int = 72,
    num_clusters: int = 3,
    density: float = 0.3,
    trials: int = DEFAULT_TRIALS,
    precision_bits: int = 7,
    shots: int = 1024,
    base_seed: int = DEFAULT_BASE_SEED,
    generator_version: str = "v1",
    store_dir: str | None = None,
    linalg_backend: str = "auto",
) -> SweepSpec:
    """The declarative F1 sweep.

    ``generator_version`` picks the graph-generator seed contract; it is
    recorded in the sweep's ``fixed`` parameters, so every JSON artifact
    states which contract produced its graphs.  ``linalg_backend`` selects
    the linalg backend of every quantum fit (recorded in ``fixed`` and in
    the artifact's stage profile).
    """
    return SweepSpec(
        name="fig1",
        artifact="Figure 1",
        description="Direction-strength sweep: six-method crossover curves",
        axes=(SweepAxis("strength", tuple(strengths)),),
        trial=_trial,
        seed=_trial_seed,
        base_seed=base_seed,
        trials=trials,
        fixed={
            "num_nodes": num_nodes,
            "num_clusters": num_clusters,
            "density": density,
            "precision_bits": precision_bits,
            "shots": shots,
            "generator_version": generator_version,
            "store_dir": store_dir,
            "linalg_backend": linalg_backend,
            "spectral_engine": SWEEP_SPECTRAL_ENGINE,
        },
        render=series,
    )


def series(records: list[TrialRecord]) -> str:
    """Markdown rendering of the F1 curves (one row per point)."""
    rows = aggregate(records, ("strength",))
    return render_markdown_table(
        rows, ["strength", "method", "trials", "ari_mean", "ari_std"]
    )

