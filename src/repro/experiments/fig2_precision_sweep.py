"""Experiment F2 — reproduces **Figure 2** of the paper: QPE precision
versus quantization error, bulk leakage and end-to-end accuracy.

Swept knobs: the QPE ancilla count ``p`` (the only axis) over per-trial
seeds; fixed knobs: graph size, cluster count, tomography shots and the
optional small-n circuit-backend cross-check.  The sweep runs through
:class:`repro.experiments.runner.SweepRunner` (``spec()`` builds the
declarative description) and reports three quantities per point:

* ``eig_rmse`` — RMS eigenvalue quantization error, which halves per added
  bit (the ε_λ precision parameter of the theory);
* ``bulk_leakage`` — mean filter-acceptance probability of *bulk* (above
  the spectral gap) eigencomponents: the amplitude contamination of the
  cluster subspace, which falls with p as the QPE kernel sharpens;
* ``ari`` — end-to-end clustering quality.

Expected shape: error and leakage decay geometrically in p; ARI is already
near-perfect once leakage is below ~10% — the algorithm only needs the
filter to *separate* low from bulk, not to resolve eigenvalues finely (an
explicit robustness finding).  A circuit-backend
cross-check runs at small n for gate-level confirmation.

Each trial fits the staged pipeline (:class:`repro.pipeline.QSCPipeline`)
and runs the filter diagnostics directly on the fit's retained stage state
— the same Laplacian-stage backend the fit used, so no second
eigendecomposition, kernel build or even cache lookup happens (before the
staged core the diagnostics refit against the spectral cache; reusing the
checkpointed stage is free *and* exact by construction).
"""

from __future__ import annotations

import numpy as np

from repro.core import QSCConfig
from repro.core.projection import accepted_outcomes
from repro.experiments.common import (
    SWEEP_SPECTRAL_ENGINE,
    TrialRecord,
    aggregate,
    render_markdown_table,
    trial_graph,
)
from repro.experiments.runner import SweepAxis, SweepSpec
from repro.graphs import mixed_sbm
from repro.metrics import label_scores
from repro.pipeline import QSCPipeline

DEFAULT_PRECISIONS = (1, 2, 3, 4, 5, 6, 7, 8)
DEFAULT_TRIALS = 5
DEFAULT_BASE_SEED = 700
# Mixed-SBM edge densities of the F2 trial graphs (shared with the bench,
# which rebuilds the sweep's Laplacians for its spectral-path measurement).
SBM_P_INTRA = 0.4
SBM_P_INTER = 0.05


def _filter_diagnostics(backend, num_clusters, threshold):
    """(eig_rmse, bulk_leakage) of the eigenvalue filter of ``backend``.

    ``backend`` is the fit's own analytic QPE backend, taken straight from
    the pipeline's ``laplacian`` stage state — identical numbers to a
    rebuilt diagnostics backend (the cache made them bit-equal before),
    with zero spectral work.
    """
    accepted = accepted_outcomes(
        threshold, backend.precision_bits, backend.lambda_scale
    )
    acceptance = backend.component_acceptance(accepted)
    true_values = backend.eigenvalues
    # "low" = the k smallest true eigenvalues of the padded spectrum
    order = np.argsort(true_values)
    bulk = order[num_clusters:]
    rmse = float(np.sqrt(np.mean(backend.quantization_errors() ** 2)))
    leakage = float(acceptance[bulk].mean())
    return rmse, leakage


def _trial_seed(point, trial, base_seed) -> int:
    """The historical F2 per-trial seed formula (records stay identical)."""
    return base_seed + 31 * trial + point["p"]


def _trial(
    point,
    trial,
    seed,
    rng,
    num_nodes,
    num_clusters,
    shots,
    include_circuit,
    circuit_num_nodes,
    generator_version="v1",
    store_dir=None,
    linalg_backend="auto",
    spectral_engine="v1",
) -> list[TrialRecord]:
    """One F2 trial: analytic fit + filter diagnostics (+ circuit check)."""
    precision = point["p"]
    records = []
    graph, truth, graph_digest = trial_graph(
        store_dir,
        mixed_sbm,
        connect_seed=seed,
        num_nodes=num_nodes,
        num_clusters=num_clusters,
        p_intra=SBM_P_INTRA,
        p_inter=SBM_P_INTER,
        seed=seed,
        generator_version=generator_version,
    )
    config = QSCConfig(
        precision_bits=precision,
        shots=shots,
        seed=seed,
        store_dir=store_dir,
        linalg_backend=linalg_backend,
        spectral_engine=spectral_engine,
    )
    pipeline = QSCPipeline(num_clusters, config)
    result = pipeline.run(graph, graph_digest=graph_digest)
    rmse, leakage = _filter_diagnostics(
        pipeline.state["backend"], num_clusters, result.threshold
    )
    ari, accuracy = label_scores(truth, result.labels)
    records.append(
        TrialRecord(
            experiment="F2",
            method="quantum-analytic",
            parameters={"p": precision},
            seed=seed,
            ari=ari,
            accuracy=accuracy,
            extra={"eig_rmse": rmse, "bulk_leakage": leakage},
        )
    )
    if include_circuit and precision <= 6:
        small_graph, small_truth, small_digest = trial_graph(
            store_dir,
            mixed_sbm,
            connect_seed=seed,
            num_nodes=circuit_num_nodes,
            num_clusters=num_clusters,
            p_intra=0.7,
            p_inter=0.05,
            seed=seed,
            generator_version=generator_version,
        )
        circuit_config = QSCConfig(
            backend="circuit",
            precision_bits=precision,
            shots=shots,
            seed=seed,
            store_dir=store_dir,
            linalg_backend=linalg_backend,
        )
        circuit_pipeline = QSCPipeline(num_clusters, circuit_config)
        circuit_labels = circuit_pipeline.run(
            small_graph, graph_digest=small_digest
        ).labels
        ari, accuracy = label_scores(small_truth, circuit_labels)
        records.append(
            TrialRecord(
                experiment="F2",
                method="quantum-circuit",
                parameters={"p": precision},
                seed=seed,
                ari=ari,
                accuracy=accuracy,
            )
        )
    return records


def spec(
    precisions=DEFAULT_PRECISIONS,
    num_nodes: int = 48,
    num_clusters: int = 2,
    trials: int = DEFAULT_TRIALS,
    shots: int = 1024,
    base_seed: int = DEFAULT_BASE_SEED,
    include_circuit: bool = False,
    circuit_num_nodes: int = 12,
    generator_version: str = "v1",
    store_dir: str | None = None,
    linalg_backend: str = "auto",
) -> SweepSpec:
    """The declarative F2 sweep."""
    return SweepSpec(
        name="fig2",
        artifact="Figure 2",
        description="QPE precision sweep: quantization error, bulk leakage, ARI",
        axes=(SweepAxis("p", tuple(precisions)),),
        trial=_trial,
        seed=_trial_seed,
        base_seed=base_seed,
        trials=trials,
        fixed={
            "num_nodes": num_nodes,
            "num_clusters": num_clusters,
            "shots": shots,
            "include_circuit": include_circuit,
            "circuit_num_nodes": circuit_num_nodes,
            "generator_version": generator_version,
            "store_dir": store_dir,
            "linalg_backend": linalg_backend,
            "spectral_engine": SWEEP_SPECTRAL_ENGINE,
        },
        render=series,
    )


def series(records: list[TrialRecord]) -> str:
    """Markdown rendering of the F2 curves (error, leakage, ARI vs p)."""
    rows = aggregate(records, ("p",))
    diagnostics: dict[tuple, list] = {}
    for record in records:
        if "eig_rmse" in record.extra:
            key = (record.method, record.parameters["p"])
            diagnostics.setdefault(key, []).append(record.extra)
    for row in rows:
        bucket = diagnostics.get((row["method"], row["p"]))
        if bucket:
            row["eig_rmse"] = float(np.mean([d["eig_rmse"] for d in bucket]))
            row["bulk_leakage"] = float(np.mean([d["bulk_leakage"] for d in bucket]))
    return render_markdown_table(
        rows,
        ["p", "method", "trials", "ari_mean", "ari_std", "eig_rmse", "bulk_leakage"],
    )

