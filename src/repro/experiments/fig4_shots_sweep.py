"""Experiment F4 — reproduces **Figure 4** of the paper: clustering
accuracy versus the tomography shot budget.

Swept knobs: the per-node measurement budget ``shots`` (the only axis)
over per-trial seeds; fixed knobs: graph size, cluster count and QPE
precision.  The sweep runs through
:class:`repro.experiments.runner.SweepRunner`.

Expected shape: ARI rises with shots and saturates at the exact-readout
ceiling (shots = 0 is the noiseless reference); the embedding error
alongside follows the 1/√shots tomography law.

Each trial fits the staged pipeline twice on the same graph — noiseless
reference, then finite shots.  The second fit *resumes from the readout
stage* against the first fit's in-memory stage state
(:class:`repro.pipeline.QSCPipeline` with ``resume_from="readout"``): the
Laplacian, backend, histogram and threshold are shared outright, so the
noisy fit re-runs only the shot-dependent stages (with a store attached,
an in-memory resume reads those through it, so a warm trial computes
nothing).  Stage RNG streams are
independent, so the resumed fit is bit-identical to a full fit at the same
seed — the records are unchanged from the pre-staged implementation.
"""

from __future__ import annotations

import numpy as np

from repro.core import QSCConfig
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

DEFAULT_SHOTS = (16, 64, 256, 1024, 4096)
DEFAULT_TRIALS = 5
DEFAULT_BASE_SEED = 1100


def _trial_seed(point, trial, base_seed) -> int:
    """The historical F4 per-trial seed formula (records stay identical)."""
    return base_seed + 53 * trial + point["shots"]


def _trial(
    point,
    trial,
    seed,
    rng,
    num_nodes,
    num_clusters,
    precision_bits,
    generator_version="v1",
    store_dir=None,
    linalg_backend="auto",
    spectral_engine="v1",
) -> list[TrialRecord]:
    """One F4 trial: noiseless reference fit + finite-shot fit."""
    shots = point["shots"]
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
    reference = QSCPipeline(
        num_clusters,
        QSCConfig(
            precision_bits=precision_bits,
            shots=0,
            seed=seed,
            store_dir=store_dir,
            linalg_backend=linalg_backend,
            spectral_engine=spectral_engine,
        ),
    )
    noiseless = reference.run(graph, graph_digest=graph_digest)
    # The noisy fit differs only in the shot budget, which first matters in
    # the readout stage — resume there against the reference fit's stage
    # state (same seed ⇒ identical laplacian/threshold outputs, and the
    # readout/qmeans RNG streams are unaffected by the skip).
    noisy = QSCPipeline(
        num_clusters,
        QSCConfig(
            precision_bits=precision_bits,
            shots=shots,
            seed=seed,
            store_dir=store_dir,
            linalg_backend=linalg_backend,
            spectral_engine=spectral_engine,
        ),
    ).run(
        graph,
        resume_from="readout",
        upstream=reference.state,
        graph_digest=graph_digest,
    )
    embedding_error = float(
        np.linalg.norm(noisy.embedding - noiseless.embedding)
        / max(np.linalg.norm(noiseless.embedding), 1e-12)
    )
    ari, accuracy = label_scores(truth, noisy.labels)
    return [
        TrialRecord(
            experiment="F4",
            method="quantum-analytic",
            parameters={"shots": shots},
            seed=seed,
            ari=ari,
            accuracy=accuracy,
            extra={"embedding_error": embedding_error},
        )
    ]


def spec(
    shot_budgets=DEFAULT_SHOTS,
    num_nodes: int = 48,
    num_clusters: int = 2,
    trials: int = DEFAULT_TRIALS,
    precision_bits: int = 7,
    base_seed: int = DEFAULT_BASE_SEED,
    generator_version: str = "v1",
    store_dir: str | None = None,
    linalg_backend: str = "auto",
) -> SweepSpec:
    """The declarative F4 sweep."""
    return SweepSpec(
        name="fig4",
        artifact="Figure 4",
        description="Tomography shot-budget sweep: ARI and embedding error",
        axes=(SweepAxis("shots", tuple(shot_budgets)),),
        trial=_trial,
        seed=_trial_seed,
        base_seed=base_seed,
        trials=trials,
        fixed={
            "num_nodes": num_nodes,
            "num_clusters": num_clusters,
            "precision_bits": precision_bits,
            "generator_version": generator_version,
            "store_dir": store_dir,
            "linalg_backend": linalg_backend,
            "spectral_engine": SWEEP_SPECTRAL_ENGINE,
        },
        render=series,
    )


def series(records: list[TrialRecord]) -> str:
    """Markdown rendering of the F4 curve with mean embedding error."""
    rows = aggregate(records, ("shots",))
    # attach the mean embedding error per shot budget
    error_by_shots: dict[int, list[float]] = {}
    for record in records:
        error_by_shots.setdefault(record.parameters["shots"], []).append(
            record.extra["embedding_error"]
        )
    for row in rows:
        row["embed_err"] = float(np.mean(error_by_shots[row["shots"]]))
    return render_markdown_table(
        rows, ["shots", "method", "trials", "ari_mean", "ari_std", "embed_err"]
    )

