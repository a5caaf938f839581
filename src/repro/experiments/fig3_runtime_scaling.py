"""Experiment F3 — reproduces **Figure 3** of the paper: runtime scaling
of the quantum step proxy versus classical O(n³).

Swept knobs: graph size ``n`` (the only axis; one profile per size by
default, and each extra trial profiles an independent graph instance);
fixed knobs: cluster count, average degree, QPE precision and shots.  The
sweep runs through :class:`repro.experiments.runner.SweepRunner`; records
carry no ARI/accuracy (there is no ground truth to score) — each row's
measurements live in ``extra`` and are also available as
:class:`~repro.core.runtime_model.RuntimeSample` via
:func:`samples_from_records`.

For a sweep of graph sizes, measures the classical eigensolvers (dense
LAPACK and our Lanczos) and evaluates the modeled quantum step count (see
``repro.quantum.resources``).  The quantities of interest are the *fitted
growth exponents*: ≈3 for dense classical clustering, ≈1 for the
edge-dominated quantum proxy on sparse graphs — reproducing the paper's
"linear versus cubic" figure.  Wall-clock fields are measurements, so F3
artifacts are reproducible in shape but not bit-identical across runs.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.runtime_model import RuntimeSample, fitted_exponent, profile_graph
from repro.experiments.common import SWEEP_SPECTRAL_ENGINE, TrialRecord
from repro.experiments.runner import SweepAxis, SweepSpec
from repro.graphs import ensure_connected, mixed_sbm

DEFAULT_SIZES = (64, 128, 256, 512, 1024)
DEFAULT_BASE_SEED = 900


def _trial_seed(point, trial, base_seed) -> int:
    """The historical F3 seed formula plus a trial term.

    The term is zero for trial 0 (the default ``trials=1`` reproduces the
    pre-runner records exactly); extra trials — e.g. via the CLI's global
    ``--trials`` override — profile *independent* graph instances per size
    instead of re-measuring the same graph.
    """
    return base_seed + 7717 * trial + point["n"]


def _trial(
    point,
    trial,
    seed,
    rng,
    num_clusters,
    average_degree,
    precision_bits,
    shots,
    generator_version="v1",
    store_dir=None,
    linalg_backend="auto",
    spectral_engine="v1",
) -> list[TrialRecord]:
    """Profile one sparse mixed SBM at the point's size.

    ``store_dir``, ``linalg_backend`` and
    ``spectral_engine`` are accepted for uniformity but inert: F3 models
    quantum step counts (and profiles fixed explicit eigensolvers) instead
    of running the staged pipeline.
    """
    num_nodes = point["n"]
    # keep the average degree constant so edges grow linearly with n
    p_intra = min(1.0, 2.0 * average_degree / num_nodes)
    graph, _ = mixed_sbm(
        num_nodes,
        num_clusters,
        p_intra=p_intra,
        p_inter=p_intra / 8.0,
        seed=seed,
        generator_version=generator_version,
    )
    ensure_connected(graph, seed=seed - num_nodes)
    sample = profile_graph(
        graph,
        num_clusters,
        precision_bits=precision_bits,
        shots=shots,
    )
    return [
        TrialRecord(
            experiment="F3",
            method="runtime-model",
            parameters={"n": num_nodes},
            seed=seed,
            extra=asdict(sample),
        )
    ]


def samples_from_records(records: list[TrialRecord]) -> list[RuntimeSample]:
    """Rehydrate :class:`RuntimeSample` rows from sweep records."""
    return [RuntimeSample(**record.extra) for record in records]


def spec(
    sizes=DEFAULT_SIZES,
    num_clusters: int = 2,
    average_degree: float = 8.0,
    precision_bits: int = 6,
    shots: int = 256,
    base_seed: int = DEFAULT_BASE_SEED,
    generator_version: str = "v1",
    store_dir: str | None = None,
    linalg_backend: str = "auto",
) -> SweepSpec:
    """The declarative F3 sweep."""
    return SweepSpec(
        name="fig3",
        artifact="Figure 3",
        description="Runtime scaling: quantum step proxy vs classical O(n^3)",
        axes=(SweepAxis("n", tuple(sizes)),),
        trial=_trial,
        seed=_trial_seed,
        base_seed=base_seed,
        trials=1,
        fixed={
            "num_clusters": num_clusters,
            "average_degree": average_degree,
            "precision_bits": precision_bits,
            "shots": shots,
            "generator_version": generator_version,
            "store_dir": store_dir,
            "linalg_backend": linalg_backend,
            "spectral_engine": SWEEP_SPECTRAL_ENGINE,
        },
        render=render_records,
    )


def exponents(samples: list[RuntimeSample]) -> dict[str, float]:
    """Fitted log-log growth exponents of each runtime series."""
    sizes = [s.num_nodes for s in samples]
    return {
        "quantum_steps": fitted_exponent(sizes, [s.quantum_steps for s in samples]),
        "classical_steps": fitted_exponent(sizes, [s.classical_steps for s in samples]),
        "dense_seconds": fitted_exponent(sizes, [s.dense_seconds for s in samples]),
    }


def series(samples: list[RuntimeSample]) -> str:
    """Markdown rendering of the F3 scaling rows plus fitted exponents."""
    lines = [
        "| n | edges | quantum_steps | classical_steps | dense_s | lanczos_s |",
        "|---|---|---|---|---|---|",
    ]
    for sample in samples:
        row = asdict(sample)
        lines.append(
            "| {num_nodes} | {num_edges} | {quantum_steps:.3e} | "
            "{classical_steps:.3e} | {dense_seconds:.4f} | "
            "{lanczos_seconds:.4f} |".format(**row)
        )
    fits = exponents(samples)
    lines.append("")
    lines.append(
        "fitted exponents: "
        + ", ".join(f"{key}≈n^{value:.2f}" for key, value in fits.items())
    )
    return "\n".join(lines)


def render_records(records: list[TrialRecord]) -> str:
    """Record-level renderer used by the sweep engine and CLI artifacts."""
    return series(samples_from_records(records))

