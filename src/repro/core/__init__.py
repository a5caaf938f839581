"""The paper's core contribution: quantum spectral clustering of mixed graphs."""

from repro.core.config import QSCConfig
from repro.core.projection import (
    ThresholdSelection,
    accepted_outcomes,
    bin_value,
    select_threshold,
)
from repro.core.qpe_engine import (
    AnalyticQPEBackend,
    CircuitQPEBackend,
    LAMBDA_SCALE,
    PAD_EIGENVALUE,
    make_backend,
    pad_laplacian,
)
from repro.core.qmeans import noisy_assign_labels, perturb_centroids, qmeans
from repro.core.readout import (
    ReadoutResult,
    batched_readout,
    canonicalize_row_phases,
)
from repro.core.qsc import QuantumSpectralClustering
from repro.core.result import QSCResult
from repro.core.runtime_model import RuntimeSample, fitted_exponent, profile_graph
from repro.core.autok import (
    AutoKResult,
    eigenvalues_from_histogram,
    estimate_num_clusters_quantum,
)

__all__ = [
    "AutoKResult",
    "eigenvalues_from_histogram",
    "estimate_num_clusters_quantum",
    "QSCConfig",
    "ThresholdSelection",
    "accepted_outcomes",
    "bin_value",
    "select_threshold",
    "AnalyticQPEBackend",
    "CircuitQPEBackend",
    "LAMBDA_SCALE",
    "PAD_EIGENVALUE",
    "make_backend",
    "pad_laplacian",
    "noisy_assign_labels",
    "perturb_centroids",
    "qmeans",
    "ReadoutResult",
    "batched_readout",
    "canonicalize_row_phases",
    "QuantumSpectralClustering",
    "QSCResult",
    "RuntimeSample",
    "fitted_exponent",
    "profile_graph",
]
