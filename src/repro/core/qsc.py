"""End-to-end quantum spectral clustering of mixed graphs.

:class:`QuantumSpectralClustering` chains the full pipeline of the paper:

1. Hermitian Laplacian 𝓛(θ) of the mixed graph (symmetric normalization,
   spectrum ⊂ [0, 2]), padded to 2^m dimension;
2. QPE eigenvalue histogram on the maximally mixed node register →
   projection threshold ν (no classical eigensolve involved);
3. batched readout (:mod:`repro.core.readout`): eigenvalue filtering of
   every |e_i> (QPE → post-selection on readouts ≤ ν → uncompute),
   amplitude estimation of the acceptance probabilities, and finite-shot
   tomography of the filtered states, vectorized across all rows —
   yielding a noisy reconstruction of the subspace projector Π_k;
4. q-means (δ-noisy k-means) on the real feature map of those rows.

Row i of Π_k = U_k U_k† is the isometric image of the classical spectral
embedding row, so with exact arithmetic this reproduces classical Hermitian
spectral clustering — the quantum noise sources (quantization, shots, δ)
are exactly what the experiments sweep.

Since the staged-pipeline refactor the chain itself lives in
:mod:`repro.pipeline`: ``fit`` is a thin wrapper over
:class:`repro.pipeline.QSCPipeline`, which runs the same code as five
composable stages (``laplacian → threshold → readout → embedding →
qmeans``) with per-stage telemetry and checkpoint/resume support — and is
bit-identical to the historical monolithic ``fit`` at fixed seeds
(golden-pinned in ``tests/pipeline/test_golden.py``).
"""

from __future__ import annotations

from repro.core.config import QSCConfig
from repro.core.result import QSCResult
from repro.graphs.mixed_graph import MixedGraph
from repro.pipeline.pipeline import QSCPipeline


class QuantumSpectralClustering:
    """The paper's algorithm as a scikit-learn-style estimator.

    Parameters
    ----------
    num_clusters:
        Number of clusters k, or ``"auto"`` to select k from the sampled
        QPE eigenvalue histogram (quantum eigengap rule — see
        ``repro.core.autok`` and experiment A4).
    config:
        Pipeline tunables; ``None`` uses :class:`QSCConfig` defaults.

    Examples
    --------
    >>> from repro.graphs import cyclic_flow_sbm
    >>> graph, truth = cyclic_flow_sbm(48, 3, seed=1)
    >>> result = QuantumSpectralClustering(3).fit(graph)
    >>> result.labels.shape
    (48,)
    """

    def __init__(self, num_clusters, config: QSCConfig | None = None):
        # QSCPipeline owns the argument validation; a fresh pipeline is
        # built per fit so estimator instances stay stateless/reusable.
        pipeline = QSCPipeline(num_clusters, config)
        self.num_clusters = pipeline.num_clusters
        self.config = pipeline.config

    def fit(self, graph: MixedGraph, graph_digest: str | None = None) -> QSCResult:
        """Run the full quantum pipeline on ``graph``.

        With ``num_clusters="auto"`` the cluster count is selected from the
        sampled QPE histogram by the quantum eigengap rule
        (:func:`repro.core.autok.estimate_num_clusters_quantum`) inside the
        threshold stage — model selection stays end-to-end quantum.

        Delegates to :meth:`repro.pipeline.QSCPipeline.run` (which takes
        ``graph_digest``, the graph's fingerprint if the caller holds it);
        use the pipeline directly to resume from another run's stage
        state (``resume_from`` with ``upstream``).
        """
        return QSCPipeline(self.num_clusters, self.config).run(
            graph, graph_digest=graph_digest
        )
