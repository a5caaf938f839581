"""The five concrete stages of the quantum spectral clustering pipeline.

Extracted verbatim from the monolithic ``QuantumSpectralClustering.fit``
(the golden test in ``tests/pipeline/test_golden.py`` pins bit-identity at
fixed seeds):

1. :class:`LaplacianStage` — Hermitian Laplacian 𝓛(θ) and the QPE backend
   built on it;
2. :class:`ThresholdStage` — sampled eigenvalue histogram, the auto-k
   branch (:mod:`repro.core.autok` — quantum model selection), and the
   projection threshold ν with its accepted readout set;
3. :class:`ReadoutStage` — the batched eigenvalue-filter / tomography /
   amplitude-estimation pass (:mod:`repro.core.readout`);
4. :class:`EmbeddingStage` — real feature map of the reconstructed rows;
5. :class:`QMeansStage` — δ-noisy k-means on the embedding.

Each stage checkpoints its outputs as plain arrays (see
:mod:`repro.pipeline.checkpoint`); the Laplacian stage stores the matrix
itself and rebuilds the QPE backend on load.  The rebuilt analytic backend
loads its spectrum on first use — from the spectral cache or the store, or
by recomputing the eigendecomposition — so a run whose later stages are
all loaded never reads it.  The embedding stage's entry repeats the
readout's row norms, so a run that serves it never reads the rows.
"""

from __future__ import annotations

import numpy as np

from repro.core.autok import estimate_num_clusters_quantum
from repro.core.projection import accepted_outcomes, select_threshold
from repro.core.qmeans import qmeans
from repro.core.qpe_engine import make_backend
from repro.core.readout import batched_readout
from repro.exceptions import ClusteringError
from repro.graphs.hermitian import hermitian_laplacian
from repro.linalg import is_sparse_matrix
from repro.pipeline.stage import Stage, StageContext, scalar
from repro.spectral.embedding import normalized_real_features
from repro.spectral.kmeans import KMeansResult


# Cumulative checkpoint-fingerprint field sets (see Stage.fingerprint_fields).
# The laplacian *payload* depends only on the graph/Laplacian knobs — the
# backend is rebuilt from the live config on load, so QPE fields stay out.
_LAPLACIAN_FIELDS = ("theta", "normalization", "linalg_backend")
# Threshold output adds everything the histogram + selection consume: the
# QPE engine construction knobs, the histogram budget, the explicit
# threshold, and the master seed the histogram stream derives from.
_THRESHOLD_FIELDS = _LAPLACIAN_FIELDS + (
    "backend",
    "spectral_engine",
    "precision_bits",
    "evolution",
    "trotter_steps",
    "trotter_order",
    "histogram_shots",
    "eigenvalue_threshold",
    "seed",
)
# Readout adds the shot budget (chunking provably doesn't change output —
# pinned in tests/core/test_readout.py — so that knob stays out, which is
# what lets a resume re-chunk freely).
_READOUT_FIELDS = _THRESHOLD_FIELDS + ("shots",)
_QMEANS_FIELDS = _READOUT_FIELDS + (
    "qmeans_delta",
    "qmeans_iterations",
    "kmeans_restarts",
)


class LaplacianStage(Stage):
    """Graph → Hermitian Laplacian → QPE backend."""

    name = "laplacian"
    requires = ()
    provides = ("laplacian", "backend")
    fingerprint_fields = _LAPLACIAN_FIELDS
    fingerprint_clusters = False

    def run(self, ctx: StageContext) -> dict:
        cfg = ctx.config
        laplacian = hermitian_laplacian(
            ctx.graph,
            theta=cfg.theta,
            normalization=cfg.normalization,
            backend=cfg.linalg_backend,
        )
        backend = make_backend(laplacian, cfg)
        # The representation the Laplacian was built in, and the eigensolve
        # the QPE engine actually ran on it (not the linalg backend's own
        # eigensolver route, which the quantum path never takes).
        ctx.backend_info = {
            "linalg_backend": "sparse" if is_sparse_matrix(laplacian) else "dense",
            "eigensolver": backend.eigensolver,
        }
        return {"laplacian": laplacian, "backend": backend}

    def pack(self, values: dict) -> dict:
        laplacian = values["laplacian"]
        if is_sparse_matrix(laplacian):
            csr = laplacian.tocsr()
            return {
                "format": scalar("csr"),
                "data": csr.data,
                "indices": csr.indices,
                "indptr": csr.indptr,
                "shape": np.asarray(csr.shape),
            }
        return {"format": scalar("dense"), "matrix": np.asarray(laplacian)}

    def unpack(self, payload: dict, ctx: StageContext) -> dict:
        kind = str(payload["format"])
        if kind == "csr":
            import scipy.sparse as sparse

            laplacian = sparse.csr_matrix(
                (payload["data"], payload["indices"], payload["indptr"]),
                shape=tuple(int(s) for s in payload["shape"]),
            )
        elif kind == "dense":
            laplacian = payload["matrix"]
        else:
            raise ClusteringError(f"unknown laplacian checkpoint format {kind!r}")
        # Rebuilt, not stored (it is deterministic in laplacian and config);
        # deferred, so a fully served run never reads the spectrum.
        backend = make_backend(laplacian, ctx.config, deferred=True)
        return {"laplacian": laplacian, "backend": backend}


class ThresholdStage(Stage):
    """Histogram sampling, auto-k model selection and threshold choice."""

    name = "threshold"
    requires = ("backend",)
    provides = ("histogram", "num_clusters", "threshold", "accepted")
    fingerprint_fields = _THRESHOLD_FIELDS

    def run(self, ctx: StageContext) -> dict:
        cfg = ctx.config
        backend = ctx.require("backend")
        histogram = backend.eigenvalue_histogram(
            cfg.histogram_shots, ctx.rngs["histogram"]
        )
        if ctx.requested_clusters == "auto":
            if ctx.graph.num_nodes < 4:
                raise ClusteringError(
                    "auto cluster selection needs at least four nodes"
                )
            num_clusters = estimate_num_clusters_quantum(
                histogram,
                ctx.graph.num_nodes,
                cfg.precision_bits,
                backend.lambda_scale,
            ).num_clusters
        else:
            num_clusters = int(ctx.requested_clusters)
        if cfg.eigenvalue_threshold is not None:
            threshold = float(cfg.eigenvalue_threshold)
            accepted = accepted_outcomes(
                threshold, cfg.precision_bits, backend.lambda_scale
            )
        else:
            selection = select_threshold(
                histogram,
                num_clusters,
                ctx.graph.num_nodes,
                cfg.precision_bits,
                backend.lambda_scale,
            )
            threshold = selection.threshold
            # Accept every readout below the threshold, not only the bins
            # that happened to receive histogram counts — non-dyadic
            # eigenphases spread QPE mass into neighbouring bins and those
            # tails belong to the subspace too.
            accepted = accepted_outcomes(
                threshold, cfg.precision_bits, backend.lambda_scale
            )
        if accepted.size == 0:
            raise ClusteringError(
                "eigenvalue filter accepted no QPE readouts; increase "
                "precision_bits or the threshold"
            )
        return {
            "histogram": histogram,
            "num_clusters": num_clusters,
            "threshold": threshold,
            "accepted": accepted,
        }

    def pack(self, values: dict) -> dict:
        return {
            "histogram": np.asarray(values["histogram"], dtype=float),
            "num_clusters": scalar(int(values["num_clusters"])),
            "threshold": scalar(float(values["threshold"])),
            "accepted": np.asarray(values["accepted"], dtype=int),
        }

    def unpack(self, payload: dict, ctx: StageContext) -> dict:
        return {
            "histogram": np.asarray(payload["histogram"], dtype=float),
            "num_clusters": int(payload["num_clusters"]),
            "threshold": float(payload["threshold"]),
            "accepted": np.asarray(payload["accepted"], dtype=int),
        }


class ReadoutStage(Stage):
    """Batched eigenvalue filter, tomography and amplitude estimation."""

    name = "readout"
    requires = ("backend", "accepted")
    provides = ("rows", "norms", "probabilities")
    fingerprint_fields = _READOUT_FIELDS

    def run(self, ctx: StageContext) -> dict:
        cfg = ctx.config
        readout = batched_readout(
            ctx.require("backend"),
            ctx.require("accepted"),
            cfg.shots,
            ctx.rngs["rows"],
            chunk_size=cfg.readout_chunk_size,
        )
        return {
            "rows": readout.rows,
            "norms": readout.norms,
            "probabilities": readout.probabilities,
        }

    def pack(self, values: dict) -> dict:
        return {
            "rows": np.asarray(values["rows"], dtype=complex),
            "norms": np.asarray(values["norms"], dtype=float),
            "probabilities": np.asarray(values["probabilities"], dtype=float),
        }

    def unpack(self, payload: dict, ctx: StageContext) -> dict:
        return {
            "rows": np.asarray(payload["rows"], dtype=complex),
            "norms": np.asarray(payload["norms"], dtype=float),
            "probabilities": np.asarray(payload["probabilities"], dtype=float),
        }


class EmbeddingStage(Stage):
    """Real feature map of the reconstructed projector rows.

    It passes the readout's row norms through, so its entry carries
    everything of the readout a result keeps: a run that serves this
    stage never needs the rows themselves.
    """

    name = "embedding"
    requires = ("rows", "norms")
    provides = ("features", "norms")
    fingerprint_fields = _READOUT_FIELDS

    def run(self, ctx: StageContext) -> dict:
        rows = ctx.require("rows")
        features = normalized_real_features(rows[:, : ctx.graph.num_nodes])
        return {"features": features, "norms": ctx.require("norms")}

    def pack(self, values: dict) -> dict:
        return {
            "features": np.asarray(values["features"], dtype=float),
            "norms": np.asarray(values["norms"], dtype=float),
        }

    def unpack(self, payload: dict, ctx: StageContext) -> dict:
        return {
            "features": np.asarray(payload["features"], dtype=float),
            "norms": np.asarray(payload["norms"], dtype=float),
        }


class QMeansStage(Stage):
    """δ-noisy k-means on the spectral embedding."""

    name = "qmeans"
    requires = ("features", "num_clusters")
    provides = ("qmeans",)
    fingerprint_fields = _QMEANS_FIELDS

    def run(self, ctx: StageContext) -> dict:
        cfg = ctx.config
        km = qmeans(
            ctx.require("features"),
            ctx.require("num_clusters"),
            delta=cfg.qmeans_delta,
            max_iterations=cfg.qmeans_iterations,
            num_restarts=cfg.kmeans_restarts,
            seed=ctx.rngs["qmeans"],
        )
        return {"qmeans": km}

    def pack(self, values: dict) -> dict:
        km = values["qmeans"]
        return {
            "labels": np.asarray(km.labels, dtype=int),
            "centroids": np.asarray(km.centroids, dtype=float),
            "inertia": scalar(float(km.inertia)),
            "iterations": scalar(int(km.iterations)),
            "converged": scalar(bool(km.converged)),
        }

    def unpack(self, payload: dict, ctx: StageContext) -> dict:
        return {
            "qmeans": KMeansResult(
                labels=np.asarray(payload["labels"], dtype=int),
                centroids=np.asarray(payload["centroids"], dtype=float),
                inertia=float(payload["inertia"]),
                iterations=int(payload["iterations"]),
                converged=bool(payload["converged"]),
            )
        }


def build_stages() -> tuple[Stage, ...]:
    """Fresh instances of the five pipeline stages, in execution order."""
    return (
        LaplacianStage(),
        ThresholdStage(),
        ReadoutStage(),
        EmbeddingStage(),
        QMeansStage(),
    )


#: Stage names in execution order — the ``--resume-from`` vocabulary.
STAGE_NAMES = tuple(stage.name for stage in build_stages())
