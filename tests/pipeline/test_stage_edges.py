"""Stage-boundary edge cases: degenerate spectra and filter extremes.

The threshold stage is the pipeline's decision point — these tests pin its
behaviour when the sampled spectrum degenerates (all histogram mass low,
single occupied bin) and when the eigenvalue filter accepts everything or
nothing, plus ``k="auto"`` flowing through the staged path.
"""

import numpy as np
import pytest

from repro import QSCConfig, QSCPipeline
from repro.core.projection import accepted_outcomes, select_threshold
from repro.exceptions import ClusteringError
from repro.graphs import MixedGraph, ensure_connected, mixed_sbm
from repro.pipeline.stage import StageContext
from repro.pipeline.stages import (
    EmbeddingStage,
    LaplacianStage,
    ReadoutStage,
    ThresholdStage,
)
from repro.utils.rng import ensure_rng


def make_ctx(graph, config, requested_clusters):
    ctx = StageContext(
        graph=graph,
        config=config,
        requested_clusters=requested_clusters,
        rngs={"histogram": ensure_rng(0)},
    )
    ctx.state.update(LaplacianStage().execute(ctx))
    return ctx


class TestSelectThresholdDegenerate:
    def test_all_mass_in_one_bin_accepts_it(self):
        """A fully degenerate sampled spectrum: one occupied bin ⇒ the
        'everything is low' branch, threshold one bin above it."""
        histogram = np.zeros(16)
        histogram[3] = 500.0
        selection = select_threshold(histogram, 2, 10, 4, 2.125)
        assert np.array_equal(selection.accepted_bins, [3])
        assert selection.threshold == pytest.approx(4 / 16 * 2.125)

    def test_mass_entirely_low_accepts_all_occupied(self):
        """Target mass beyond the last occupied bin ⇒ every occupied bin is
        classified low (k ≈ n degenerate request)."""
        histogram = np.zeros(16)
        histogram[[1, 2]] = 50.0
        selection = select_threshold(histogram, 10, 10, 4, 2.125)
        assert np.array_equal(selection.accepted_bins, [1, 2])

    def test_empty_histogram_rejected(self):
        with pytest.raises(ClusteringError, match="empty"):
            select_threshold(np.zeros(16), 2, 10, 4, 2.125)


class TestAcceptedOutcomesExtremes:
    def test_threshold_above_spectrum_accepts_every_outcome(self):
        accepted = accepted_outcomes(10.0, 4, 2.125)
        assert np.array_equal(accepted, np.arange(16))

    def test_tiny_threshold_accepts_only_the_zero_bin(self):
        # bin 0 maps to eigenvalue 0.0 <= any positive threshold, so the
        # filter can never come back empty from a positive threshold
        accepted = accepted_outcomes(1e-12, 6, 2.125)
        assert np.array_equal(accepted, [0])

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ClusteringError):
            accepted_outcomes(0.0, 4, 2.125)


class TestThresholdStageExtremes:
    def test_all_outcomes_accepted_still_clusters(self):
        """An explicit threshold above the whole spectrum accepts every
        readout — the filter becomes the identity, norms go to 1, and the
        pipeline must still terminate with valid labels."""
        graph, _ = mixed_sbm(16, 2, p_intra=0.8, p_inter=0.1, seed=0)
        ensure_connected(graph, seed=0)
        config = QSCConfig(
            precision_bits=5, shots=0, eigenvalue_threshold=10.0, seed=1
        )
        pipeline = QSCPipeline(2, config)
        result = pipeline.run(graph)
        accepted = pipeline.state["accepted"]
        assert accepted.size == 2**config.precision_bits
        assert np.allclose(result.row_norms, 1.0)
        assert result.labels.shape == (16,)

    def test_empty_acceptance_raises_at_the_stage_boundary(self, monkeypatch):
        """The stage's guard: an empty filter set is a hard error, not a
        silent all-zero readout."""
        import repro.pipeline.stages as stages_module

        graph, _ = mixed_sbm(12, 2, p_intra=0.8, p_inter=0.1, seed=0)
        ensure_connected(graph, seed=0)
        config = QSCConfig(precision_bits=4, shots=0, seed=1)
        monkeypatch.setattr(
            stages_module,
            "accepted_outcomes",
            lambda *args, **kwargs: np.empty(0, dtype=int),
        )
        ctx = make_ctx(graph, config, 2)
        with pytest.raises(ClusteringError, match="accepted no QPE readouts"):
            ThresholdStage().execute(ctx)

    def test_auto_k_needs_four_nodes_inside_the_stage(self):
        graph = MixedGraph(3)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        ctx = make_ctx(graph, QSCConfig(seed=0), "auto")
        with pytest.raises(ClusteringError, match="four nodes"):
            ThresholdStage().execute(ctx)

    def test_auto_k_resolved_by_the_stage(self):
        graph, _ = mixed_sbm(36, 3, p_intra=0.7, p_inter=0.02, seed=3)
        ensure_connected(graph, seed=3)
        config = QSCConfig(precision_bits=7, histogram_shots=16384, seed=3)
        ctx = make_ctx(graph, config, "auto")
        values = ThresholdStage().execute(ctx)
        assert values["num_clusters"] == 3
        assert values["accepted"].size > 0


class _ZeroAcceptanceBackend:
    """A QPE backend whose eigenvalue filter passes no mass for any row."""

    def __init__(self, backend):
        self.num_nodes = backend.num_nodes
        self.dim = backend.dim

    def project_rows(self, nodes, accepted):
        return np.zeros((len(nodes), self.dim), dtype=complex), np.zeros(len(nodes))


class TestZeroAcceptance:
    """Every row's acceptance is 0: the fit fails with a typed error
    instead of clustering NaN or all-zero features."""

    @pytest.fixture
    def upstream(self):
        graph, _ = mixed_sbm(16, 2, p_intra=0.8, p_inter=0.05, seed=0)
        ensure_connected(graph, seed=0)
        pipeline = QSCPipeline(2, QSCConfig(precision_bits=5, shots=0, seed=1))
        pipeline.run(graph)
        state = {
            key: pipeline.state[key]
            for key in ("laplacian", "histogram", "num_clusters", "threshold")
        }
        state["accepted"] = pipeline.state["accepted"]
        state["backend"] = _ZeroAcceptanceBackend(pipeline.state["backend"])
        return graph, state

    @pytest.mark.parametrize("shots", [0, 64])
    def test_the_fit_raises_a_clustering_error(self, upstream, shots):
        graph, state = upstream
        config = QSCConfig(precision_bits=5, shots=shots, seed=1)
        with pytest.raises(ClusteringError, match="distinct rows"):
            QSCPipeline(2, config).run(graph, resume_from="readout", upstream=state)

    def test_the_stages_before_q_means_stay_finite(self, upstream):
        graph, state = upstream
        ctx = StageContext(
            graph=graph,
            config=QSCConfig(precision_bits=5, shots=64, seed=1),
            requested_clusters=2,
            rngs={"rows": ensure_rng(0)},
        )
        ctx.state.update(state)
        readout = ReadoutStage().execute(ctx)
        assert not readout["probabilities"].any() and not readout["norms"].any()
        ctx.state.update(readout)
        features = EmbeddingStage().execute(ctx)["features"]
        assert np.isfinite(features).all() and not features.any()
