"""The ``spectral_engine`` knob: v2 (graph-block eigensolve) against v1.

v2 decomposes only the n × n graph block of the padded Laplacian and
appends the analytic pad eigenpairs.  It changes bits, so the contract
pinned here is a tolerance contract plus label parity, not identity:

* eigenvalues agree to 1e-12 and filtered rows to 1e-10;
* thresholds and accepted readout bins are identical;
* ARI against the planted partition matches on the golden graphs and on
  a 600-node mixed SBM.
"""

import numpy as np
import pytest
from test_golden import GOLDEN_V2, build_case

from repro import QSCConfig, QSCPipeline, api
from repro.core.projection import accepted_outcomes
from repro.core.qpe_engine import (
    PAD_EIGENVALUE,
    AnalyticQPEBackend,
    clear_spectral_cache,
    make_backend,
    spectral_cache_stats,
)
from repro.exceptions import ClusteringError
from repro.experiments.runner import registry
from repro.graphs import ensure_connected, mixed_sbm
from repro.graphs.hermitian import hermitian_laplacian
from repro.metrics import adjusted_rand_index

EIGENVALUE_TOLERANCE = 1e-12
ROW_TOLERANCE = 1e-10


def laplacian_of(num_nodes, seed=1):
    graph, _ = mixed_sbm(num_nodes, 2, p_intra=0.5, p_inter=0.05, seed=seed)
    ensure_connected(graph, seed=seed)
    return hermitian_laplacian(graph)


def engines(laplacian, precision_bits=6):
    return (
        AnalyticQPEBackend(laplacian, precision_bits, "v1"),
        AnalyticQPEBackend(laplacian, precision_bits, "v2"),
    )


def assert_backends_agree(v1, v2, threshold):
    assert v2.dim == v1.dim
    assert np.abs(v2.eigenvalues - v1.eigenvalues).max() <= EIGENVALUE_TOLERANCE
    accepted = accepted_outcomes(threshold, v1.precision_bits, v1.lambda_scale)
    nodes = np.arange(v1.num_nodes)
    rows1, probabilities1 = v1.project_rows(nodes, accepted)
    rows2, probabilities2 = v2.project_rows(nodes, accepted)
    assert np.abs(rows2 - rows1).max() <= ROW_TOLERANCE
    assert np.abs(probabilities2 - probabilities1).max() <= ROW_TOLERANCE
    assert np.abs(
        v2.component_acceptance(accepted) - v1.component_acceptance(accepted)
    ).max() <= ROW_TOLERANCE
    assert np.abs(
        v2.quantization_errors() - v1.quantization_errors()
    ).max() <= EIGENVALUE_TOLERANCE
    assert np.abs(
        v2.node_outcome_distribution(0) - v1.node_outcome_distribution(0)
    ).max() <= ROW_TOLERANCE


class TestBlockContract:
    @pytest.mark.parametrize("num_nodes", [5, 20, 33])
    def test_padded_shapes_are_unchanged(self, num_nodes):
        v1, v2 = engines(laplacian_of(num_nodes))
        dim = v1.dim
        assert v2.dim == dim and v2.num_nodes == num_nodes
        values = v2.eigenvalues
        assert values.shape == (dim,)
        assert np.all(np.diff(values) >= 0)
        assert np.sum(values == PAD_EIGENVALUE) >= dim - num_nodes
        accepted = accepted_outcomes(0.5, 6, v2.lambda_scale)
        rows, _ = v2.project_rows(np.arange(num_nodes), accepted)
        assert rows.shape == (num_nodes, dim)
        assert not rows[:, num_nodes:].any()  # exact zeros in the pad columns
        assert v2.component_acceptance(accepted).shape == (dim,)
        assert v2.quantization_errors().shape == (dim,)

    @pytest.mark.parametrize("num_nodes", [5, 20, 33])
    def test_v2_agrees_with_v1_within_tolerance(self, num_nodes):
        v1, v2 = engines(laplacian_of(num_nodes))
        assert_backends_agree(v1, v2, threshold=0.5)

    def test_power_of_two_graph_has_no_pad(self):
        v1, v2 = engines(laplacian_of(16))
        assert v2.dim == 16
        np.testing.assert_array_equal(v2.eigenvalues, v1.eigenvalues)

    def test_cache_entries_never_alias(self):
        """v2 keys by the unpadded Laplacian under its own prefix — even
        where padded and unpadded coincide (a power-of-two graph)."""
        laplacian = laplacian_of(16)
        clear_spectral_cache()
        AnalyticQPEBackend(laplacian, 5, "v1")
        AnalyticQPEBackend(laplacian, 5, "v2")
        assert spectral_cache_stats()["misses"] == 4
        AnalyticQPEBackend(laplacian, 5, "v2")
        assert spectral_cache_stats()["hits"] == 2

    def test_eigensolver_names_the_solve(self):
        v1, v2 = engines(laplacian_of(20))
        assert v1.eigensolver == "eigh(D=32)"
        assert v2.eigensolver == "eigh(n=20)"

    def test_make_backend_follows_the_config(self):
        laplacian = laplacian_of(20)
        for engine in ("v1", "v2"):
            backend = make_backend(laplacian, QSCConfig(spectral_engine=engine))
            assert backend.spectral_engine == engine

    def test_unknown_engine_is_a_typed_error(self):
        with pytest.raises(ClusteringError, match="spectral_engine"):
            QSCConfig(spectral_engine="v3")
        with pytest.raises(ClusteringError, match="spectral_engine"):
            AnalyticQPEBackend(laplacian_of(5), 4, "v0")

    def test_default_config_runs_v2_and_sweeps_pin_v1(self):
        assert QSCConfig().spectral_engine == "v2"
        for name, factory in sorted(registry().items()):
            assert factory().fixed["spectral_engine"] == "v1", name


class TestPipelineParity:
    @pytest.mark.parametrize("name", sorted(GOLDEN_V2))
    def test_golden_graphs(self, name):
        graph, k, config = build_case(name)
        v1 = QSCPipeline(k, config).run(graph)
        v2 = QSCPipeline(k, config.with_updates(spectral_engine="v2")).run(graph)
        assert v2.threshold == v1.threshold
        np.testing.assert_array_equal(v2.accepted_bins, v1.accepted_bins)
        np.testing.assert_array_equal(v2.labels, v1.labels)
        assert np.abs(v2.embedding - v1.embedding).max() <= ROW_TOLERANCE

    def test_600_node_mixed_sbm(self):
        graph, truth = api.mixed_sbm(600, 4, seed=2021, generator_version="v2")
        config = QSCConfig(spectral_engine="v1")
        v1 = QSCPipeline(4, config)
        v1_result = v1.run(graph)
        v2 = QSCPipeline(4, config.with_updates(spectral_engine="v2"))
        v2_result = v2.run(graph)
        assert_backends_agree(
            v1.state["backend"], v2.state["backend"], v1_result.threshold
        )
        assert v2_result.threshold == v1_result.threshold
        np.testing.assert_array_equal(v2_result.accepted_bins, v1_result.accepted_bins)
        assert adjusted_rand_index(truth, v2_result.labels) == adjusted_rand_index(
            truth, v1_result.labels
        )
