"""The ``spectral_engine`` knob: v3 (graph-block eigensolve by LAPACK's
MRRR driver) against v1 (the padded register by NumPy's ``eigh``).

v3 decomposes only the n × n graph block of the padded Laplacian with
``scipy.linalg.eigh(driver="evr")`` and appends the analytic pad
eigenpairs.  That changes bits, so the contract pinned here is a tolerance
contract plus label parity, not identity:

* eigenvalues agree to 1e-12 and filtered rows and acceptances to 1e-10;
* v3's eigenvectors are orthonormal to 1e-10;
* thresholds, accepted readout bins and labels are identical on the
  golden graphs and on a 600-node mixed SBM.
"""

import numpy as np
import pytest
from test_golden import GOLDEN, GOLDEN_V3, build_case, result_digest
from test_pipeline import drop_stage_entries
from test_read_through import sources

from repro import QSCConfig, QSCPipeline, api
from repro.core.projection import accepted_outcomes
from repro.core.qpe_engine import (
    PAD_EIGENVALUE,
    AnalyticQPEBackend,
    SPECTRAL_NAMESPACE,
    clear_spectral_cache,
    make_backend,
)
from repro.exceptions import ClusteringError
from repro.experiments.runner import registry
from repro.graphs import ensure_connected, mixed_sbm
from repro.graphs.hermitian import hermitian_laplacian
from repro.metrics import adjusted_rand_index
from repro.pipeline import STAGE_NAMES
from repro.store import get_store

EIGENVALUE_TOLERANCE = 1e-12
ROW_TOLERANCE = 1e-10
ORTHOGONALITY_TOLERANCE = 1e-10


def spectral_counters():
    """The content store's counters of its spectral namespace."""
    return get_store().counters(SPECTRAL_NAMESPACE)


def laplacian_of(num_nodes, seed=1):
    graph, _ = mixed_sbm(num_nodes, 2, p_intra=0.5, p_inter=0.05, seed=seed)
    ensure_connected(graph, seed=seed)
    return hermitian_laplacian(graph)


def engines(laplacian, precision_bits=6, names=("v1", "v3")):
    return tuple(AnalyticQPEBackend(laplacian, precision_bits, name) for name in names)


def assert_backends_agree(base, other, threshold):
    assert other.dim == base.dim
    assert np.abs(other.eigenvalues - base.eigenvalues).max() <= EIGENVALUE_TOLERANCE
    accepted = accepted_outcomes(threshold, base.precision_bits, base.lambda_scale)
    nodes = np.arange(base.num_nodes)
    rows1, probabilities1 = base.project_rows(nodes, accepted)
    rows2, probabilities2 = other.project_rows(nodes, accepted)
    assert np.abs(rows2 - rows1).max() <= ROW_TOLERANCE
    assert np.abs(probabilities2 - probabilities1).max() <= ROW_TOLERANCE
    assert np.abs(
        other.component_acceptance(accepted) - base.component_acceptance(accepted)
    ).max() <= ROW_TOLERANCE
    assert np.abs(
        other.quantization_errors() - base.quantization_errors()
    ).max() <= EIGENVALUE_TOLERANCE
    assert np.abs(
        other.node_outcome_distribution(0) - base.node_outcome_distribution(0)
    ).max() <= ROW_TOLERANCE


class TestBlockContract:
    @pytest.mark.parametrize("num_nodes", [5, 20, 33])
    def test_padded_shapes_are_unchanged(self, num_nodes):
        v1, v3 = engines(laplacian_of(num_nodes))
        dim = v1.dim
        assert v3.dim == dim and v3.num_nodes == num_nodes
        values = v3.eigenvalues
        assert values.shape == (dim,)
        assert np.all(np.diff(values) >= 0)
        assert np.sum(values == PAD_EIGENVALUE) >= dim - num_nodes
        accepted = accepted_outcomes(0.5, 6, v3.lambda_scale)
        rows, _ = v3.project_rows(np.arange(num_nodes), accepted)
        assert rows.shape == (num_nodes, dim)
        assert not rows[:, num_nodes:].any()  # exact zeros in the pad columns
        assert v3.component_acceptance(accepted).shape == (dim,)
        assert v3.quantization_errors().shape == (dim,)

    @pytest.mark.parametrize("num_nodes", [5, 20, 33, 64])
    def test_v3_agrees_with_v1_within_tolerance(self, num_nodes):
        v1, v3 = engines(laplacian_of(num_nodes))
        assert_backends_agree(v1, v3, threshold=0.5)

    def test_power_of_two_graph_has_no_pad(self):
        v1, v3 = engines(laplacian_of(16))
        assert v3.dim == 16
        assert np.abs(v3.eigenvalues - v1.eigenvalues).max() <= EIGENVALUE_TOLERANCE

    def test_cache_entries_never_alias(self):
        """v3 keys by the unpadded Laplacian under its own prefix — even
        where padded and unpadded coincide (a power-of-two graph)."""
        laplacian = laplacian_of(16)
        clear_spectral_cache()
        AnalyticQPEBackend(laplacian, 5, "v1")
        AnalyticQPEBackend(laplacian, 5, "v3")
        assert spectral_counters()["misses"] == 4
        AnalyticQPEBackend(laplacian, 5, "v1")
        AnalyticQPEBackend(laplacian, 5, "v3")
        assert spectral_counters()["memory_hits"] == 4

    def test_eigensolver_names_the_solve(self):
        v1, v3 = engines(laplacian_of(20))
        assert v1.eigensolver == "eigh(D=32)"
        assert v3.eigensolver == "eigh-mrrr(n=20)"

    def test_make_backend_follows_the_config(self):
        laplacian = laplacian_of(20)
        for engine in ("v1", "v3"):
            backend = make_backend(laplacian, QSCConfig(spectral_engine=engine))
            assert backend.spectral_engine == engine

    def test_unknown_engine_is_a_typed_error(self):
        # "v2" (NumPy's eigh on the graph block) was retired
        for engine in ("unknown", "v0", "v2"):
            with pytest.raises(ClusteringError, match="spectral_engine"):
                QSCConfig(spectral_engine=engine)
            with pytest.raises(ClusteringError, match="spectral_engine"):
                AnalyticQPEBackend(laplacian_of(5), 4, engine)

    def test_default_config_runs_v3_and_sweeps_pin_v1(self):
        assert QSCConfig().spectral_engine == "v3"
        for name, factory in sorted(registry().items()):
            assert factory().fixed["spectral_engine"] == "v1", name


class TestPipelineParity:
    @pytest.mark.parametrize("name", sorted(GOLDEN_V3))
    def test_golden_graphs(self, name):
        graph, k, config = build_case(name)
        v1 = QSCPipeline(k, config).run(graph)
        v3 = QSCPipeline(k, config.with_updates(spectral_engine="v3")).run(graph)
        assert v3.threshold == v1.threshold
        np.testing.assert_array_equal(v3.accepted_bins, v1.accepted_bins)
        np.testing.assert_array_equal(v3.labels, v1.labels)
        assert np.abs(v3.embedding - v1.embedding).max() <= ROW_TOLERANCE

    def test_600_node_mixed_sbm(self):
        graph, truth = api.mixed_sbm(600, 4, seed=2021, generator_version="v2")
        config = QSCConfig(spectral_engine="v1")
        v1 = QSCPipeline(4, config)
        v1_result = v1.run(graph)
        v3 = QSCPipeline(4, config.with_updates(spectral_engine="v3"))
        v3_result = v3.run(graph)
        v3_backend = v3.state["backend"]
        assert v3_backend.eigensolver == "eigh-mrrr(n=600)"
        assert_backends_agree(v1.state["backend"], v3_backend, v1_result.threshold)
        gram = v3_backend._eigenvectors.conj().T @ v3_backend._eigenvectors
        assert np.abs(gram - np.eye(600)).max() <= ORTHOGONALITY_TOLERANCE
        assert v3_result.threshold == v1_result.threshold
        np.testing.assert_array_equal(v3_result.accepted_bins, v1_result.accepted_bins)
        np.testing.assert_array_equal(v3_result.labels, v1_result.labels)
        assert adjusted_rand_index(truth, v3_result.labels) == adjusted_rand_index(
            truth, v1_result.labels
        )


class TestMRRRContract:
    """What the MRRR driver must give beyond agreeing with v1."""

    @pytest.mark.parametrize("num_nodes", [5, 33, 64])
    def test_v3_eigenvectors_are_orthonormal(self, num_nodes):
        (v3,) = engines(laplacian_of(num_nodes), names=("v3",))
        vectors = v3._eigenvectors
        gram = vectors.conj().T @ vectors
        assert np.abs(gram - np.eye(num_nodes)).max() <= ORTHOGONALITY_TOLERANCE

    @pytest.mark.parametrize("name", sorted(GOLDEN_V3))
    def test_golden_graphs(self, name):
        """On each golden graph v3 solves only the n × n block, keeps it
        orthonormal and appends the analytic pad eigenvalues."""
        graph, k, config = build_case(name, engine="v3")
        pipeline = QSCPipeline(k, config)
        pipeline.run(graph)
        backend = pipeline.state["backend"]
        num_nodes = graph.num_nodes
        assert backend.eigensolver == f"eigh-mrrr(n={num_nodes})"
        vectors = backend._eigenvectors
        assert vectors.shape == (num_nodes, num_nodes)
        gram = vectors.conj().T @ vectors
        assert np.abs(gram - np.eye(num_nodes)).max() <= ORTHOGONALITY_TOLERANCE
        assert backend.dim > num_nodes
        assert np.all(backend.eigenvalues[num_nodes:] == PAD_EIGENVALUE)


class TestStoreAliasing:
    """v1 and v3 never serve each other's store entries, on disk either."""

    @pytest.mark.parametrize(
        "warmed_by, engine",
        [("v1", "v3"), ("v3", "v1")],
        ids=["v1-then-v3", "v3-then-v1"],
    )
    def test_a_store_warmed_by_one_engine_is_cold_for_the_other(
        self, tmp_path, pristine_store, warmed_by, engine
    ):
        golden = {"v1": GOLDEN, "v3": GOLDEN_V3}[engine]
        graph, k, config = build_case("analytic_shots", engine=warmed_by)
        config = config.with_updates(store_dir=str(tmp_path / "cas"))
        QSCPipeline(k, config).run(graph)
        get_store().clear_memory()
        result = QSCPipeline(k, config.with_updates(spectral_engine=engine)).run(graph)
        # the Laplacian payload is engine-free, so it alone is served; the
        # spectrum and every stage after it are the engine's own
        assert sources(result) == ["store"] + ["computed"] * (len(STAGE_NAMES) - 1)
        stats = spectral_counters()
        assert stats["memory_hits"] + stats["disk_hits"] == 0, stats
        assert stats["misses"] == 2, stats
        assert result_digest(result) == golden["analytic_shots"]

    @pytest.mark.parametrize("name", sorted(GOLDEN_V3))
    def test_a_disk_served_spectrum_keeps_the_golden(
        self, tmp_path, pristine_store, name
    ):
        """A fresh worker reads the v3 decomposition from disk (C order);
        a computed one must have the same layout, or the chunked readout's
        matmuls round differently."""
        graph, k, config = build_case(name, engine="v3")
        config = config.with_updates(store_dir=str(tmp_path / "cas"))
        QSCPipeline(k, config).run(graph)
        drop_stage_entries(graph, config, k, "threshold")
        get_store().clear_memory()
        resumed = QSCPipeline(k, config).run(graph)
        assert spectral_counters()["disk_hits"] == 2  # decomposition + kernel
        assert result_digest(resumed) == GOLDEN_V3[name]

    def test_served_default_cluster_equals_the_direct_run(
        self, tmp_path, pristine_store
    ):
        """``api.cluster`` runs v3 by default; a fully served rerun from the
        disk store is the direct run, bit for bit."""
        graph, k, _ = build_case("analytic_shots")
        fields = {"precision_bits": 6, "shots": 512, "seed": 5}
        direct = api.cluster(graph, k, **fields)
        assert result_digest(direct) == GOLDEN_V3["analytic_shots"]
        store_dir = str(tmp_path / "cas")
        api.cluster(graph, k, store_dir=store_dir, **fields)
        get_store().clear_memory()
        served = api.cluster(graph, k, store_dir=store_dir, **fields)
        assert sources(served) == ["store"] * len(STAGE_NAMES)
        assert result_digest(served) == result_digest(direct)
