"""Integration tests for the end-to-end quantum pipeline."""

from fractions import Fraction

import numpy as np
import pytest

from repro import (
    ClassicalSpectralClustering,
    QSCConfig,
    QuantumSpectralClustering,
    adjusted_rand_index,
    cyclic_flow_sbm,
    mixed_sbm,
)
from repro.baselines import SymmetrizedSpectralClustering
from repro.core.config import is_count, is_deadline, is_seconds
from repro.core.runtime_model import fitted_exponent, profile_graph
from repro.exceptions import ClusteringError
from repro.graphs import random_mixed_graph, synthetic_netlist


class TestConfig:
    def test_defaults_valid(self):
        QSCConfig()

    def test_with_updates(self):
        config = QSCConfig().with_updates(shots=64)
        assert config.shots == 64
        assert config.precision_bits == QSCConfig().precision_bits

    def test_validation(self):
        with pytest.raises(ClusteringError):
            QSCConfig(precision_bits=0)
        with pytest.raises(ClusteringError):
            QSCConfig(backend="qiskit")
        with pytest.raises(TypeError):  # the pipeline is symmetric-only
            QSCConfig(normalization="symmetric")
        with pytest.raises(ClusteringError):
            QSCConfig(qmeans_delta=-0.1)
        with pytest.raises(ClusteringError):
            QSCConfig(trotter_order=5)
        with pytest.raises(ClusteringError):
            QSCConfig(eigenvalue_threshold=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("precision_bits", True),
            ("precision_bits", 6.0),
            ("shots", 1.5),
            ("histogram_shots", "4096"),
            ("trotter_steps", np.float64(4.0)),
            ("trotter_order", False),
            ("qmeans_iterations", 30.0),
            ("kmeans_restarts", np.bool_(True)),
            ("readout_chunk_size", 8.5),
            ("qmeans_delta", float("nan")),
            ("qmeans_delta", float("inf")),
            ("eigenvalue_threshold", float("nan")),
            ("eigenvalue_threshold", float("inf")),
            ("theta", float("nan")),
            ("theta", -float("inf")),
        ],
    )
    def test_non_integer_counts_and_non_finite_reals_are_typed_errors(
        self, field, value
    ):
        with pytest.raises(ClusteringError, match=field):
            QSCConfig(**{field: value})

    def test_numpy_integers_stay_valid(self):
        config = QSCConfig(
            precision_bits=np.int64(5),
            shots=np.int32(64),
            readout_chunk_size=np.int64(2),
        )
        assert config.shots == 64


#: Every integer field of QSCConfig, the ``None``-able ones last.
INTEGER_FIELDS = (
    "precision_bits",
    "shots",
    "histogram_shots",
    "trotter_steps",
    "trotter_order",
    "qmeans_iterations",
    "kmeans_restarts",
    "readout_chunk_size",
)

#: Values a closed-vocabulary field accepted once and now rejects.
RETIRED_VALUES = {"spectral_engine": ("v2",), "linalg_backend": ("array",)}


class TestConfigFieldMatrix:
    """Each field's validation, checked field by field."""

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_bool_is_not_an_integer(self, field):
        with pytest.raises(ClusteringError, match=f"{field} must be an integer"):
            QSCConfig(**{field: True})

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_integral_float_is_not_an_integer(self, field):
        with pytest.raises(ClusteringError, match=f"{field} must be an integer"):
            QSCConfig(**{field: 2.0})

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_numpy_integer_is_accepted_as_is(self, field):
        # sweep axes hand NumPy scalars straight to the config
        config = QSCConfig(**{field: np.int32(2)})
        assert getattr(config, field) == 2

    @pytest.mark.parametrize(
        "field, least_valid, first_invalid",
        [
            ("precision_bits", 1, 0),
            ("shots", 0, -1),
            ("histogram_shots", 1, 0),
            ("trotter_steps", 1, 0),
            ("readout_chunk_size", 1, 0),
            ("qmeans_delta", 0.0, -1e-9),
            ("eigenvalue_threshold", 1e-9, 0.0),
        ],
    )
    def test_lower_bound_is_exact(self, field, least_valid, first_invalid):
        assert getattr(QSCConfig(**{field: least_valid}), field) == least_valid
        with pytest.raises(ClusteringError):
            QSCConfig(**{field: first_invalid})

    @pytest.mark.parametrize(
        "field, vocabulary",
        [
            ("backend", ("circuit", "analytic")),
            ("spectral_engine", ("v1", "v3")),
            ("linalg_backend", ("auto", "dense", "sparse")),
            ("evolution", ("exact", "trotter")),
        ],
    )
    def test_closed_vocabulary(self, field, vocabulary):
        for value in vocabulary:
            assert getattr(QSCConfig(**{field: value}), field) == value
        # A retired value is as unknown as a made-up one.
        for rejected in ("bogus", *RETIRED_VALUES.get(field, ())):
            with pytest.raises(ClusteringError, match=field):
                QSCConfig(**{field: rejected})

    @pytest.mark.parametrize("order", [0, 3])
    def test_trotter_order_is_one_or_two(self, order):
        with pytest.raises(ClusteringError, match="Trotter"):
            QSCConfig(trotter_order=order)

    @pytest.mark.parametrize("store_dir", ["", "   "])
    def test_blank_store_dir_is_rejected(self, store_dir):
        with pytest.raises(ClusteringError, match="store_dir"):
            QSCConfig(store_dir=store_dir)

    @pytest.mark.parametrize("field", ["theta", "qmeans_delta", "eigenvalue_threshold"])
    def test_every_real_field_rejects_both_infinities(self, field):
        for value in (float("inf"), -float("inf")):
            with pytest.raises(ClusteringError, match=f"{field} must be finite"):
                QSCConfig(**{field: value})


class TestSharedValidators:
    """The count and seconds checks the job supervisor
    (``repro.service.supervisor``) and the job manager share: a bool is
    neither a count nor a number of seconds, and a NaN or an infinity is
    never a usable duration."""

    @pytest.mark.parametrize(
        "value, minimum",
        [(0, 0), (3, 1), (np.int64(2), 1), (np.uint8(0), 0)],
    )
    def test_is_count_accepts(self, value, minimum):
        assert is_count(value, minimum)

    @pytest.mark.parametrize(
        "value, minimum",
        [
            (True, 0),
            (False, 0),
            (np.bool_(True), 0),
            (2.0, 0),
            (-1, 0),
            (0, 1),
            ("3", 0),
            (None, 0),
        ],
    )
    def test_is_count_rejects(self, value, minimum):
        assert not is_count(value, minimum)

    @pytest.mark.parametrize(
        "value", [1, 0.5, np.float32(0.25), np.int64(2), Fraction(1, 4)]
    )
    def test_is_seconds_accepts(self, value):
        assert is_seconds(value)

    @pytest.mark.parametrize(
        "value",
        [True, 0, 0.0, -0.5, float("nan"), float("inf"), "1", None],
    )
    def test_is_seconds_rejects(self, value):
        assert not is_seconds(value)

    def test_a_deadline_is_none_or_positive_seconds(self):
        assert is_deadline(None) and is_deadline(0.01) and is_deadline(5)
        for value in (0, -1.0, float("nan"), float("inf"), True):
            assert not is_deadline(value)


class TestAnalyticPipeline:
    def test_mixed_sbm_recovery(self):
        graph, truth = mixed_sbm(48, 2, p_intra=0.5, p_inter=0.05, seed=0)
        config = QSCConfig(precision_bits=7, shots=1024, seed=1)
        result = QuantumSpectralClustering(2, config).fit(graph)
        assert adjusted_rand_index(truth, result.labels) > 0.9

    def test_flow_sbm_recovery_where_symmetrized_fails(self):
        graph, truth = cyclic_flow_sbm(
            60, 3, density=0.3, direction_strength=0.95, seed=1
        )
        config = QSCConfig(precision_bits=7, shots=1024, seed=2)
        quantum = QuantumSpectralClustering(3, config).fit(graph)
        symmetrized = SymmetrizedSpectralClustering(3, seed=0).fit(graph)
        quantum_ari = adjusted_rand_index(truth, quantum.labels)
        symmetrized_ari = adjusted_rand_index(truth, symmetrized.labels)
        assert quantum_ari > 0.9
        assert symmetrized_ari < 0.3

    def test_matches_classical_hermitian_in_high_shot_limit(self):
        graph, truth = mixed_sbm(32, 2, seed=3)
        config = QSCConfig(precision_bits=8, shots=0, qmeans_delta=0.0, seed=4)
        quantum = QuantumSpectralClustering(2, config).fit(graph)
        classical = ClassicalSpectralClustering(2, seed=4).fit(graph)
        assert adjusted_rand_index(quantum.labels, classical.labels) == 1.0
        assert adjusted_rand_index(truth, quantum.labels) == 1.0

    def test_result_fields(self):
        graph, _ = mixed_sbm(24, 2, seed=5)
        config = QSCConfig(precision_bits=6, shots=256, seed=6)
        result = QuantumSpectralClustering(2, config).fit(graph)
        assert result.num_nodes == 24
        assert result.embedding.shape[0] == 24
        assert result.row_norms.shape == (24,)
        assert result.eigenvalue_histogram.sum() == config.histogram_shots
        assert result.threshold > 0
        assert result.backend_name == "analytic"
        assert 0 < result.subspace_mass < 1

    def test_subspace_mass_near_k_over_n(self):
        graph, _ = mixed_sbm(32, 2, p_intra=0.7, p_inter=0.02, seed=7)
        config = QSCConfig(precision_bits=8, shots=0, seed=8)
        result = QuantumSpectralClustering(2, config).fit(graph)
        assert abs(result.subspace_mass - 2 / 32) < 0.04

    def test_explicit_threshold_respected(self):
        graph, _ = mixed_sbm(24, 2, seed=9)
        config = QSCConfig(eigenvalue_threshold=0.4, shots=128, seed=10)
        result = QuantumSpectralClustering(2, config).fit(graph)
        assert result.threshold == 0.4

    def test_too_many_clusters_rejected(self):
        graph, _ = mixed_sbm(8, 2, seed=12)
        with pytest.raises(ClusteringError):
            QuantumSpectralClustering(9).fit(graph)

    def test_deterministic_given_seed(self):
        graph, _ = mixed_sbm(24, 2, seed=13)
        config = QSCConfig(shots=256, seed=21)
        first = QuantumSpectralClustering(2, config).fit(graph)
        second = QuantumSpectralClustering(2, config).fit(graph)
        assert np.array_equal(first.labels, second.labels)

    def test_seed_changes_tomography_noise(self):
        graph, _ = mixed_sbm(24, 2, seed=14)
        a = QuantumSpectralClustering(2, QSCConfig(shots=64, seed=1)).fit(graph)
        b = QuantumSpectralClustering(2, QSCConfig(shots=64, seed=2)).fit(graph)
        assert not np.allclose(a.embedding, b.embedding)


class TestAutoK:
    @pytest.mark.parametrize("k_true", [2, 3])
    def test_auto_selects_and_clusters(self, k_true):
        graph, truth = mixed_sbm(36, k_true, p_intra=0.7, p_inter=0.02, seed=k_true)
        config = QSCConfig(
            precision_bits=7, shots=1024, histogram_shots=16384, seed=k_true
        )
        result = QuantumSpectralClustering("auto", config).fit(graph)
        assert len(np.unique(result.labels)) == k_true
        assert adjusted_rand_index(truth, result.labels) == 1.0

    def test_auto_estimator_is_reusable(self):
        graph, _ = mixed_sbm(24, 2, p_intra=0.7, p_inter=0.03, seed=5)
        estimator = QuantumSpectralClustering(
            "auto", QSCConfig(shots=256, histogram_shots=8192, seed=5)
        )
        first = estimator.fit(graph)
        second = estimator.fit(graph)
        assert estimator.num_clusters == "auto"
        assert np.array_equal(first.labels, second.labels)

    def test_auto_needs_four_nodes(self):
        graph, _ = mixed_sbm(3, 2, p_intra=1.0, seed=0)
        with pytest.raises(ClusteringError):
            QuantumSpectralClustering("auto").fit(graph)

    def test_invalid_cluster_spec(self):
        with pytest.raises(ClusteringError):
            QuantumSpectralClustering(0)
        with pytest.raises((ClusteringError, ValueError)):
            QuantumSpectralClustering("three")


class TestCircuitPipeline:
    def test_small_graph_end_to_end(self):
        graph, truth = mixed_sbm(12, 2, p_intra=0.8, p_inter=0.05, seed=0)
        config = QSCConfig(backend="circuit", precision_bits=5, shots=1024, seed=3)
        result = QuantumSpectralClustering(2, config).fit(graph)
        assert result.backend_name == "circuit"
        assert adjusted_rand_index(truth, result.labels) > 0.6

    def test_trotter_pipeline_runs(self):
        graph, truth = mixed_sbm(8, 2, p_intra=0.9, p_inter=0.05, seed=1)
        config = QSCConfig(
            backend="circuit",
            evolution="trotter",
            trotter_steps=8,
            precision_bits=4,
            shots=512,
            seed=4,
        )
        result = QuantumSpectralClustering(2, config).fit(graph)
        assert result.labels.shape == (8,)

    def test_circuit_agrees_with_analytic(self):
        graph, _ = mixed_sbm(12, 2, p_intra=0.8, p_inter=0.05, seed=2)
        base = dict(precision_bits=5, shots=0, qmeans_delta=0.0, seed=5)
        circuit = QuantumSpectralClustering(
            2, QSCConfig(backend="circuit", **base)
        ).fit(graph)
        analytic = QuantumSpectralClustering(
            2, QSCConfig(backend="analytic", **base)
        ).fit(graph)
        assert adjusted_rand_index(circuit.labels, analytic.labels) == 1.0


class TestNetlistClustering:
    def test_module_recovery(self):
        netlist = synthetic_netlist(
            3, 14, internal_fanin=3, cross_module_nets=2, feedback_registers=3,
            seed=0,
        )
        graph = netlist.to_mixed_graph(net_cliques=True)
        truth = netlist.module_labels()
        config = QSCConfig(precision_bits=7, shots=2048, theta=float(np.pi / 4), seed=6)
        result = QuantumSpectralClustering(3, config).fit(graph)
        assert adjusted_rand_index(truth, result.labels) > 0.5


class TestRuntimeModel:
    def test_profile_fields(self):
        graph = random_mixed_graph(32, 0.2, seed=0)
        sample = profile_graph(graph, 2)
        assert sample.num_nodes == 32
        assert sample.quantum_steps > 0
        assert sample.classical_steps >= 32**3
        assert sample.dense_seconds > 0

    def test_fitted_exponent_recovers_cubic(self):
        sizes = np.array([64, 128, 256, 512])
        values = sizes.astype(float) ** 3
        assert abs(fitted_exponent(sizes, values) - 3.0) < 1e-9

    def test_fitted_exponent_needs_two_points(self):
        with pytest.raises(ValueError):
            fitted_exponent([10], [100])
