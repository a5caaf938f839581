"""Batched-readout equivalence tests.

The batched pipeline (:mod:`repro.core.readout`) must reproduce the
historical per-row loop exactly: per-row RNG streams are spawned the same
way and consume the same draws, so at a fixed seed the batched rows are
bit-identical to looping the scalar APIs over nodes.  These tests pin that
contract for both QPE backends, plus chunk-invariance and the circuit
backend's forward-table cache.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import QSCConfig
from repro.core.projection import accepted_outcomes
from repro.core.qpe_engine import LAMBDA_SCALE, make_backend
from repro.core.qsc import QuantumSpectralClustering
from repro.core.readout import batched_readout, canonicalize_row_phases
from repro.exceptions import ClusteringError
from repro.graphs import mixed_sbm
from repro.graphs.hermitian import hermitian_laplacian
from repro.quantum.measurement import (
    tomography_estimate,
    tomography_estimate_batch,
)
from repro.utils.linalg import BLOCK_ENTRIES, row_blocks
from repro.utils.rng import ensure_rng, spawn_rngs


def legacy_loop_readout(backend, accepted, shots, seed):
    """The seed implementation of the readout stage: batched filter call,
    then a Python loop doing per-row tomography, amplitude estimation and
    phase anchoring.  Kept verbatim as the bit-exact reference."""
    n = backend.num_nodes
    rows = np.zeros((n, backend.dim), dtype=complex)
    norms = np.zeros(n)
    row_rngs = spawn_rngs(ensure_rng(seed), n)
    filtered_rows, probabilities = backend.project_rows(np.arange(n), accepted)
    for node in range(n):
        filtered, probability = filtered_rows[node], probabilities[node]
        if probability <= 0.0:
            continue
        estimated_state = tomography_estimate(filtered, shots, seed=row_rngs[node])
        if shots > 0:
            successes = row_rngs[node].binomial(shots, min(probability, 1.0))
            estimated_probability = successes / shots
        else:
            estimated_probability = probability
        rows[node] = np.sqrt(estimated_probability) * estimated_state
        norms[node] = np.sqrt(estimated_probability)
    for node in range(n):
        anchor = rows[node][node]
        magnitude = abs(anchor)
        if magnitude > 1e-12:
            rows[node] = rows[node] * np.conj(anchor / magnitude)
    return rows, norms


def per_row_loop_readout(backend, accepted, shots, seed):
    """Fully per-row pipeline: one ``project_row`` call per node (the
    circuit backend re-simulates its forward circuit per node here)."""
    n = backend.num_nodes
    rows = np.zeros((n, backend.dim), dtype=complex)
    norms = np.zeros(n)
    row_rngs = spawn_rngs(ensure_rng(seed), n)
    for node in range(n):
        filtered, probability = backend.project_row(node, accepted)
        if probability <= 0.0:
            continue
        estimated_state = tomography_estimate(filtered, shots, seed=row_rngs[node])
        if shots > 0:
            successes = row_rngs[node].binomial(shots, min(probability, 1.0))
            estimated_probability = successes / shots
        else:
            estimated_probability = probability
        rows[node] = np.sqrt(estimated_probability) * estimated_state
        norms[node] = np.sqrt(estimated_probability)
    rows = canonicalize_row_phases(rows)
    return rows, norms


def make_case(backend_name, num_nodes, shots, precision_bits=5, seed=3):
    graph, _ = mixed_sbm(num_nodes, 2, seed=seed)
    laplacian = hermitian_laplacian(graph, backend="dense")
    config = QSCConfig(backend=backend_name, precision_bits=precision_bits, shots=shots)
    backend = make_backend(laplacian, config)
    accepted = accepted_outcomes(0.4, precision_bits, backend.lambda_scale)
    return backend, accepted, laplacian, config


@pytest.mark.parametrize("backend_name", ["analytic", "circuit"])
@pytest.mark.parametrize("shots", [0, 3, 256])
def test_batched_matches_legacy_loop_bitwise(backend_name, shots):
    """Batched readout == the seed loop, bit for bit, at the same seed, on
    the node columns it keeps (the loop's rows are ``dim`` wide)."""
    n = 20 if backend_name == "circuit" else 40
    backend, accepted, _, _ = make_case(backend_name, n, shots)
    loop_rows, loop_norms = legacy_loop_readout(backend, accepted, shots, 99)
    result = batched_readout(backend, accepted, shots, ensure_rng(99))
    assert result.rows.shape == (n, n)
    np.testing.assert_array_equal(result.rows, loop_rows[:, :n])
    np.testing.assert_array_equal(result.norms, loop_norms)


@pytest.mark.parametrize("backend_name", ["analytic", "circuit"])
def test_batched_matches_per_row_loop(backend_name):
    """Against the fully per-row pipeline the filter arithmetic differs at
    float rounding level (single-row gemv vs batched gemm), so the match is
    allclose instead of bitwise — but the sampled integers agree."""
    n = 16 if backend_name == "circuit" else 32
    backend, accepted, _, _ = make_case(backend_name, n, 128)
    loop_rows, loop_norms = per_row_loop_readout(backend, accepted, 128, 7)
    result = batched_readout(backend, accepted, 128, ensure_rng(7))
    np.testing.assert_allclose(result.rows, loop_rows, atol=1e-9)
    np.testing.assert_allclose(result.norms, loop_norms, atol=1e-12)


def has_one_row_block(num_rows, chunk):
    """Whether ``chunk``-row blocks of ``num_rows`` rows leave a block of
    exactly one row (the matrix-vector filter path)."""
    return num_rows > 1 and (chunk == 1 or num_rows % chunk == 1)


@pytest.mark.parametrize("backend_name", ["analytic", "circuit"])
def test_fit_identical_for_all_chunk_sizes(backend_name):
    """Same seed ⇒ identical labels, row norms and embedding whatever the
    chunking; a one-row block moves the embedding by float rounding only."""
    n = 16 if backend_name == "circuit" else 36
    graph, _ = mixed_sbm(n, 2, seed=5)
    base_config = QSCConfig(backend=backend_name, precision_bits=5, shots=192, seed=11)
    reference = QuantumSpectralClustering(2, base_config).fit(graph)
    for chunk in (1, 3, n // 2, n - 1, n, n + 7):
        config = base_config.with_updates(readout_chunk_size=chunk)
        result = QuantumSpectralClustering(2, config).fit(graph)
        np.testing.assert_array_equal(result.labels, reference.labels)
        np.testing.assert_array_equal(result.row_norms, reference.row_norms)
        if has_one_row_block(n, chunk):
            np.testing.assert_allclose(
                result.embedding, reference.embedding, rtol=0, atol=1e-15
            )
        else:
            np.testing.assert_array_equal(result.embedding, reference.embedding)


def test_chunked_readout_property():
    """Chunked vs unchunked readout: identical draws and, for every block
    length that leaves no one-row block, identical rows; a one-row block
    runs the filter as a matrix-vector product and moves its row by float
    rounding only."""
    n = 30
    backend, accepted, _, _ = make_case("analytic", n, 64)
    reference = batched_readout(backend, accepted, 64, ensure_rng(2))
    one_row_chunks = 0
    for chunk in range(1, n + 4):
        result = batched_readout(backend, accepted, 64, ensure_rng(2), chunk_size=chunk)
        np.testing.assert_array_equal(result.norms, reference.norms)
        np.testing.assert_array_equal(result.probabilities, reference.probabilities)
        if has_one_row_block(n, chunk):
            one_row_chunks += 1
            np.testing.assert_allclose(result.rows, reference.rows, rtol=0, atol=1e-15)
        else:
            np.testing.assert_array_equal(result.rows, reference.rows)
    assert one_row_chunks == 2  # chunk 1 and chunk 29


class DeadRowsBackend:
    """A backend whose listed rows have no mass in the filtered subspace."""

    def __init__(self, backend, dead):
        self._backend = backend
        self._dead = np.asarray(dead)
        self.num_nodes = backend.num_nodes
        self.dim = backend.dim

    def project_rows(self, nodes, accepted):
        states, probabilities = self._backend.project_rows(nodes, accepted)
        dead = np.isin(nodes, self._dead)
        states[dead] = 0.0
        probabilities[dead] = 0.0
        return states, probabilities


@pytest.mark.parametrize("engine", ["v1", "v3"])
@pytest.mark.parametrize("shots", [0, 64])
@pytest.mark.parametrize("num_nodes", [257, 300])
def test_default_blocks_equal_one_block(engine, shots, num_nodes):
    """The default row blocks (several here: D = 512 gives 128-row caps)
    reproduce a single n-row block bit for bit, dead rows included."""
    graph, _ = mixed_sbm(num_nodes, 2, seed=4)
    laplacian = hermitian_laplacian(graph, backend="dense")
    config = QSCConfig(precision_bits=5, shots=shots, spectral_engine=engine)
    backend = make_backend(laplacian, config)
    assert len(row_blocks(num_nodes, backend.dim)) > 1
    backend = DeadRowsBackend(backend, [0, 128, 129, num_nodes - 1])
    accepted = accepted_outcomes(0.4, 5, LAMBDA_SCALE)
    blocked = batched_readout(backend, accepted, shots, ensure_rng(6))
    single = batched_readout(
        backend, accepted, shots, ensure_rng(6), chunk_size=num_nodes
    )
    np.testing.assert_array_equal(blocked.rows, single.rows)
    np.testing.assert_array_equal(blocked.norms, single.norms)
    np.testing.assert_array_equal(blocked.probabilities, single.probabilities)
    assert not blocked.rows[[0, 128, 129, num_nodes - 1]].any()


def test_readout_working_set_is_bounded():
    """The readout's traced peak is its outputs plus the filter and
    tomography temporaries of one row block (about eight block-sized
    arrays), not several copies of the (n, dim) rows: 8.4 MiB here, where
    a single 300-row block peaks at 17.5 MiB."""
    num_nodes = 300
    graph, _ = mixed_sbm(num_nodes, 2, seed=4)
    laplacian = hermitian_laplacian(graph, backend="dense")
    backend = make_backend(laplacian, QSCConfig(precision_bits=5, shots=256))
    accepted = accepted_outcomes(0.4, 5, backend.lambda_scale)
    row_bytes = num_nodes * backend.dim * 16
    block_bytes = BLOCK_ENTRIES * 16
    batched_readout(backend, accepted, 256, ensure_rng(1))  # warm imports
    tracemalloc.start()
    try:
        batched_readout(backend, accepted, 256, ensure_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= row_bytes + 8 * block_bytes, (peak, row_bytes)


def test_tomography_batch_is_bitwise_per_row():
    """tomography_estimate_batch row i == tomography_estimate on row i with
    the same generator (the scalar API is a batch of one)."""
    rng = ensure_rng(0)
    states = rng.normal(size=(12, 17)) + 1j * rng.normal(size=(12, 17))
    batch_rngs = spawn_rngs(ensure_rng(42), 12)
    loop_rngs = spawn_rngs(ensure_rng(42), 12)
    batch = tomography_estimate_batch(states, 96, batch_rngs)
    for row in range(12):
        single = tomography_estimate(states[row], 96, seed=loop_rngs[row])
        np.testing.assert_array_equal(batch[row], single)


def test_circuit_forward_cache_consistency():
    """The cached forward table serves histograms and projections that agree
    with the uncached single-row reference simulation."""
    backend, accepted, _, _ = make_case("circuit", 12, 0)
    assert backend._table_cacheable()
    states, probabilities = backend.project_rows(np.arange(12), accepted)
    assert backend._forward_table is not None  # cache was populated
    for node in range(12):
        ref_state, ref_probability = backend.project_row(node, accepted)
        np.testing.assert_allclose(states[node], ref_state, atol=1e-9)
        assert probabilities[node] == pytest.approx(ref_probability, abs=1e-12)
    # histogram distribution matches the per-node reference distributions
    mixture = np.zeros(2**backend.precision_bits)
    for node in range(12):
        mixture += backend.node_outcome_distribution(node)
    mixture /= 12
    histogram = backend.eigenvalue_histogram(4096, ensure_rng(1))
    assert histogram.sum() == 4096
    sampled = histogram / 4096
    assert np.abs(sampled - mixture).max() < 0.05


def test_circuit_uncached_fallback_matches():
    """Force the no-cache path (tiny budget) and check it agrees with the
    cached path result."""
    from repro.core import qpe_engine

    backend, accepted, laplacian, config = make_case("circuit", 10, 0)
    cached_states, cached_probabilities = backend.project_rows(np.arange(10), accepted)
    original = qpe_engine.FORWARD_TABLE_CACHE_MAX_ENTRIES
    qpe_engine.FORWARD_TABLE_CACHE_MAX_ENTRIES = 0
    try:
        uncached_backend = make_backend(laplacian, config)
        states, probabilities = uncached_backend.project_rows(np.arange(10), accepted)
        assert uncached_backend._forward_table is None
    finally:
        qpe_engine.FORWARD_TABLE_CACHE_MAX_ENTRIES = original
    np.testing.assert_allclose(states, cached_states, atol=1e-9)
    np.testing.assert_allclose(probabilities, cached_probabilities, atol=1e-12)


def test_chunk_size_never_widens_circuit_batches():
    """readout_chunk_size is a memory bound: it may shrink the circuit
    backend's batched passes but never widen them past the default."""
    from repro.core.qpe_engine import DEFAULT_MAX_BATCH_COLUMNS

    _, _, laplacian, config = make_case("circuit", 10, 0)
    small = make_backend(laplacian, config.with_updates(readout_chunk_size=3))
    assert small.max_batch_columns == 3
    huge = make_backend(laplacian, config.with_updates(readout_chunk_size=100_000))
    assert huge.max_batch_columns == DEFAULT_MAX_BATCH_COLUMNS


def test_canonicalize_row_phases_anchors_diagonal():
    rng = ensure_rng(8)
    rows = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
    fixed = canonicalize_row_phases(rows)
    diagonal = fixed[np.arange(6), np.arange(6)]
    assert np.all(diagonal.real > 0)
    assert np.abs(diagonal.imag).max() < 1e-12
    # row magnitudes are untouched, and the input was not modified
    np.testing.assert_allclose(np.abs(fixed), np.abs(rows), atol=1e-12)
    assert not np.array_equal(fixed, rows)


def test_readout_rejects_bad_arguments():
    backend, accepted, _, _ = make_case("analytic", 8, 16)
    with pytest.raises(ClusteringError):
        batched_readout(backend, accepted, -1, ensure_rng(0))
    with pytest.raises(ClusteringError):
        batched_readout(backend, accepted, 16, ensure_rng(0), chunk_size=0)
    with pytest.raises(ClusteringError):
        QSCConfig(readout_chunk_size=0)


def test_dead_rows_stay_zero():
    """Rows with no accepted mass never consume RNG draws and stay zero."""
    backend, _, _, _ = make_case("analytic", 12, 64)
    empty_accept = np.array([], dtype=int)
    result = batched_readout(backend, empty_accept, 64, ensure_rng(0))
    assert np.all(result.rows == 0)
    assert np.all(result.norms == 0)
    assert np.all(result.probabilities == 0)
