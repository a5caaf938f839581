"""Benchmark — batched readout pipeline versus the per-row loop.

The F4-style tomography-dominated workload: every node's row must be
filtered, tomographed and shot-sampled.  The seed implementation walked
nodes one at a time — for the analytic backend that re-streams the full
eigenbasis through a matvec per row; for the circuit backend it re-runs
the forward QPE circuit for every basis input (and again for the
histogram).  The batched pipeline (``repro.core.readout``) does the filter
as one cache-blocked matmul / one batched circuit pass and vectorizes the
tomography arithmetic, keeping per-row RNG streams so outputs match the
loop at a fixed seed.

Speedup expectations (hardware-dependent — the filter matmul scales with
BLAS threads, the per-row loop's matvecs do not):

* circuit backend, full quantum pipeline (histogram + readout): ~5x on a
  single core; the benchmark asserts >= 3x.
* analytic backend, readout stage: ~3.5x on a single core (the per-row
  multinomial/normal draws are preserved bit-for-bit and bound the win —
  Amdahl), >= 5x with threaded BLAS; the benchmark asserts >= 2x.
"""

import time

import numpy as np
import pytest

from repro.core.config import QSCConfig
from repro.core.projection import accepted_outcomes
from repro.core.qpe_engine import make_backend
from repro.core.readout import batched_readout, canonicalize_row_phases
from repro.graphs import hermitian_laplacian, mixed_sbm, sparse_mixed_sbm
from repro.quantum.measurement import tomography_estimate
from repro.utils.rng import ensure_rng, spawn_rngs

SHOTS = 1024
ROW_SEED = 99
HISTOGRAM_SHOTS = 4096
HISTOGRAM_SEED = 5


def per_row_loop_readout(backend, accepted, shots, seed):
    """The seed's per-row readout: one project_row + tomography + binomial
    per node, then per-row phase anchoring."""
    n = backend.num_nodes
    rows = np.zeros((n, backend.dim), dtype=complex)
    norms = np.zeros(n)
    row_rngs = spawn_rngs(ensure_rng(seed), n)
    for node in range(n):
        filtered, probability = backend.project_row(node, accepted)
        if probability <= 0.0:
            continue
        estimate = tomography_estimate(filtered, shots, seed=row_rngs[node])
        if shots > 0:
            successes = row_rngs[node].binomial(shots, min(probability, 1.0))
            estimated_probability = successes / shots
        else:
            estimated_probability = probability
        rows[node] = np.sqrt(estimated_probability) * estimate
        norms[node] = np.sqrt(estimated_probability)
    return canonicalize_row_phases(rows), norms


def per_node_circuit_histogram(backend, shots, seed):
    """The seed's circuit histogram: one full forward simulation per node."""
    mixture = np.zeros(2**backend.precision_bits)
    for node in range(backend.num_nodes):
        basis = np.zeros(backend.dim, dtype=complex)
        basis[node] = 1.0
        table = backend._run_forward(basis).reshape(
            2**backend.precision_bits, backend.dim
        )
        mixture += (np.abs(table) ** 2).sum(axis=1)
    mixture /= backend.num_nodes
    return ensure_rng(seed).multinomial(shots, mixture).astype(float)


@pytest.mark.benchmark(group="readout-batch")
def test_bench_readout_analytic(benchmark):
    """512 nodes x 1024 shots, analytic backend: batched vs per-row loop."""
    graph, _ = sparse_mixed_sbm(512, 4, seed=1)
    laplacian = hermitian_laplacian(graph, backend="dense")
    config = QSCConfig(backend="analytic", precision_bits=6, shots=SHOTS)
    backend = make_backend(laplacian, config)
    accepted = accepted_outcomes(0.3, 6, backend.lambda_scale)

    start = time.perf_counter()
    loop_rows, loop_norms = per_row_loop_readout(backend, accepted, SHOTS, ROW_SEED)
    loop_seconds = time.perf_counter() - start

    result = benchmark.pedantic(
        lambda: batched_readout(backend, accepted, SHOTS, ensure_rng(ROW_SEED)),
        rounds=3,
        iterations=1,
    )
    batch_seconds = benchmark.stats.stats.min
    speedup = loop_seconds / batch_seconds
    print(
        f"\nanalytic 512x{SHOTS}: loop {loop_seconds:.3f}s, "
        f"batched {batch_seconds:.3f}s, speedup {speedup:.1f}x"
    )

    # identical outputs at fixed seed (same draws; filter matmul differs
    # only at float rounding between gemv and batched gemm)
    np.testing.assert_allclose(result.rows, loop_rows, atol=1e-9)
    np.testing.assert_allclose(result.norms, loop_norms, atol=1e-12)
    assert speedup >= 2.0, f"batched readout regressed: {speedup:.2f}x"


@pytest.mark.benchmark(group="readout-batch")
def test_bench_readout_circuit(benchmark):
    """Gate-level pipeline (histogram + readout): batched vs per-node runs."""
    graph, _ = mixed_sbm(48, 2, seed=1)
    laplacian = hermitian_laplacian(graph, backend="dense")
    config = QSCConfig(backend="circuit", precision_bits=5, shots=SHOTS)
    loop_backend = make_backend(laplacian, config)
    accepted = accepted_outcomes(0.4, 5, loop_backend.lambda_scale)

    start = time.perf_counter()
    loop_histogram = per_node_circuit_histogram(
        loop_backend, HISTOGRAM_SHOTS, HISTOGRAM_SEED
    )
    loop_rows, loop_norms = per_row_loop_readout(
        loop_backend, accepted, SHOTS, ROW_SEED
    )
    loop_seconds = time.perf_counter() - start

    def batched_pipeline():
        backend = make_backend(laplacian, config)
        histogram = backend.eigenvalue_histogram(
            HISTOGRAM_SHOTS, ensure_rng(HISTOGRAM_SEED)
        )
        readout = batched_readout(backend, accepted, SHOTS, ensure_rng(ROW_SEED))
        return histogram, readout

    histogram, readout = benchmark.pedantic(batched_pipeline, rounds=3, iterations=1)
    batch_seconds = benchmark.stats.stats.min
    speedup = loop_seconds / batch_seconds
    print(
        f"\ncircuit 48x{SHOTS} (+histogram): loop {loop_seconds:.3f}s, "
        f"batched {batch_seconds:.3f}s, speedup {speedup:.1f}x"
    )

    np.testing.assert_array_equal(histogram, loop_histogram)
    np.testing.assert_allclose(
        readout.rows, loop_rows[:, : readout.rows.shape[0]], atol=1e-9
    )
    np.testing.assert_allclose(readout.norms, loop_norms, atol=1e-12)
    assert speedup >= 3.0, f"batched circuit pipeline regressed: {speedup:.2f}x"
