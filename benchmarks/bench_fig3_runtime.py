"""Benchmark F3 — runtime scaling (quantum proxy vs classical O(n³))."""

import pytest

from repro.experiments import fig3_runtime_scaling
from repro.experiments.runner import SweepRunner


@pytest.mark.benchmark(group="F3")
def test_bench_runtime_scaling(benchmark):
    samples = benchmark.pedantic(
        lambda: fig3_runtime_scaling.samples_from_records(
            SweepRunner(fig3_runtime_scaling.spec(sizes=(64, 128, 256, 512)))
            .run()
            .records
        ),
        rounds=1,
        iterations=1,
    )
    fits = fig3_runtime_scaling.exponents(samples)
    # paper shape: near-linear quantum proxy vs cubic classical model.
    assert fits["quantum_steps"] < 2.0
    assert fits["classical_steps"] > 2.7
    # and the measured dense eigensolver really grows superquadratically
    # is machine-dependent; assert at least that time increases with n.
    times = [s.dense_seconds for s in samples]
    assert times[-1] > times[0]


@pytest.mark.benchmark(group="F3")
def test_bench_dense_eigensolve_512(benchmark):
    import numpy as np

    from repro.graphs import ensure_connected, hermitian_laplacian, mixed_sbm
    from repro.linalg import DenseBackend

    graph, _ = mixed_sbm(512, 2, p_intra=0.03, p_inter=0.005, seed=0)
    ensure_connected(graph, seed=0)
    laplacian = hermitian_laplacian(graph)

    values, vectors = benchmark(lambda: DenseBackend().lowest_eigenpairs(laplacian, 2))
    assert values.shape == (2,)
    assert np.isfinite(vectors).all()
