"""Benchmark T1 — mixed-SBM accuracy table.

Regenerates the T1 comparison rows at benchmark scale and times the
dominant kernel (the quantum pipeline on one instance).  Shape assertions
enforce the paper's qualitative claim: quantum ≈ classical Hermitian.
"""

import numpy as np
import pytest

from repro import QSCConfig, QuantumSpectralClustering, adjusted_rand_index, mixed_sbm
from repro.experiments import table1_msbm
from repro.experiments.runner import SweepRunner
from repro.graphs import ensure_connected
from repro.spectral import ClassicalSpectralClustering


@pytest.mark.benchmark(group="T1")
def test_bench_quantum_pipeline_single_instance(benchmark):
    graph, truth = mixed_sbm(64, 2, p_intra=0.4, p_inter=0.05, seed=0)
    ensure_connected(graph, seed=0)
    config = QSCConfig(precision_bits=7, shots=512, seed=0)

    result = benchmark(lambda: QuantumSpectralClustering(2, config).fit(graph))
    assert adjusted_rand_index(truth, result.labels) > 0.9


@pytest.mark.benchmark(group="T1")
def test_bench_classical_pipeline_single_instance(benchmark):
    graph, truth = mixed_sbm(64, 2, p_intra=0.4, p_inter=0.05, seed=0)
    ensure_connected(graph, seed=0)

    result = benchmark(lambda: ClassicalSpectralClustering(2, seed=0).fit(graph))
    assert adjusted_rand_index(truth, result.labels) > 0.9


@pytest.mark.benchmark(group="T1")
def test_bench_table1_rows(benchmark, quick_trials):
    records = benchmark.pedantic(
        lambda: SweepRunner(
            table1_msbm.spec(sizes=(32,), cluster_counts=(2,), trials=quick_trials)
        )
        .run()
        .records,
        rounds=1,
        iterations=1,
    )
    rows = table1_msbm.table(records)
    assert "quantum" in rows and "classical" in rows
    quantum = [r for r in records if r.method == "quantum"]
    classical = [r for r in records if r.method == "classical"]
    q_mean = np.mean([r.ari for r in quantum])
    c_mean = np.mean([r.ari for r in classical])
    # paper shape: quantum within a small gap of exact classical Hermitian
    assert q_mean > c_mean - 0.1
