"""Benchmark T2 — netlist module partitioning."""

import numpy as np
import pytest

from repro.experiments import table2_netlist
from repro.experiments.runner import SweepRunner


@pytest.mark.benchmark(group="T2")
def test_bench_netlist_partitioning(benchmark, quick_trials):
    records = benchmark.pedantic(
        lambda: SweepRunner(
            table2_netlist.spec(
                module_counts=(3,), gates_per_module=12, trials=quick_trials
            )
        )
        .run()
        .records,
        rounds=1,
        iterations=1,
    )
    quantum = [r for r in records if r.method == "quantum"]
    symmetrized = [r for r in records if r.method == "symmetrized"]
    q_mean = np.mean([r.ari for r in quantum])
    s_mean = np.mean([r.ari for r in symmetrized])
    # paper shape: Hermitian clustering at least matches the direction-blind
    # baseline on signal-flow netlists (it wins clearly at full scale; the
    # reduced benchmark instances occasionally tie)
    assert q_mean >= s_mean - 0.05
    assert q_mean > 0.5


@pytest.mark.benchmark(group="T2")
def test_bench_c17_partition(benchmark):
    summary = benchmark.pedantic(table2_netlist.c17_partition, rounds=1, iterations=1)
    assert summary["num_nodes"] == 11
    assert summary["cut_weight"] >= 0
