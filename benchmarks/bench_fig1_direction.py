"""Benchmark F1 — the direction-strength crossover figure."""

import numpy as np
import pytest

from repro.experiments import fig1_direction_sweep
from repro.experiments.runner import SweepRunner


@pytest.mark.benchmark(group="F1")
def test_bench_direction_sweep(benchmark, quick_trials):
    records = benchmark.pedantic(
        lambda: SweepRunner(
            fig1_direction_sweep.spec(
                strengths=(0.5, 1.0), num_nodes=48, trials=quick_trials
            )
        )
        .run()
        .records,
        rounds=1,
        iterations=1,
    )

    def mean_ari(method, strength):
        rows = [
            r.ari
            for r in records
            if r.method == method and r.parameters["strength"] == strength
        ]
        return float(np.mean(rows))

    # paper shape: quantum climbs from chance to (near-)perfect with
    # direction strength; symmetrized never leaves chance.
    assert mean_ari("quantum", 1.0) > 0.8
    assert mean_ari("quantum", 1.0) > mean_ari("quantum", 0.5) + 0.4
    assert abs(mean_ari("symmetrized", 1.0)) < 0.25
    assert abs(mean_ari("symmetrized", 0.5)) < 0.25
