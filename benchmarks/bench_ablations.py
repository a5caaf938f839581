"""Benchmarks A1–A3 — Trotter depth, θ phase, and gate-noise ablations."""

import numpy as np
import pytest

from repro.experiments import ablations


@pytest.mark.benchmark(group="A1")
def test_bench_trotter_ablation(benchmark):
    rows = benchmark.pedantic(
        lambda: ablations.trotter_ablation(steps_list=(1, 4, 16), orders=(1, 2)),
        rounds=1,
        iterations=1,
    )
    first_order = {r["steps"]: r for r in rows if r["order"] == 1}
    # error decreases monotonically with Trotter depth
    assert (
        first_order[1]["unitary_error"]
        > first_order[4]["unitary_error"]
        > first_order[16]["unitary_error"]
    )
    # second order beats first order at equal depth
    second_order = {r["steps"]: r for r in rows if r["order"] == 2}
    assert second_order[4]["unitary_error"] < first_order[4]["unitary_error"]


@pytest.mark.benchmark(group="A2")
def test_bench_theta_ablation(benchmark):
    rows = benchmark.pedantic(
        lambda: ablations.theta_ablation(thetas=(np.pi / 16, np.pi / 2), trials=3),
        rounds=1,
        iterations=1,
    )
    by_theta = {round(r["theta"], 3): r["ari_mean"] for r in rows}
    # directional signal strengthens with theta on flow SBMs
    assert by_theta[round(np.pi / 2, 3)] > by_theta[round(np.pi / 16, 3)]


@pytest.mark.benchmark(group="A3")
def test_bench_noise_ablation(benchmark):
    rows = benchmark.pedantic(
        lambda: ablations.noise_ablation(depolarizing_rates=(0.0, 0.05), shots=400),
        rounds=1,
        iterations=1,
    )
    by_rate = {r["depolarizing_rate"]: r["qpe_tv_distance"] for r in rows}
    # gate noise corrupts the QPE readout distribution
    assert by_rate[0.05] > by_rate[0.0]


@pytest.mark.benchmark(group="A4")
def test_bench_autok_ablation(benchmark):
    rows = benchmark.pedantic(
        lambda: ablations.autok_ablation(cluster_counts=(2, 3), trials=2, shots=8192),
        rounds=1,
        iterations=1,
    )
    # histogram-only model selection recovers k on well-separated SBMs
    assert all(r["quantum_hit_rate"] >= 0.5 for r in rows)


@pytest.mark.benchmark(group="A6")
def test_bench_expansion_ablation(benchmark):
    rows = benchmark.pedantic(
        lambda: ablations.expansion_ablation(trials=2),
        rounds=1,
        iterations=1,
    )
    by_style = {r["expansion"]: r["ari_mean"] for r in rows}
    # flow arcs alone carry most of the module signal
    assert by_style["star"] > 0.3
    assert by_style["clique"] > 0.4
