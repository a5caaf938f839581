"""Tests for the experiment harness (reduced-scale runs of every module)."""

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments import (
    ablations,
    aggregate,
    fig1_direction_sweep,
    fig2_precision_sweep,
    fig3_runtime_scaling,
    fig4_shots_sweep,
    render_markdown_table,
    standard_methods,
    table1_msbm,
    table2_netlist,
)
from repro.experiments.common import TrialRecord
from repro.experiments.runner import SweepRunner


def run(module, **kwargs):
    """Records of ``module``'s sweep, run serially from its spec."""
    return SweepRunner(module.spec(**kwargs)).run().records


def make_record(method="m", ari=1.0, **params):
    return TrialRecord(
        experiment="X",
        method=method,
        parameters=params,
        seed=0,
        ari=ari,
        accuracy=ari,
    )


class TestCommon:
    def test_standard_methods_panel(self):
        methods = standard_methods(2, seed=0)
        assert set(methods) == {
            "quantum",
            "classical",
            "symmetrized",
            "random-walk",
            "disim",
            "adjacency",
        }

    def test_aggregate_groups_and_averages(self):
        records = [
            make_record(ari=1.0, n=8),
            make_record(ari=0.0, n=8),
            make_record(ari=0.5, n=16),
        ]
        rows = aggregate(records, ("n",))
        by_n = {row["n"]: row for row in rows}
        assert by_n[8]["ari_mean"] == 0.5
        assert by_n[8]["trials"] == 2
        assert by_n[16]["ari_mean"] == 0.5

    def test_aggregate_orders_numeric_groups_numerically(self):
        shots = (1024, 16, 4096, 256, 64)
        records = [
            make_record(method=method, shots=value)
            for value in shots
            for method in ("quantum", "classical")
        ]
        rows = aggregate(records, ("shots",))
        assert [(row["method"], row["shots"]) for row in rows] == [
            (method, value)
            for method in ("classical", "quantum")
            for value in (16, 64, 256, 1024, 4096)
        ]

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ExperimentError):
            aggregate([], ())

    def test_render_markdown(self):
        rows = aggregate([make_record(n=8)], ("n",))
        text = render_markdown_table(rows)
        assert text.startswith("| method |")
        assert "| 8 |" in text or "| m |" in text

    def test_render_empty_rejected(self):
        with pytest.raises(ExperimentError):
            render_markdown_table([])


class TestQuickRuns:
    """Tiny-parameter executions of each experiment module."""

    def test_t1(self):
        records = run(table1_msbm, sizes=(24,), cluster_counts=(2,), trials=1)
        assert len(records) == 6  # one instance x 6 methods
        assert "quantum" in table1_msbm.table(records)

    def test_t2(self):
        records = run(
            table2_netlist, module_counts=(2,), gates_per_module=10, trials=1
        )
        assert any(r.method == "quantum" for r in records)
        assert "modules" in table2_netlist.table(records)

    def test_f1(self):
        records = run(fig1_direction_sweep, strengths=(1.0,), num_nodes=30, trials=1)
        quantum = [r for r in records if r.method == "quantum"]
        assert len(quantum) == 1
        assert "strength" in fig1_direction_sweep.series(records)

    def test_f2(self):
        records = run(fig2_precision_sweep, precisions=(3, 7), num_nodes=24, trials=1)
        assert all("bulk_leakage" in r.extra for r in records)
        leak = {r.parameters["p"]: r.extra["bulk_leakage"] for r in records}
        assert leak[7] <= leak[3]
        assert "eig_rmse" in fig2_precision_sweep.series(records)

    def test_f3(self):
        samples = fig3_runtime_scaling.samples_from_records(
            run(fig3_runtime_scaling, sizes=(32, 64))
        )
        assert len(samples) == 2
        fits = fig3_runtime_scaling.exponents(samples)
        assert fits["classical_steps"] > 2.5
        assert "fitted exponents" in fig3_runtime_scaling.series(samples)

    def test_f4(self):
        records = run(
            fig4_shots_sweep, shot_budgets=(64, 1024), num_nodes=24, trials=1
        )
        errors = {r.parameters["shots"]: r.extra["embedding_error"] for r in records}
        assert errors[1024] < errors[64]
        assert "embed_err" in fig4_shots_sweep.series(records)

    def test_a1(self):
        rows = ablations.trotter_ablation(steps_list=(1, 8), orders=(2,))
        by_steps = {r["steps"]: r for r in rows}
        assert by_steps[8]["unitary_error"] < by_steps[1]["unitary_error"]

    def test_a2(self):
        rows = ablations.theta_ablation(
            thetas=(np.pi / 16, np.pi / 2), num_nodes=36, trials=2
        )
        assert rows[-1]["ari_mean"] > rows[0]["ari_mean"]

    def test_a3(self):
        rows = ablations.noise_ablation(depolarizing_rates=(0.0, 0.05), shots=300)
        assert rows[1]["qpe_tv_distance"] > rows[0]["qpe_tv_distance"]

    def test_a4(self):
        rows = ablations.autok_ablation(cluster_counts=(2,), trials=2, shots=8192)
        assert rows[0]["quantum_hit_rate"] >= 0.5

    def test_a6(self):
        rows = ablations.expansion_ablation(trials=2)
        by_style = {r["expansion"]: r["ari_mean"] for r in rows}
        # both expansions recover module structure well above chance
        assert by_style["clique"] > 0.4
        assert by_style["star"] > 0.3
