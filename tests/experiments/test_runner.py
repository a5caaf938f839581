"""Tests for the unified sweep engine (``repro.experiments.runner``)."""

import json
import os

import pytest

from repro.exceptions import ClusteringError, ExperimentError
from repro.experiments import fig2_precision_sweep, fig4_shots_sweep
from repro.experiments.common import TrialRecord
from repro.experiments.runner import (
    ARTIFACT_SCHEMA,
    SweepAxis,
    SweepRunner,
    SweepSpec,
    get_spec,
    registry,
    validate_artifact,
    validate_artifact_file,
    write_artifact,
)
from repro.store import COUNTER_KEYS


def tiny_trial(point, trial, seed, rng, scale=1.0) -> list:
    """Deterministic toy trial: one record echoing its coordinates."""
    return [
        TrialRecord(
            experiment="TOY",
            method="echo",
            parameters=dict(point),
            seed=seed,
            ari=scale * point["x"],
            accuracy=float(trial),
            extra={"draw": float(rng.random())},
        )
    ]


def tiny_seed(point, trial, base_seed) -> int:
    return base_seed + 10 * trial + point["x"]


def counter_poking_trial(point, trial, seed, rng) -> list:
    """One spectral-cache miss plus one hit per task, under a task-unique
    fingerprint — so aggregated counters must equal the task count no
    matter which worker process ran which task."""
    import numpy as np

    from repro.core.qpe_engine import SPECTRAL_NAMESPACE
    from repro.store import get_store

    key = f"counter-poke-{seed}"
    build = lambda: {"eigenvalues": np.full(2, float(seed))}  # noqa: E731
    get_store().get_or_create(SPECTRAL_NAMESPACE, key, build)  # miss
    get_store().get_or_create(SPECTRAL_NAMESPACE, key, build)  # memory hit
    return [
        TrialRecord(
            experiment="TOY",
            method="poke",
            parameters=dict(point),
            seed=seed,
        )
    ]


def hard_exiting_trial(point, trial, seed, rng) -> list:
    """A stand-in for a segfaulted or OOM-killed worker: the process
    dies without a traceback or a piped-back result (module level so the
    parallel path can pickle it)."""
    os._exit(13)


def tiny_spec(**overrides) -> SweepSpec:
    settings = dict(
        name="toy",
        artifact="Toy",
        description="toy sweep for runner tests",
        axes=(SweepAxis("x", (1, 2, 3)),),
        trial=tiny_trial,
        seed=tiny_seed,
        base_seed=17,
        trials=2,
        fixed={"scale": 2.0},
    )
    settings.update(overrides)
    return SweepSpec(**settings)


class TestSweepSpec:
    def test_points_are_the_cartesian_product_first_axis_outermost(self):
        spec = tiny_spec(axes=(SweepAxis("a", (1, 2)), SweepAxis("b", ("x", "y"))))
        assert spec.points() == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_tasks_enumerate_trials_within_points(self):
        tasks = tiny_spec().tasks()
        assert [(t.point["x"], t.trial) for t in tasks] == [
            (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1),
        ]
        assert [t.seed for t in tasks] == [18, 28, 19, 29, 20, 30]
        assert [t.index for t in tasks] == list(range(6))

    def test_validation(self):
        with pytest.raises(ExperimentError):
            tiny_spec(trials=0)
        with pytest.raises(ExperimentError):
            tiny_spec(axes=())
        with pytest.raises(ExperimentError):
            SweepAxis("x", ())

    def test_with_updates(self):
        assert tiny_spec().with_updates(trials=7).trials == 7

    def test_legacy_seed_formulas_are_preserved(self):
        fig2_tasks = fig2_precision_sweep.spec(precisions=(2, 7), trials=2).tasks()
        assert [t.seed for t in fig2_tasks] == [702, 733, 707, 738]
        fig4_tasks = fig4_shots_sweep.spec(shot_budgets=(16, 64), trials=2).tasks()
        assert [t.seed for t in fig4_tasks] == [1116, 1169, 1164, 1217]

    def test_fig3_extra_trials_use_distinct_seeds(self):
        from repro.experiments import fig3_runtime_scaling

        spec = fig3_runtime_scaling.spec(sizes=(32, 64))
        assert [t.seed for t in spec.tasks()] == [932, 964]  # legacy at trial 0
        seeds = [t.seed for t in spec.with_updates(trials=3).tasks()]
        assert len(set(seeds)) == len(seeds)


class TestSweepRunner:
    def test_records_in_task_order_with_fixed_kwargs(self):
        result = SweepRunner(tiny_spec()).run()
        assert [r.parameters["x"] for r in result.records] == [1, 1, 2, 2, 3, 3]
        assert [r.ari for r in result.records] == [2.0, 2.0, 4.0, 4.0, 6.0, 6.0]
        assert [r.seed for r in result.records] == [18, 28, 19, 29, 20, 30]

    def test_parallel_is_bit_identical_to_serial(self):
        spec = tiny_spec()
        serial = SweepRunner(spec, jobs=1).run()
        parallel = SweepRunner(spec, jobs=3).run()
        assert serial.records == parallel.records

    def test_parallel_real_sweep_is_bit_identical_to_serial(self):
        spec = fig2_precision_sweep.spec(
            precisions=(2, 5), num_nodes=20, trials=2, shots=64
        )
        serial = SweepRunner(spec, jobs=1).run()
        parallel = SweepRunner(spec, jobs=2).run()
        assert serial.records == parallel.records

    def test_rng_streams_are_deterministic_and_per_task(self):
        first = SweepRunner(tiny_spec()).run()
        second = SweepRunner(tiny_spec()).run()
        draws = [r.extra["draw"] for r in first.records]
        assert draws == [r.extra["draw"] for r in second.records]
        assert len(set(draws)) == len(draws)  # independent streams

    def test_jobs_must_be_positive(self):
        with pytest.raises(ExperimentError):
            SweepRunner(tiny_spec(), jobs=0)

    def test_worker_death_surfaces_as_a_clustering_error_naming_the_task(self):
        """A hard-exited worker used to escape as a raw
        ``BrokenProcessPool``; the runner now wraps it with the sweep
        name and the task coordinates so the operator knows what to
        resubmit."""
        spec = tiny_spec(trial=hard_exiting_trial, trials=1, fixed={})
        with pytest.raises(ClusteringError, match=r"sweep 'toy' task 0") as info:
            SweepRunner(spec, jobs=2).run()
        assert "worker process died mid-task" in str(info.value)
        assert "point={'x': 1}" in str(info.value)

    def test_trial_must_return_records(self):
        def bad_trial(point, trial, seed, rng):
            return ["not a record"]

        spec = tiny_spec(trial=bad_trial, fixed={})
        with pytest.raises(ExperimentError):
            SweepRunner(spec).run()

    def test_cache_accounting_for_fig4(self):
        from repro.core.qpe_engine import clear_spectral_cache

        clear_spectral_cache()
        spec = fig4_shots_sweep.spec(shot_budgets=(16,), num_nodes=16, trials=1)
        result = SweepRunner(spec).run()
        # noiseless fit misses (decomposition + kernel); the finite-shot
        # fit resumes from the readout stage against the reference fit's
        # in-memory state — no second backend construction, so the skip
        # shows up in the per-stage profile rather than as store hits.
        assert result.store["memory_hits"] + result.store["disk_hits"] == 0
        assert result.store["misses"] == 2
        assert result.profile["laplacian"] == {
            "seconds": result.profile["laplacian"]["seconds"],
            "computed": 1,
            "loaded": 1,
            "linalg_backend": "dense",
            "eigensolver": "eigh(D=16)",  # sweeps pin spectral_engine v1
        }
        assert result.profile["readout"]["computed"] == 2
        assert result.profile["qmeans"]["computed"] == 2

    def test_artifact_profile_reports_the_eigensolve_that_ran(self):
        """The laplacian row names the QPE engine's eigensolve (v1 for
        sweeps: the padded register), the threshold row carries no
        prediction any more, and the artifact validates."""
        spec = fig4_shots_sweep.spec(shot_budgets=(16,), num_nodes=12, trials=1)
        artifact = SweepRunner(spec).run().to_artifact()
        validate_artifact(artifact)
        assert artifact["spec"]["fixed"]["spectral_engine"] == "v1"
        assert artifact["profile"]["laplacian"]["eigensolver"] == "eigh(D=16)"
        assert "eigensolver" not in artifact["profile"]["threshold"]
        assert "linalg_backend" not in artifact["profile"]["threshold"]

    def test_counters_aggregate_across_parallel_workers(self):
        """Store counters sum over worker processes.

        Each task makes exactly one miss and one hit under a task-unique
        key, so the aggregated totals must equal the task count for any
        ``jobs`` value — the latent gap this pins: at ``jobs>1`` the
        deltas are measured inside the worker that ran the task and
        summed by the parent, not read from the parent's own (cold)
        process-local cache.
        """
        from repro.core.qpe_engine import clear_spectral_cache

        spec = tiny_spec(trial=counter_poking_trial, fixed={})
        tasks = len(spec.tasks())
        clear_spectral_cache()
        serial = SweepRunner(spec, jobs=1).run()
        clear_spectral_cache()
        parallel = SweepRunner(spec, jobs=3).run()
        clear_spectral_cache()
        for result in (serial, parallel):
            assert set(result.store) == set(COUNTER_KEYS)
            assert result.store["memory_hits"] == tasks
            assert result.store["misses"] == tasks
            assert result.store["disk_hits"] == 0  # no disk tier attached
        assert serial.records == parallel.records


class TestArtifacts:
    def test_roundtrip_validates(self, tmp_path):
        result = SweepRunner(tiny_spec()).run()
        path = write_artifact(result, tmp_path)
        artifact = validate_artifact_file(path)
        assert artifact["schema"] == ARTIFACT_SCHEMA
        assert artifact["name"] == "toy"
        assert len(artifact["records"]) == 6
        assert artifact["records"][0]["parameters"] == {"x": 1}
        assert artifact["spec"]["axes"] == {"x": [1, 2, 3]}
        assert json.loads(path.read_text()) == artifact

    def test_profile_field_for_pipeline_trials(self, tmp_path):
        """Trials that run the staged pipeline land per-stage telemetry in
        the artifact's additive ``profile`` field."""
        spec = fig4_shots_sweep.spec(shot_budgets=(16,), num_nodes=12, trials=1)
        artifact = SweepRunner(spec).run().to_artifact()
        validate_artifact(artifact)
        profile = artifact["profile"]
        from repro.pipeline import STAGE_NAMES

        assert set(STAGE_NAMES) <= set(profile)
        for entry in profile.values():
            assert entry["seconds"] >= 0.0
            assert entry["computed"] >= 1
        # fig4 resumes the noisy fit from the noiseless fit's state
        assert profile["laplacian"]["loaded"] == 1

    def test_artifact_without_profile_stays_valid(self, tmp_path):
        """The field is additive: pre-staged artifacts (no profile key)
        must keep validating."""
        artifact = SweepRunner(tiny_spec()).run().to_artifact()
        artifact.pop("profile")
        validate_artifact(artifact)

    def test_mistyped_profile_rejected(self):
        artifact = SweepRunner(tiny_spec()).run().to_artifact()
        artifact["profile"] = {"laplacian": {"seconds": "fast"}}
        with pytest.raises(ExperimentError, match="profile"):
            validate_artifact(artifact)
        artifact["profile"] = ["not", "a", "dict"]
        with pytest.raises(ExperimentError, match="profile"):
            validate_artifact(artifact)

    def test_toy_sweep_profile_is_empty(self):
        """Trials that never touch the staged pipeline contribute nothing."""
        result = SweepRunner(tiny_spec()).run()
        assert result.profile == {}

    def test_none_scores_serialize_as_null(self, tmp_path):
        def scoreless(point, trial, seed, rng):
            return [
                TrialRecord(
                    experiment="TOY",
                    method="m",
                    parameters=dict(point),
                    seed=seed,
                    extra={"value": 1.5},
                )
            ]

        result = SweepRunner(tiny_spec(trial=scoreless, fixed={})).run()
        artifact = result.to_artifact()
        assert artifact["records"][0]["ari"] is None

    def test_validate_rejects_bad_artifacts(self):
        artifact = SweepRunner(tiny_spec()).run().to_artifact()
        for mutation in (
            {"schema": "nope"},
            {"records": []},
            {"store": {}},
            {"store": {"misses": 1}},
            {"spec": {}},
            {"table": 7},
        ):
            broken = {**artifact, **mutation}
            with pytest.raises(ExperimentError):
                validate_artifact(broken)
        with pytest.raises(ExperimentError):
            validate_artifact([])

    def test_store_block_is_the_only_counter_block(self):
        artifact = SweepRunner(tiny_spec()).run().to_artifact()
        assert "cache" not in artifact
        assert set(artifact["store"]) == set(COUNTER_KEYS)
        # an artifact written before the spectral cache block was retired
        older = {**artifact, "cache": {"hits": 0, "misses": 2, "evictions": 0}}
        assert validate_artifact(older) is older

    def test_rendered_table_lands_in_artifact(self):
        spec = tiny_spec(render=lambda records: f"{len(records)} rows")
        artifact = SweepRunner(spec).run().to_artifact()
        assert artifact["table"] == "6 rows"


class TestRegistry:
    def test_all_six_paper_artifacts_registered(self):
        assert list(registry()) == [
            "fig1", "fig2", "fig3", "fig4", "table1", "table2",
        ]

    def test_specs_build_and_name_matches_key(self):
        for name, factory in registry().items():
            spec = factory()
            assert spec.name == name
            assert spec.axes and spec.description

    def test_get_spec_forwards_overrides(self):
        assert get_spec("fig2", trials=1).trials == 1
        with pytest.raises(ExperimentError):
            get_spec("fig9")
