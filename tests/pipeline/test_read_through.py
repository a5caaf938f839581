"""Read-through stages: a run with a content store attached serves every
stage whose entry the store already holds, instead of recomputing it."""

import dataclasses

import pytest
from test_pipeline import CONFIG, results_equal

from repro import QSCConfig, QSCPipeline
from repro.core.qpe_engine import clear_spectral_cache
from repro.experiments import fig4_shots_sweep
from repro.experiments.runner import SweepRunner
from repro.graphs import ensure_connected, mixed_sbm
from repro.pipeline import STAGE_NAMES, build_stages, checkpoint
from repro.pipeline.checkpoint import context_fingerprint, graph_fingerprint
from repro.store import configure_store

#: QSCConfig fields no stage output depends on, so they stay out of every
#: stage's context fingerprint.  A field here must not change a published
#: stage payload; a field in neither this map nor some stage's
#: ``fingerprint_fields`` would let a warm run serve a stale stage.
OUTPUT_INVARIANT_FIELDS = {
    "readout_chunk_size": "chunking changes peak memory, not the readout rows",
    "store_dir": "where entries live, not what they hold",
}


@pytest.fixture
def graph():
    graph, _ = mixed_sbm(30, 2, p_intra=0.5, p_inter=0.05, seed=11)
    ensure_connected(graph, seed=11)
    return graph


def sources(result) -> list:
    return [row["source"] for row in result.profile]


def delete_stage_entry(store, graph, config, k, stage_name) -> None:
    """Remove the store entry a run published for ``stage_name``."""
    stage = next(s for s in build_stages() if s.name == stage_name)
    fingerprint = context_fingerprint(
        graph_fingerprint(graph),
        config,
        k if stage.fingerprint_clusters else None,
        stage.fingerprint_fields,
    )
    path = store._entry_path(
        checkpoint.STAGE_NAMESPACE, checkpoint.store_key(stage_name, fingerprint)
    )
    path.unlink()


class TestFingerprintCoverage:
    def test_every_config_field_is_fingerprinted_or_output_invariant(self):
        fingerprinted = set()
        for stage in build_stages():
            fingerprinted.update(stage.fingerprint_fields)
        fields = {field.name for field in dataclasses.fields(QSCConfig)}
        unclassified = fields - fingerprinted - set(OUTPUT_INVARIANT_FIELDS)
        assert not unclassified, (
            f"QSCConfig fields {sorted(unclassified)} are in no stage's "
            "fingerprint_fields and not declared output-invariant: a warm "
            "store run would serve stages computed under other values"
        )

    def test_invariant_fields_are_real_and_unfingerprinted(self):
        fields = {field.name for field in dataclasses.fields(QSCConfig)}
        assert set(OUTPUT_INVARIANT_FIELDS) <= fields
        for stage in build_stages():
            assert not set(OUTPUT_INVARIANT_FIELDS) & set(stage.fingerprint_fields)


class TestReadThrough:
    def test_warm_run_serves_every_stage_bit_identically(self, graph, tmp_store):
        cold = QSCPipeline(2, CONFIG).run(graph)
        warm = QSCPipeline(2, CONFIG).run(graph)
        assert sources(cold) == ["computed"] * len(STAGE_NAMES)
        assert sources(warm) == ["store"] * len(STAGE_NAMES)
        assert results_equal(cold, warm)

    @pytest.mark.parametrize("index", range(len(STAGE_NAMES)))
    def test_served_prefix_leaves_downstream_streams_unshifted(
        self, graph, tmp_store, index
    ):
        """Serving any prefix of stages and computing the rest lands on
        the cold run's bits: each stage draws from its own spawned stream."""
        cold = QSCPipeline(2, CONFIG).run(graph)
        for name in STAGE_NAMES[index:]:
            delete_stage_entry(tmp_store, graph, CONFIG, 2, name)
        mixed = QSCPipeline(2, CONFIG).run(graph)
        assert sources(mixed) == (
            ["store"] * index + ["computed"] * (len(STAGE_NAMES) - index)
        )
        assert results_equal(cold, mixed)

    @pytest.mark.parametrize("stage", STAGE_NAMES)
    def test_resume_never_serves_the_resumed_stage_or_later(
        self, graph, tmp_store, stage
    ):
        cold = QSCPipeline(2, CONFIG).run(graph)
        resumed = QSCPipeline(2, CONFIG).run(graph, resume_from=stage)
        index = STAGE_NAMES.index(stage)
        assert sources(resumed) == (
            ["checkpoint"] * index + ["computed"] * (len(STAGE_NAMES) - index)
        )
        assert results_equal(cold, resumed)

    def test_in_memory_resume_reads_through_the_store(self, graph, tmp_store):
        """An ``upstream`` resume serves its resumed stage onward; only a
        run-directory resume recomputes them."""
        reference = QSCPipeline(2, CONFIG)
        reference.run(graph)
        noisy = CONFIG.with_updates(shots=64)
        cold = QSCPipeline(2, noisy).run(
            graph, resume_from="readout", upstream=reference.state
        )
        warm = QSCPipeline(2, noisy).run(
            graph, resume_from="readout", upstream=reference.state
        )
        assert sources(cold) == ["reused"] * 2 + ["computed"] * 3
        assert sources(warm) == ["reused"] * 2 + ["store"] * 3
        assert results_equal(cold, warm)
        assert results_equal(QSCPipeline(2, noisy).run(graph), warm)

    def test_warm_fig4_trial_serves_its_noisy_fit(self, tmp_store, monkeypatch):
        sweep = fig4_shots_sweep.spec(
            shot_budgets=(32,), num_nodes=16, trials=1, precision_bits=5,
            store_dir=str(tmp_store.root),
        )
        cold = SweepRunner(sweep).run().records
        tmp_store.clear_memory()  # a fresh worker: only the disk tier is warm
        clear_spectral_cache()
        profiles = []
        run = QSCPipeline.run

        def recorded(self, graph, **kwargs):
            result = run(self, graph, **kwargs)
            profiles.append(sources(result))
            return result

        monkeypatch.setattr(QSCPipeline, "run", recorded)
        warm = SweepRunner(sweep).run().records
        assert warm == cold
        # the noiseless reference fit, then the noisy fit resumed from it
        assert profiles == [
            ["store"] * len(STAGE_NAMES),
            ["reused"] * 2 + ["store"] * 3,
        ]

    def test_served_stages_are_written_to_save_stages(
        self, graph, tmp_store, tmp_path
    ):
        cold = QSCPipeline(2, CONFIG).run(graph)
        run_dir = tmp_path / "stages"
        warm = QSCPipeline(2, CONFIG).run(graph, save_stages=run_dir)
        assert sources(warm) == ["store"] * len(STAGE_NAMES)
        for name in STAGE_NAMES:
            assert checkpoint.has_stage_checkpoint(run_dir, name)
        # The directory alone (no store) resumes the run.
        configure_store(root=None)
        resumed = QSCPipeline(2, CONFIG).run(
            graph, resume_from="qmeans", stages_dir=run_dir
        )
        assert sources(resumed) == ["checkpoint"] * 4 + ["computed"]
        assert results_equal(cold, resumed)
