"""A stage that raises mid-run: what is published, and how a rerun resumes.

A failing stage fails the whole run, but every stage that finished before
it keeps its published content-store entry, while the failing stage and
everything downstream publish nothing.  A rerun therefore serves exactly
the finished prefix, recomputes the rest from the stages' own RNG
streams, and lands on the golden digest.  This is the crash-resume a
restarted job relies on, stage by stage.
"""

import pytest
from test_golden import GOLDEN, build_case, result_digest
from test_pipeline import keyed

from repro import QSCPipeline
from repro.core.qpe_engine import SPECTRAL_NAMESPACE, clear_spectral_cache
from repro.exceptions import ClusteringError
from repro.pipeline import STAGE_NAMES, build_stages, checkpoint
from repro.pipeline.checkpoint import context_fingerprint, graph_fingerprint

CASE = "analytic_shots"


def _break_stage(monkeypatch, name):
    """Make stage ``name`` raise as soon as it starts computing."""
    stage_class = type(next(s for s in build_stages() if s.name == name))

    def broken(self, ctx):
        raise ClusteringError(f"injected {name} failure")

    monkeypatch.setattr(stage_class, "run", broken)


def _store_entries(store, graph, config, k) -> list:
    """Names of the stages whose store entry exists, in stage order."""
    digest = graph_fingerprint(graph)
    published = []
    for stage in build_stages():
        fingerprint = context_fingerprint(
            digest,
            config,
            k if stage.fingerprint_clusters else None,
            stage.fingerprint_fields,
        )
        key = checkpoint.store_key(stage.name, fingerprint)
        if store.contains(checkpoint.STAGE_NAMESPACE, key):
            published.append(stage.name)
    return published


def _sources(result) -> list:
    return [row["source"] for row in result.profile]


def _fail_once(monkeypatch, stage, graph, k, config):
    """Run with ``stage`` broken, check the failure, then clear the fault."""
    _break_stage(monkeypatch, stage)
    with pytest.raises(ClusteringError, match=f"injected {stage} failure"):
        QSCPipeline(k, config).run(graph)
    monkeypatch.undo()


@pytest.mark.parametrize("stage", STAGE_NAMES)
class TestFailedStage:
    def test_store_holds_only_the_finished_prefix(
        self, stage, tmp_store, monkeypatch
    ):
        graph, k, config = build_case(CASE)
        config = keyed(tmp_store, config)
        _fail_once(monkeypatch, stage, graph, k, config)
        finished = list(STAGE_NAMES[: STAGE_NAMES.index(stage)])
        assert _store_entries(tmp_store, graph, config, k) == finished

    def test_a_rerun_that_fails_again_publishes_nothing_new(
        self, stage, tmp_store, monkeypatch
    ):
        graph, k, config = build_case(CASE)
        config = keyed(tmp_store, config)
        _fail_once(monkeypatch, stage, graph, k, config)
        _fail_once(monkeypatch, stage, graph, k, config)
        finished = list(STAGE_NAMES[: STAGE_NAMES.index(stage)])
        assert _store_entries(tmp_store, graph, config, k) == finished

    def test_store_rerun_serves_the_prefix_and_lands_on_golden(
        self, stage, tmp_store, monkeypatch
    ):
        graph, k, config = build_case(CASE)
        config = keyed(tmp_store, config)
        _fail_once(monkeypatch, stage, graph, k, config)
        index = STAGE_NAMES.index(stage)
        result = QSCPipeline(k, config).run(graph)
        assert _sources(result) == (
            ["store"] * index + ["computed"] * (len(STAGE_NAMES) - index)
        )
        assert result_digest(result) == GOLDEN[CASE]
        # The rerun published the rest: the store now holds every stage.
        assert _store_entries(tmp_store, graph, config, k) == list(STAGE_NAMES)

    def test_a_fresh_worker_rerun_at_the_failed_stage_lands_on_golden(
        self, stage, tmp_store, monkeypatch
    ):
        """The restarted job's case: a new process, so only the disk tier
        holds the finished prefix (and its spectral entries)."""
        graph, k, config = build_case(CASE)
        config = keyed(tmp_store, config)
        _fail_once(monkeypatch, stage, graph, k, config)
        clear_spectral_cache()
        index = STAGE_NAMES.index(stage)
        result = QSCPipeline(k, config).run(graph)
        assert _sources(result) == (
            ["store"] * index + ["computed"] * (len(STAGE_NAMES) - index)
        )
        # a served laplacian is read from disk by the stage that needs it
        if index in (1, 2):
            spectral = tmp_store.counters(SPECTRAL_NAMESPACE)
            assert spectral["memory_hits"] + spectral["disk_hits"] > 0
        assert result_digest(result) == GOLDEN[CASE]
        assert _store_entries(tmp_store, graph, config, k) == list(STAGE_NAMES)
