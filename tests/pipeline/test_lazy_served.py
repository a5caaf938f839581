"""Served stages resolve on first use.

A run with a warm store only checks that each
stage's entry exists and reads it the first time something asks for one
of its keys.  A fully served fit therefore never reads its readout rows
(the embedding entry carries the row norms), and reads its Laplacian only
when ``state["backend"]`` is asked for.  Each case below equals the cold
run bit-for-bit and also pins *when* entries are read, so a pipeline that
loads served stages eagerly fails it.
"""

import gc

import numpy as np
import pytest
from test_pipeline import CONFIG, drop_stage_entries, keyed, results_equal
from test_read_through import graph, sources  # noqa: F401

from repro import QSCPipeline, api
from repro.experiments.fig2_precision_sweep import _filter_diagnostics
from repro.pipeline import STAGE_NAMES, build_stages, checkpoint
from repro.pipeline.checkpoint import context_fingerprint, graph_fingerprint
from repro.pipeline.stage import StageContext, StageState
from repro.store import ContentStore, configure_store


@pytest.fixture
def reads(monkeypatch):
    """Stage names whose store entries are read, in read order."""
    log = []
    disk_get = ContentStore._disk_get

    def recorded(self, namespace, key):
        if namespace == checkpoint.STAGE_NAMESPACE:
            log.append(key.split(":", 1)[1].split("@", 1)[0])
        return disk_get(self, namespace, key)

    monkeypatch.setattr(ContentStore, "_disk_get", recorded)
    return log


def entry_key(graph, stage_name, config=CONFIG, k=2) -> str:
    """The store key a run publishes ``stage_name`` under."""
    stage = next(s for s in build_stages() if s.name == stage_name)
    fingerprint = context_fingerprint(
        graph_fingerprint(graph),
        config,
        k if stage.fingerprint_clusters else None,
        stage.fingerprint_fields,
    )
    return checkpoint.store_key(stage_name, fingerprint)


def entry_path(store, graph, stage_name):
    return store._entry_path(checkpoint.STAGE_NAMESPACE, entry_key(graph, stage_name))


def corrupt(path) -> None:
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))


def cold_run(graph, config=CONFIG):
    """A computed run that fills the store, then a fresh worker's memory."""
    pipeline = QSCPipeline(2, config)
    result = pipeline.run(graph)
    assert sources(result) == ["computed"] * len(STAGE_NAMES)
    configure_store().clear_memory()
    return pipeline, result


class TestStageState:
    def test_deferred_keys_resolve_once_on_first_read(self):
        calls = []

        def resolve(state):
            calls.append(1)
            return {"a": 1, "b": 2}

        state = StageState()
        state.defer(("a", "b"), resolve)
        assert "a" in state and len(state) == 2 and not calls
        assert state["b"] == 2 and state["a"] == 1
        assert calls == [1]

    def test_a_later_provider_takes_a_shared_key_over(self):
        state = StageState()
        state.defer(("rows", "norms"), lambda s: {"rows": "r", "norms": "early"})
        state.defer(("features", "norms"), lambda s: {"features": "f", "norms": "late"})
        assert state["rows"] == "r"
        assert state["norms"] == "late"

    def test_a_failed_resolution_stays_pending(self):
        def fail(state):
            raise RuntimeError("boom")

        state = StageState()
        state.defer(("a",), fail)
        with pytest.raises(RuntimeError):
            state["a"]
        assert "a" in state
        state["a"] = 3
        assert state["a"] == 3


class TestLazyServedRun:
    def test_warm_cluster_reads_no_readout_or_laplacian_entry(
        self, graph, tmp_path, pristine_store, monkeypatch
    ):
        store_dir = str(tmp_path / "cas")
        cold = api.cluster(graph, 2, config=CONFIG, store_dir=store_dir)
        configure_store().clear_memory()
        disk_get = ContentStore._disk_get

        def guarded(self, namespace, key):
            if "readout@" in key or "laplacian@" in key:
                raise AssertionError(f"a fully served fit read {key}")
            return disk_get(self, namespace, key)

        monkeypatch.setattr(ContentStore, "_disk_get", guarded)
        warm = api.cluster(graph, 2, config=CONFIG, store_dir=store_dir)
        assert sources(warm) == ["store"] * len(STAGE_NAMES)
        assert results_equal(cold, warm)
        assert warm.backend_name == cold.backend_name == "analytic"
        assert np.array_equal(warm.qmeans.centroids, cold.qmeans.centroids)

    def test_corrupt_embedding_recomputes_from_lazily_read_rows(
        self, graph, tmp_store, reads
    ):
        _, cold = cold_run(graph, keyed(tmp_store))
        path = entry_path(tmp_store, graph, "embedding")
        corrupt(path)
        reads.clear()
        warm = QSCPipeline(2, keyed(tmp_store)).run(graph)
        assert sources(warm) == ["store", "store", "store", "computed", "store"]
        assert results_equal(cold, warm)
        # The rows are read because the embedding recomputes, not before.
        assert reads.index("embedding") < reads.index("readout")
        assert "laplacian" not in reads
        assert tmp_store.counters()["corrupt_evictions"] == 1
        # The recompute republished a sound entry.
        assert tmp_store.get(checkpoint.STAGE_NAMESPACE, entry_key(graph, "embedding"))

    def test_corrupt_readout_and_embedding_recompute_together(
        self, graph, tmp_store, reads
    ):
        cold_pipeline, cold = cold_run(graph, keyed(tmp_store))
        for name in ("readout", "embedding"):
            corrupt(entry_path(tmp_store, graph, name))
        reads.clear()
        pipeline = QSCPipeline(2, keyed(tmp_store))
        warm = pipeline.run(graph)
        assert sources(warm) == ["store", "store", "computed", "computed", "store"]
        assert results_equal(cold, warm)
        assert reads.index("embedding") < reads.index("readout")
        assert np.array_equal(pipeline.state["rows"], cold_pipeline.state["rows"])
        assert tmp_store.counters()["corrupt_evictions"] == 2

    def test_rows_resolve_when_state_is_read_after_the_run(
        self, graph, tmp_store, reads
    ):
        cold_pipeline, _ = cold_run(graph, keyed(tmp_store))
        reads.clear()
        pipeline = QSCPipeline(2, keyed(tmp_store))
        pipeline.run(graph)
        assert "readout" not in reads
        rows = pipeline.state["rows"]
        assert reads.count("readout") == 1
        assert np.array_equal(rows, cold_pipeline.state["rows"])
        assert np.array_equal(
            pipeline.state["probabilities"], cold_pipeline.state["probabilities"]
        )
        assert sources(pipeline) == ["store"] * len(STAGE_NAMES)

    def test_state_recomputes_after_the_store_is_detached(self, graph, tmp_store):
        cold_pipeline, _ = cold_run(graph, keyed(tmp_store))
        pipeline = QSCPipeline(2, keyed(tmp_store))
        pipeline.run(graph)
        configure_store(root=None)
        assert np.array_equal(pipeline.state["rows"], cold_pipeline.state["rows"])
        assert sources(pipeline)[2] == "computed"

    def test_in_memory_resume_from_a_served_state(self, graph, tmp_store, reads):
        _, cold = cold_run(graph, keyed(tmp_store))
        reads.clear()
        served = QSCPipeline(2, keyed(tmp_store))
        served.run(graph)
        assert "readout" not in reads and "laplacian" not in reads
        resumed = QSCPipeline(2, keyed(tmp_store)).run(
            graph, resume_from="embedding", upstream=served.state
        )
        assert sources(resumed) == ["reused"] * 3 + ["store"] * 2
        assert reads.count("readout") == 1
        assert results_equal(cold, resumed)

    def test_a_rerun_after_a_served_run_reads_its_readout(
        self, graph, tmp_store, reads
    ):
        _, cold = cold_run(graph, keyed(tmp_store))
        reads.clear()
        served = QSCPipeline(2, keyed(tmp_store)).run(graph)
        assert sources(served) == ["store"] * len(STAGE_NAMES)
        assert "readout" not in reads
        drop_stage_entries(graph, CONFIG, 2, "embedding")
        resumed = QSCPipeline(2, keyed(tmp_store)).run(graph)
        assert sources(resumed) == ["store"] * 3 + ["computed"] * 2
        assert reads.count("readout") == 1
        assert results_equal(cold, resumed)

    def test_fig2_diagnostics_after_a_served_fit(self, graph, tmp_store, reads):
        cold_pipeline, cold = cold_run(graph, keyed(tmp_store))
        expected = _filter_diagnostics(cold_pipeline.state["backend"], 2, cold.threshold)
        reads.clear()
        pipeline = QSCPipeline(2, keyed(tmp_store))
        warm = pipeline.run(graph)
        assert "laplacian" not in reads
        served = _filter_diagnostics(pipeline.state["backend"], 2, warm.threshold)
        assert reads.count("laplacian") == 1
        assert served == expected

    def test_a_v2_keyed_store_misses_once_and_recomputes(
        self, graph, tmp_store, monkeypatch, reads
    ):
        version = checkpoint.CHECKPOINT_VERSION
        assert version == 3
        monkeypatch.setattr(checkpoint, "CHECKPOINT_VERSION", 2)
        QSCPipeline(2, keyed(tmp_store)).run(graph)
        monkeypatch.setattr(checkpoint, "CHECKPOINT_VERSION", version)
        configure_store().clear_memory()
        upgraded = QSCPipeline(2, keyed(tmp_store)).run(graph)
        assert sources(upgraded) == ["computed"] * len(STAGE_NAMES)
        assert tmp_store.counters()["misses"] > 0
        configure_store().clear_memory()
        reads.clear()
        warm = QSCPipeline(2, keyed(tmp_store)).run(graph)
        assert sources(warm) == ["store"] * len(STAGE_NAMES)
        assert tmp_store.counters()["misses"] == 0
        assert "readout" not in reads
        assert results_equal(upgraded, warm)

    def test_a_served_run_leaves_no_context_alive(self, graph, tmp_store):
        cold_run(graph, keyed(tmp_store))
        pipeline = QSCPipeline(2, keyed(tmp_store))
        gc.collect()
        gc.disable()
        try:
            pipeline.run(graph)
            alive = [o for o in gc.get_objects() if isinstance(o, StageContext)]
        finally:
            gc.enable()
        assert alive == []
        assert "rows" in pipeline.state

