"""Staged-pipeline behaviour: contracts, checkpoints, resume, telemetry."""

import hashlib

import numpy as np
import pytest

from repro import QSCConfig, QSCPipeline
from repro.exceptions import ClusteringError
from repro.graphs import MixedGraph, ensure_connected, mixed_sbm
from repro.pipeline import (
    STAGE_NAMES,
    StageContext,
    build_stages,
    checkpoint,
    reset_stage_totals,
    stage_totals,
)
from repro.pipeline.checkpoint import (
    CHECKPOINT_VERSION,
    STAGE_NAMESPACE,
    graph_fingerprint,
    store_key,
)
from repro.store import ContentStore, get_store


@pytest.fixture
def graph():
    graph, _ = mixed_sbm(30, 2, p_intra=0.5, p_inter=0.05, seed=11)
    ensure_connected(graph, seed=11)
    return graph


CONFIG = QSCConfig(precision_bits=6, shots=256, seed=5)


def stored(config, tmp_path):
    """``config`` publishing to (and serving from) a store in ``tmp_path``."""
    return config.with_updates(store_dir=str(tmp_path / "cas"))


def keyed(store, config=CONFIG):
    """``config`` naming the disk tier of ``store`` (a ``tmp_store``)."""
    return config.with_updates(store_dir=str(store.root))


def sources(result) -> list:
    return [row["source"] for row in result.profile]


def stage_entry_path(graph, config, num_clusters, stage_name):
    """The store file of the entry a keyed run publishes for ``stage_name``,
    keyed with the pipeline's own stage declarations."""
    stage = next(s for s in build_stages() if s.name == stage_name)
    fingerprint = checkpoint.context_fingerprint(
        graph,
        config,
        num_clusters if stage.fingerprint_clusters else None,
        stage.fingerprint_fields,
    )
    return get_store()._entry_path(STAGE_NAMESPACE, store_key(stage_name, fingerprint))


def drop_stage_entries(graph, config, num_clusters, first_stage) -> None:
    """Delete the entries of ``first_stage`` and every later stage, as if
    the run that published them had stopped there: a rerun serves the
    stages before ``first_stage`` and computes it onward."""
    for name in STAGE_NAMES[STAGE_NAMES.index(first_stage) :]:
        stage_entry_path(graph, config, num_clusters, name).unlink()


def results_equal(a, b) -> bool:
    return (
        np.array_equal(a.labels, b.labels)
        and np.array_equal(a.embedding, b.embedding)
        and np.array_equal(a.row_norms, b.row_norms)
        and np.array_equal(a.eigenvalue_histogram, b.eigenvalue_histogram)
        and a.threshold == b.threshold
        and np.array_equal(a.accepted_bins, b.accepted_bins)
    )


class TestStageContract:
    def test_stage_order_and_names(self):
        assert STAGE_NAMES == (
            "laplacian",
            "threshold",
            "readout",
            "embedding",
            "qmeans",
        )

    def test_declared_io_chains(self):
        """Every stage's requirements are provided by an earlier stage."""
        available: set = set()
        for stage in build_stages():
            missing = set(stage.requires) - available
            assert not missing, f"{stage.name} requires unprovided {missing}"
            available |= set(stage.provides)

    def test_execute_validates_missing_requirement(self, graph):
        stage = build_stages()[2]  # readout requires backend + accepted
        ctx = StageContext(
            graph=graph, config=CONFIG, requested_clusters=2, rngs={}
        )
        with pytest.raises(ClusteringError, match="upstream stage missing"):
            stage.execute(ctx)

    def test_pack_unpack_roundtrip_every_stage(self, graph, tmp_path):
        """Every stage's payload survives a trip through the store's disk
        tier (a second store instance reads what the first wrote)."""
        pipeline = QSCPipeline(2, CONFIG)
        pipeline.run(graph)
        ctx = StageContext(
            graph=graph, config=CONFIG, requested_clusters=2, rngs={}
        )
        for stage in build_stages():
            values = {key: pipeline.state[key] for key in stage.provides}
            ContentStore(root=tmp_path).put(
                STAGE_NAMESPACE, stage.name, stage.pack(values)
            )
            payload = ContentStore(root=tmp_path).get(STAGE_NAMESPACE, stage.name)
            restored = stage.unpack(payload, ctx)
            for key in stage.provides:
                if key == "backend":
                    assert restored[key].name == values[key].name
                    assert restored[key].dim == values[key].dim
                elif key == "qmeans":
                    assert np.array_equal(restored[key].labels, values[key].labels)
                    assert restored[key].inertia == values[key].inertia
                else:
                    assert np.array_equal(
                        np.asarray(restored[key]), np.asarray(values[key])
                    ), key


@pytest.mark.usefixtures("pristine_store")
class TestStoreCheckpoints:
    def test_store_key_layout_is_pinned(self):
        """Entries written by earlier checkouts keep their keys."""
        assert CHECKPOINT_VERSION == 3
        assert store_key("readout", "abc") == "v3:readout@abc"

    def test_a_version_bump_misses_every_old_entry(
        self, graph, tmp_path, monkeypatch
    ):
        config = stored(CONFIG, tmp_path)
        cold = QSCPipeline(2, config).run(graph)
        monkeypatch.setattr(checkpoint, "CHECKPOINT_VERSION", CHECKPOINT_VERSION + 1)
        rerun = QSCPipeline(2, config).run(graph)
        assert sources(rerun) == ["computed"] * len(STAGE_NAMES)
        assert results_equal(cold, rerun)


def per_edge_fingerprint(graph) -> str:
    """Reference: the record-at-a-time form of :func:`graph_fingerprint`."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(graph.num_nodes).encode())
    for edge in graph.edges():
        digest.update(f"{edge.u},{edge.v},{edge.weight},{edge.directed};".encode())
    return digest.hexdigest()


def fingerprint_graph(kind):
    graph = MixedGraph(5)
    if kind == "integer":
        graph.add_edges([(0, 1, 2), (1, 2, 3), (3, 4, 1)])
        graph.add_arcs([(2, 3, 4), (4, 0, 1)])
    elif kind == "fractional":
        graph.add_edge(0, 1, 0.1 + 0.2)
        graph.add_edge(2, 4, 1 / 3)
        graph.add_arc(3, 1, 2.5e-7)
    else:  # an arc merged onto an edge by its reverse arc
        graph.add_arc(0, 1, 0.75)
        graph.add_arc(1, 0, 1.5)
        graph.add_arc(2, 3, 1.0)
        graph.add_edge(3, 4, 0.5)
    return graph


class TestGraphFingerprint:
    @pytest.mark.parametrize("kind", ["integer", "fractional", "merged"])
    def test_matches_the_per_edge_formula(self, kind):
        graph = fingerprint_graph(kind)
        assert graph_fingerprint(graph) == per_edge_fingerprint(graph)

    def test_merged_arc_is_hashed_as_an_edge(self):
        graph = fingerprint_graph("merged")
        assert graph.has_edge(0, 1) and not graph.has_arc(0, 1)


@pytest.mark.usefixtures("pristine_store")
class TestResume:
    """A store-backed rerun serves each stage whose entry exists and
    computes the rest; ``drop_stage_entries`` stands in for a run that
    stopped before ``stage``.  A ``resume_from`` needs an in-memory
    ``upstream``."""

    @pytest.mark.parametrize("stage", STAGE_NAMES[1:])
    def test_store_resume_is_bit_identical(self, graph, tmp_path, stage):
        config = stored(CONFIG, tmp_path)
        full = QSCPipeline(2, config).run(graph)
        drop_stage_entries(graph, config, 2, stage)
        resumed = QSCPipeline(2, config).run(graph)
        assert results_equal(full, resumed)
        index = STAGE_NAMES.index(stage)
        assert sources(resumed)[:index] == ["store"] * index
        assert sources(resumed)[index:] == ["computed"] * (len(STAGE_NAMES) - index)

    def test_resume_from_readout_skips_upstream_counters(self, graph, tmp_path):
        """The acceptance-criteria pin: store-read counters prove the
        upstream stages did not execute."""
        config = stored(CONFIG, tmp_path)
        reset_stage_totals()
        QSCPipeline(2, config).run(graph)
        after_full = stage_totals()
        assert after_full["laplacian"] == {
            "seconds": after_full["laplacian"]["seconds"],
            "computed": 1,
            "loaded": 0,
            "linalg_backend": "dense",
            "eigensolver": "eigh-mrrr(n=30)",
        }
        drop_stage_entries(graph, config, 2, "readout")
        QSCPipeline(2, config).run(graph)
        totals = stage_totals()
        for skipped in ("laplacian", "threshold"):
            assert totals[skipped]["computed"] == 1  # only the full run
            assert totals[skipped]["loaded"] == 1  # the rerun served it
        for executed in ("readout", "embedding", "qmeans"):
            assert totals[executed]["computed"] == 2
            assert totals[executed]["loaded"] == 0

    def test_in_memory_upstream_resume(self, graph):
        reference = QSCPipeline(2, CONFIG)
        reference.run(graph)
        noisy_config = CONFIG.with_updates(shots=64)
        resumed = QSCPipeline(2, noisy_config).run(
            graph, resume_from="readout", upstream=reference.state
        )
        full = QSCPipeline(2, noisy_config).run(graph)
        assert results_equal(full, resumed)
        assert sources(resumed)[:3] == ["reused", "reused", "computed"]

    @pytest.mark.parametrize("keyed", [False, True], ids=["no-store", "store"])
    def test_resume_without_source_errors(self, graph, tmp_path, keyed):
        config = stored(CONFIG, tmp_path) if keyed else CONFIG
        with pytest.raises(ClusteringError, match="needs an in-memory upstream"):
            QSCPipeline(2, config).run(graph, resume_from="readout")
        assert not (tmp_path / "cas").exists() or not any(
            (tmp_path / "cas").rglob("*.cas")
        )

    def test_unknown_stage_errors(self, graph, tmp_path):
        with pytest.raises(ClusteringError, match="unknown stage"):
            QSCPipeline(2, stored(CONFIG, tmp_path)).run(
                graph, resume_from="tomography", upstream={}
            )

    def test_resume_from_an_empty_store_recomputes_everything(
        self, graph, tmp_path
    ):
        resumed = QSCPipeline(2, stored(CONFIG, tmp_path)).run(graph)
        assert sources(resumed) == ["computed"] * len(STAGE_NAMES)
        assert results_equal(QSCPipeline(2, CONFIG).run(graph), resumed)

    def test_sparse_linalg_checkpoint_roundtrip(self, tmp_path):
        graph, _ = mixed_sbm(40, 2, p_intra=0.5, p_inter=0.05, seed=1)
        ensure_connected(graph, seed=1)
        config = stored(CONFIG.with_updates(linalg_backend="sparse"), tmp_path)
        pytest.importorskip("scipy")
        full = QSCPipeline(2, config).run(graph)
        drop_stage_entries(graph, config, 2, "threshold")
        resumed = QSCPipeline(2, config).run(graph)
        assert sources(resumed)[0] == "store"
        assert results_equal(full, resumed)

    def test_circuit_backend_resume(self, tmp_path):
        graph, _ = mixed_sbm(10, 2, p_intra=0.8, p_inter=0.05, seed=4)
        ensure_connected(graph, seed=4)
        config = stored(
            QSCConfig(backend="circuit", precision_bits=4, shots=128, seed=9),
            tmp_path,
        )
        full = QSCPipeline(2, config).run(graph)
        drop_stage_entries(graph, config, 2, "readout")
        resumed = QSCPipeline(2, config).run(graph)
        assert sources(resumed) == ["store"] * 2 + ["computed"] * 3
        assert results_equal(full, resumed)

    def test_resume_with_different_cluster_count_recomputes(self, graph, tmp_path):
        """k is outside the laplacian's context only: its entry serves,
        the threshold entry of k=2 is a miss for k=3."""
        config = stored(CONFIG, tmp_path)
        QSCPipeline(2, config).run(graph)
        resumed = QSCPipeline(3, config).run(graph)
        assert sources(resumed) == ["store"] + ["computed"] * 4
        assert results_equal(QSCPipeline(3, CONFIG).run(graph), resumed)

    def test_resume_with_different_graph_recomputes(self, graph, tmp_path):
        config = stored(CONFIG, tmp_path)
        QSCPipeline(2, config).run(graph)
        other, _ = mixed_sbm(30, 2, p_intra=0.5, p_inter=0.05, seed=99)
        ensure_connected(other, seed=99)
        resumed = QSCPipeline(2, config).run(other)
        assert sources(resumed) == ["computed"] * len(STAGE_NAMES)
        assert results_equal(QSCPipeline(2, CONFIG).run(other), resumed)

    @pytest.mark.parametrize(
        "drift, laplacian_source",
        [
            ({"seed": 123}, "store"),
            ({"precision_bits": 4}, "store"),
            ({"theta": 0.5}, "computed"),
        ],
    )
    def test_resume_with_upstream_config_drift_recomputes(
        self, graph, tmp_path, drift, laplacian_source
    ):
        """A drifted field changes the key of every stage that depends on
        it, so those stages miss and recompute; the others still serve."""
        QSCPipeline(2, stored(CONFIG, tmp_path)).run(graph)
        changed = CONFIG.with_updates(**drift)
        resumed = QSCPipeline(2, stored(changed, tmp_path)).run(graph)
        assert sources(resumed) == [laplacian_source] + ["computed"] * 4
        assert results_equal(QSCPipeline(2, changed).run(graph), resumed)

    def test_resume_with_downstream_only_drift_allowed(self, graph, tmp_path):
        """Fields the served stages provably ignore may differ: rerunning
        the readout stage at a new shot budget serves the two before it."""
        QSCPipeline(2, stored(CONFIG, tmp_path)).run(graph)
        changed = CONFIG.with_updates(shots=64, readout_chunk_size=5)
        resumed = QSCPipeline(2, stored(changed, tmp_path)).run(graph)
        assert sources(resumed) == ["store"] * 2 + ["computed"] * 3
        full = QSCPipeline(2, changed).run(graph)
        assert results_equal(full, resumed)

    def test_cluster_count_change_reuses_laplacian_checkpoint(
        self, graph, tmp_path
    ):
        """k first matters at the threshold stage, so a rerun with a
        different k reads the laplacian entry the threshold stage needs."""
        QSCPipeline(2, stored(CONFIG, tmp_path)).run(graph)
        pipeline = QSCPipeline(3, stored(CONFIG, tmp_path))
        resumed = pipeline.run(graph)
        assert sources(resumed)[0] == "store"
        full = QSCPipeline(3, CONFIG).run(graph)
        assert results_equal(full, resumed)
        assert len(np.unique(resumed.labels)) == 3
        assert pipeline.state["backend"].dim == 32

    def test_auto_k_flows_through_staged_resume(self, tmp_path):
        """k='auto' resolves in the threshold stage and survives a rerun
        via the stage's store entry."""
        graph, _ = mixed_sbm(36, 3, p_intra=0.7, p_inter=0.02, seed=3)
        ensure_connected(graph, seed=3)
        config = stored(
            QSCConfig(precision_bits=7, shots=256, histogram_shots=16384, seed=3),
            tmp_path,
        )
        full = QSCPipeline("auto", config).run(graph)
        assert len(np.unique(full.labels)) == 3
        drop_stage_entries(graph, config, "auto", "readout")
        resumed_pipeline = QSCPipeline("auto", config)
        resumed = resumed_pipeline.run(graph)
        assert sources(resumed) == ["store"] * 2 + ["computed"] * 3
        assert results_equal(full, resumed)
        assert resumed_pipeline.state["num_clusters"] == 3


class TestTelemetry:
    def test_result_profile_shape(self, graph):
        result = QSCPipeline(2, CONFIG).run(graph)
        assert [row["stage"] for row in result.profile] == list(STAGE_NAMES)
        for row in result.profile:
            assert row["seconds"] >= 0.0
            assert row["source"] == "computed"
            for key in ("memory_hits", "disk_hits", "misses"):
                assert isinstance(row[key], int)

    def test_laplacian_stage_owns_the_spectral_work(self, graph):
        from repro.core.qpe_engine import clear_spectral_cache

        clear_spectral_cache()
        result = QSCPipeline(2, CONFIG).run(graph)
        by_stage = {row["stage"]: row for row in result.profile}
        assert by_stage["laplacian"]["misses"] == 2
        assert sum(
            row["misses"]
            for name, row in by_stage.items()
            if name != "laplacian"
        ) == 0

    def test_backend_annotations_on_linalg_stages(self, graph):
        """Only the laplacian stage solves, and its row names the
        eigensolve the QPE engine actually ran: the n × n graph block by
        MRRR under v3, the D × D padded register under v1."""
        for engine, solve in (
            ("v3", "eigh-mrrr(n=30)"),
            ("v1", "eigh(D=32)"),
        ):
            config = CONFIG.with_updates(spectral_engine=engine)
            result = QSCPipeline(2, config).run(graph)
            by_stage = {row["stage"]: row for row in result.profile}
            assert by_stage["laplacian"]["linalg_backend"] == "dense"
            assert by_stage["laplacian"]["eigensolver"] == solve
            for stage in ("threshold", "readout", "embedding", "qmeans"):
                assert "linalg_backend" not in by_stage[stage]
                assert "eigensolver" not in by_stage[stage]

    def test_eigensolver_annotation_reads_the_backend(self):
        """The laplacian row reports the QPE engine's eigensolve even where
        the linalg backend alone would predict another route (a
        300-node graph resolves to sparse LOBPCG under ``auto``)."""
        graph, _ = mixed_sbm(300, 2, p_intra=0.1, p_inter=0.01, seed=2)
        ensure_connected(graph, seed=2)
        result = QSCPipeline(2, CONFIG.with_updates(shots=0)).run(graph)
        row = result.profile[0]
        assert row["linalg_backend"] == "sparse"
        assert row["eigensolver"] == "eigh-mrrr(n=300)"

    def test_trotter_circuit_reports_no_eigensolve(self):
        graph, _ = mixed_sbm(6, 2, p_intra=0.9, p_inter=0.1, seed=1)
        ensure_connected(graph, seed=1)
        config = QSCConfig(
            backend="circuit", evolution="trotter", precision_bits=3, shots=16
        )
        row = QSCPipeline(2, config).run(graph).profile[0]
        assert row["linalg_backend"] == "dense"
        assert "eigensolver" not in row

    def test_backend_annotations_follow_the_configured_backend(self, graph):
        config = CONFIG.with_updates(linalg_backend="sparse")
        result = QSCPipeline(2, config).run(graph)
        by_stage = {row["stage"]: row for row in result.profile}
        assert by_stage["laplacian"]["linalg_backend"] == "sparse"

    @pytest.mark.parametrize("linalg_backend", ["auto", "dense"])
    def test_small_graph_laplacian_is_annotated_dense(self, graph, linalg_backend):
        """The annotation names the matrix the stage built: a 30-node graph
        stays dense under ``auto``."""
        config = CONFIG.with_updates(linalg_backend=linalg_backend)
        row = QSCPipeline(2, config).run(graph).profile[0]
        assert row["stage"] == "laplacian"
        assert row["linalg_backend"] == "dense"

    def test_totals_delta_copies_annotations(self, graph):
        from repro.pipeline.telemetry import (
            merge_totals,
            profile_stage_rows,
            totals_delta,
        )

        reset_stage_totals()
        before = stage_totals()
        QSCPipeline(2, CONFIG).run(graph)
        delta = totals_delta(before, stage_totals())
        assert delta["laplacian"]["linalg_backend"] == "dense"
        assert delta["laplacian"]["eigensolver"] == "eigh-mrrr(n=30)"
        assert "linalg_backend" not in delta["qmeans"]
        merged = merge_totals({}, delta)
        assert merged["laplacian"]["linalg_backend"] == "dense"
        rows = profile_stage_rows(merged, order=STAGE_NAMES)
        lap_row = next(row for row in rows if row["stage"] == "laplacian")
        assert lap_row["linalg_backend"] == "dense"
        assert lap_row["eigensolver"] == "eigh-mrrr(n=30)"

    def test_profile_excluded_from_result_equality(self):
        import dataclasses

        from repro.core.result import QSCResult

        profile_field = next(
            f for f in dataclasses.fields(QSCResult) if f.name == "profile"
        )
        # wall times differ between otherwise identical runs, so the
        # profile must never participate in dataclass equality
        assert profile_field.compare is False


class TestValidation:
    def test_invalid_cluster_count(self):
        with pytest.raises(ClusteringError):
            QSCPipeline(0)

    def test_too_many_clusters(self, graph):
        with pytest.raises(ClusteringError):
            QSCPipeline(31, CONFIG).run(graph)
