"""A pipeline run hashes its graph only when something keys on the digest.

The graph digest and the per-stage context fingerprints name content-store
entries.  A run with no store attached reads none, so it computes neither;
a run with a store computes exactly the keys it always did.
"""

import hashlib

import numpy as np
import pytest
from test_pipeline import CONFIG, drop_stage_entries, keyed, results_equal

from repro import QSCPipeline
from repro.graphs import ensure_connected, mixed_sbm
from repro.pipeline import STAGE_NAMES, build_stages, checkpoint


@pytest.fixture
def graph():
    graph, _ = mixed_sbm(30, 2, p_intra=0.5, p_inter=0.05, seed=11)
    ensure_connected(graph, seed=11)
    return graph


def reference_fingerprints(graph, config, k) -> dict:
    """Each stage's context fingerprint, hashed record by record and part
    by part as the store keys define it."""
    graph_digest = hashlib.blake2b(digest_size=16)
    graph_digest.update(str(graph.num_nodes).encode())
    for edge in graph.edges():
        record = f"{edge.u},{edge.v},{edge.weight},{edge.directed};"
        graph_digest.update(record.encode())
    fingerprints = {}
    for stage in build_stages():
        digest = hashlib.blake2b(digest_size=16)
        digest.update(graph_digest.hexdigest().encode())
        if stage.fingerprint_clusters:
            digest.update(repr(k).encode())
        for name in stage.fingerprint_fields:
            digest.update(f"{name}={getattr(config, name)!r};".encode())
        fingerprints[stage.name] = digest.hexdigest()
    return fingerprints


def count_hashing(monkeypatch, refuse=False) -> dict:
    """Count (or refuse) the graph and context fingerprint calls."""
    calls = {"graph_fingerprint": 0, "context_fingerprint": 0}
    for name in calls:
        original = getattr(checkpoint, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            if refuse:
                raise AssertionError(f"{_name} ran with nothing keyed on it")
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(checkpoint, name, counted)
    return calls


class TestNothingKeyed:
    def test_a_plain_run_hashes_nothing(self, graph, tmp_store, monkeypatch):
        stored_run = QSCPipeline(2, keyed(tmp_store)).run(graph)
        count_hashing(monkeypatch, refuse=True)
        # a config without store_dir names no store, so nothing is keyed
        plain = QSCPipeline(2, CONFIG).run(graph)
        assert results_equal(plain, stored_run)
        assert [row["source"] for row in plain.profile] == ["computed"] * 5

    def test_an_in_memory_resume_hashes_nothing(
        self, graph, pristine_store, monkeypatch
    ):
        first = QSCPipeline(2, CONFIG)
        first.run(graph)
        count_hashing(monkeypatch, refuse=True)
        resumed = QSCPipeline(2, CONFIG).run(
            graph, resume_from="readout", upstream=first.state
        )
        assert np.array_equal(resumed.labels, first.state["qmeans"].labels)


class TestKeyed:
    def test_store_keys_are_unchanged(self, graph, tmp_store, monkeypatch):
        calls = count_hashing(monkeypatch)
        QSCPipeline(2, keyed(tmp_store)).run(graph)
        assert calls == {"graph_fingerprint": 1, "context_fingerprint": 5}
        for name, fingerprint in reference_fingerprints(graph, CONFIG, 2).items():
            key = checkpoint.store_key(name, fingerprint)
            assert tmp_store.contains(checkpoint.STAGE_NAMESPACE, key), name

    def test_a_held_digest_is_not_recomputed(self, graph, tmp_store, monkeypatch):
        digest = checkpoint.graph_fingerprint(graph)
        calls = count_hashing(monkeypatch)
        QSCPipeline(2, keyed(tmp_store)).run(graph, graph_digest=digest)
        assert calls == {"graph_fingerprint": 0, "context_fingerprint": 5}

    def test_a_rerun_serves_the_keys_a_cold_run_published(
        self, graph, tmp_store, monkeypatch
    ):
        QSCPipeline(2, keyed(tmp_store)).run(graph)
        drop_stage_entries(graph, CONFIG, 2, "qmeans")
        calls = count_hashing(monkeypatch)
        rerun = QSCPipeline(2, keyed(tmp_store)).run(graph)
        assert calls == {"graph_fingerprint": 1, "context_fingerprint": 5}
        assert [row["source"] for row in rerun.profile] == (
            ["store"] * (len(STAGE_NAMES) - 1) + ["computed"]
        )
