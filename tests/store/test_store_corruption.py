"""Corruption injection: damaged entries are detected, evicted, recomputed.

Covers the store layer (bit flips, truncation, cross-linked files) and
the pipeline integration (a corrupt or missing stage entry in the store
is a miss: the stage recomputes instead of poisoning the run).  The invariant throughout:
**wrong bits are never served** — every read either returns the exact
original payload or recomputes it.
"""

import numpy as np
import pytest
from test_golden import GOLDEN, build_case, result_digest
from test_pipeline import drop_stage_entries, stage_entry_path

from repro import QSCPipeline
from repro.core.qpe_engine import clear_spectral_cache
from repro.store import ContentStore, configure_store, get_store


def payload():
    rng = np.random.default_rng(42)
    return {"rows": rng.standard_normal((8, 8)), "norms": rng.random(8)}


def flip_byte(path, offset):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestStoreCorruption:
    @pytest.mark.parametrize("offset", [0, 12, 60, -3])
    def test_flipped_byte_is_evicted_and_recomputed(self, tmp_path, offset):
        store = ContentStore(root=tmp_path)
        store.put("stress", "k", payload())
        path = store._entry_path("stress", "k")
        flip_byte(path, offset)

        assert store.get("stress", "k") is None  # detected, never served
        assert not path.exists()  # evicted on the spot
        assert store.counters()["corrupt_evictions"] == 1

        rebuilt = store.get_or_create("stress", "k", payload)
        assert np.array_equal(rebuilt["rows"], payload()["rows"])
        store.clear_memory(reset_stats=False)
        assert store.get("stress", "k") is not None  # re-published

    @pytest.mark.parametrize("keep", [0, 7, 41, 200])
    def test_truncated_entry_is_evicted(self, tmp_path, keep):
        store = ContentStore(root=tmp_path)
        store.put("stress", "k", payload())
        path = store._entry_path("stress", "k")
        path.write_bytes(path.read_bytes()[:keep])
        assert store.get("stress", "k") is None
        assert store.counters()["corrupt_evictions"] == 1
        assert not path.exists()

    def test_cross_linked_entry_is_rejected(self, tmp_path):
        # A checksum-valid file copied to another key's address must not
        # be served there: the embedded identity catches it.
        store = ContentStore(root=tmp_path)
        store.put("stress", "original", payload())
        source = store._entry_path("stress", "original")
        target = store._entry_path("stress", "impostor")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())

        assert store.get("stress", "impostor") is None
        assert store.counters()["corrupt_evictions"] == 1
        assert store.get("stress", "original") is not None  # untouched

    def test_verify_flags_and_gc_heals_without_serving(self, tmp_path):
        store = ContentStore(root=tmp_path)
        for name in ("good", "bad"):
            store.put("stress", name, payload())
        flip_byte(store._entry_path("stress", "bad"), 20)

        report = store.verify()
        assert report["checked"] == 2 and report["ok"] == 1
        assert report["corrupt"] == [str(store._entry_path("stress", "bad"))]
        assert store._entry_path("stress", "bad").exists()  # verify is read-only

        gc = store.gc()
        assert gc["corrupt_removed"] == 1
        assert store.verify() == {"checked": 1, "ok": 1, "corrupt": []}


class TestPipelineCheckpointCorruption:
    def test_corrupt_entry_read_through_recomputes_to_golden(
        self, tmp_path, pristine_store
    ):
        """A plain rerun that finds a served entry damaged when it reads
        it recomputes that stage and republishes a clean entry."""
        graph, k, config = build_case("analytic_shots")
        config = config.with_updates(store_dir=str(tmp_path / "store"))
        QSCPipeline(k, config).run(graph)
        path = stage_entry_path(graph, config, k, "threshold")
        flip_byte(path, path.stat().st_size // 2)

        rerun = QSCPipeline(k, config).run(graph)
        assert result_digest(rerun) == GOLDEN["analytic_shots"]
        profile = {row["stage"]: row["source"] for row in rerun.profile}
        assert profile["threshold"] == "computed"  # healed, not served
        assert profile["laplacian"] == "store"
        assert get_store().counters()["corrupt_evictions"] >= 1
        assert path.exists()  # the recompute republished the entry

    def test_corrupt_store_stage_entry_recomputes_to_golden(self, tmp_path):
        """Same healing when the damaged entry is read by a later stage:
        the readout onward recomputes and asks for the laplacian entry."""
        graph, k, config = build_case("analytic_shots")
        config = config.with_updates(store_dir=str(tmp_path / "store"))
        QSCPipeline(k, config).run(graph)

        store = get_store()
        path = stage_entry_path(graph, config, k, "laplacian")
        flip_byte(path, path.stat().st_size // 2)
        drop_stage_entries(graph, config, k, "readout")

        clear_spectral_cache()
        resumed = QSCPipeline(k, config).run(graph)
        assert result_digest(resumed) == GOLDEN["analytic_shots"]
        profile = {row["stage"]: row["source"] for row in resumed.profile}
        assert profile["laplacian"] == "computed"
        assert profile["threshold"] == "store"  # siblings still served
        assert store.counters()["corrupt_evictions"] >= 1
        configure_store(root=None)

    def test_missing_store_entry_recomputes_to_golden(
        self, tmp_path, pristine_store
    ):
        """Plain absence follows the same rule as corruption: a rerun
        whose upstream entry is gone recomputes that stage."""
        graph, k, config = build_case("analytic_shots")
        config = config.with_updates(store_dir=str(tmp_path / "store"))
        QSCPipeline(k, config).run(graph)
        stage_entry_path(graph, config, k, "laplacian").unlink()
        drop_stage_entries(graph, config, k, "readout")

        resumed = QSCPipeline(k, config).run(graph)
        assert result_digest(resumed) == GOLDEN["analytic_shots"]
        profile = {row["stage"]: row["source"] for row in resumed.profile}
        assert profile["laplacian"] == "computed"
        assert profile["threshold"] == "store"
        assert stage_entry_path(graph, config, k, "laplacian").exists()
