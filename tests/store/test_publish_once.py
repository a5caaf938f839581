"""Publish-once semantics of the disk tier.

A key in a content-addressed namespace names everything its payload
depends on, so a put of an entry that is already on disk only refreshes
its recency: no re-encode, no temp file, no rewrite, no budget scan.
The job table is the one namespace whose keys name mutable slots, and it
keeps overwrite semantics.  Corruption is still never served: the next
read detects and evicts a damaged entry, and the recompute republishes it.
"""

import os
import pathlib

import numpy as np

from repro import QSCConfig, QSCPipeline
from repro.core.qpe_engine import clear_spectral_cache
from repro.graphs import ensure_connected, mixed_sbm
from repro.pipeline import checkpoint
from repro.service.jobtable import ROW_FIELDS, JobTable
from repro.store import ContentStore


def payload():
    rng = np.random.default_rng(7)
    return {"rows": rng.standard_normal((6, 6)), "norms": rng.random(6)}


def age(path, seconds=3600.0):
    """Push an entry's mtime into the past; returns the new mtime."""
    status = path.stat()
    os.utime(path, (status.st_atime - seconds, status.st_mtime - seconds))
    return path.stat().st_mtime


def flip_byte(path, offset):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestRepeatPut:
    def test_existing_entry_is_touched_not_rewritten(self, tmp_path, monkeypatch):
        store = ContentStore(root=tmp_path)
        store.put("stage", "v1:demo@abc", payload())
        path = store._entry_path("stage", "v1:demo@abc")
        inode = path.stat().st_ino
        blob = path.read_bytes()
        old_mtime = age(path)

        def no_scan(*args, **kwargs):
            raise AssertionError("a repeat put must not run the budget scan")

        monkeypatch.setattr(store, "_enforce_disk_budget", no_scan)
        store.put("stage", "v1:demo@abc", payload())

        assert path.stat().st_ino == inode
        assert path.read_bytes() == blob
        assert path.stat().st_mtime > old_mtime  # recency refreshed
        assert not list(path.parent.glob(".tmp-*"))

    def test_job_table_row_overwrites(self, tmp_path):
        table = JobTable(ContentStore(root=tmp_path))
        row = {field: None for field in ROW_FIELDS}
        row.update(id="job-1", state="queued", attempts=0, events=[])
        table.save_row(row)
        table.save_row({**row, "state": "done", "attempts": 1})

        loaded = table.load_row("job-1")
        assert loaded["state"] == "done"
        assert loaded["attempts"] == 1

    def test_corrupt_entry_is_healed_on_read_not_on_put(self, tmp_path):
        store = ContentStore(root=tmp_path)
        store.put("stage", "k", payload())
        path = store._entry_path("stage", "k")
        flip_byte(path, path.stat().st_size // 2)
        damaged = path.read_bytes()

        store.put("stage", "k", payload())
        assert path.read_bytes() == damaged  # the put does not rewrite it
        assert store.verify()["corrupt"] == [str(path)]

        assert store.get("stage", "k") is None  # never served
        assert not path.exists()  # evicted by the read
        store.put("stage", "k", payload())  # the recompute republishes
        assert store.verify() == {"checked": 1, "ok": 1, "corrupt": []}


def test_scan_matches_a_path_walk(tmp_path):
    """``_scan_disk`` lists ``.cas`` entries only, in path order."""
    store = ContentStore(root=tmp_path)
    for namespace in ("stage", "spectral", "jobtable"):
        for key in range(6):
            store.put(namespace, f"k{key}", payload())
    bucket = store._entry_path("stage", "k0").parent
    (bucket / ".tmp-inflight").write_bytes(b"partial")
    (bucket / "notes.txt").write_text("foreign")
    (tmp_path / "stage" / "README").write_text("foreign")
    (tmp_path / "README").write_text("foreign")

    expected = [
        (path, path.stat().st_size, path.stat().st_mtime)
        for path in sorted(pathlib.Path(tmp_path).glob("*/*/*"))
        if path.suffix == ".cas"
    ]
    assert len(expected) == 18
    assert store._scan_disk() == expected


def test_warm_pipeline_run_rewrites_no_stage_entry(tmp_path):
    graph, _ = mixed_sbm(24, 2, p_intra=0.6, p_inter=0.05, seed=11)
    ensure_connected(graph, seed=11)
    config = QSCConfig(precision_bits=5, shots=128, seed=5, store_dir=str(tmp_path))

    clear_spectral_cache()
    cold = QSCPipeline(2, config).run(graph)
    stage_dir = tmp_path / checkpoint.STAGE_NAMESPACE
    inodes = {path: path.stat().st_ino for path in stage_dir.rglob("*.cas")}
    assert len(inodes) == 5  # one entry per stage

    clear_spectral_cache()  # a fresh worker: only the disk tier is warm
    warm = QSCPipeline(2, config).run(graph)
    assert np.array_equal(warm.labels, cold.labels)
    assert {path: path.stat().st_ino for path in stage_dir.rglob("*.cas")} == inodes
