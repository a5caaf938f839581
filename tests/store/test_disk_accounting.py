"""Byte accounting of the disk tier.

A store keeps a running byte total of its disk tier: one scan seeds it at
the first fresh put after each attach, each fresh write adds its size (a
job-table overwrite adds only the size delta), and only a total over
``max_disk_bytes`` pays for the evicting scan.  Another process's writes
are counted from the next attach on.
"""

import os

import numpy as np

from repro.store import ContentStore


def payload(size=128, fill=0.0):
    return {"a": np.full(size, fill)}


def disk_total(store):
    return sum(size for _, size, _ in store._scan_disk())


def count_scans(store, monkeypatch):
    calls = []
    original = store._scan_disk

    def counted():
        calls.append(True)
        return original()

    monkeypatch.setattr(store, "_scan_disk", counted)
    return calls


def test_fresh_puts_after_one_attach_scan_once(tmp_path, monkeypatch):
    store = ContentStore()
    scans = count_scans(store, monkeypatch)
    store.attach(tmp_path)
    for index in range(20):
        store.put("stage", f"k{index}", payload(fill=index))
    assert len(scans) == 1
    store.attach(tmp_path)  # every attach seeds the total once more
    store.put("stage", "k20", payload())
    assert len(scans) == 2
    assert store._disk_bytes == disk_total(store)


def test_a_put_over_budget_evicts_the_oldest_mtime(tmp_path):
    store = ContentStore(root=tmp_path)
    for index, name in enumerate(("old", "mid")):
        store.put("stage", name, payload())
        os.utime(store._entry_path("stage", name), (1000.0 + index,) * 2)
    entry_bytes = store._entry_path("stage", "old").stat().st_size
    store.configure(max_disk_bytes=2 * entry_bytes)

    store.put("stage", "new", payload())
    assert store.get("stage", "old") is None  # the oldest went first
    assert store.get("stage", "mid") is not None
    assert store.get("stage", "new") is not None
    assert store.counters()["disk_evictions"] == 1
    assert store._disk_bytes == 2 * entry_bytes


def test_a_reattach_counts_another_stores_writes(tmp_path):
    # equal-length keys make every entry the same size
    first = ContentStore(root=tmp_path)
    first.put("stage", "k0", payload())
    entry_bytes = first._entry_path("stage", "k0").stat().st_size
    second = ContentStore(root=tmp_path)
    for index in (1, 2, 3):
        second.put("stage", f"k{index}", payload(fill=index))
    first.configure(max_disk_bytes=4 * entry_bytes)

    first.put("stage", "k4", payload(fill=4))
    assert first.counters()["disk_evictions"] == 0  # not counted yet

    first.attach(tmp_path)
    first.put("stage", "k5", payload(fill=5))
    assert first.counters()["disk_evictions"] == 2
    assert disk_total(first) == 4 * entry_bytes == first._disk_bytes


def test_a_job_table_overwrite_counts_the_size_delta(tmp_path, monkeypatch):
    store = ContentStore(root=tmp_path)
    scans = count_scans(store, monkeypatch)
    store.put("jobtable", "row:1", payload(size=16))
    store.put("jobtable", "row:1", payload(size=512))
    store.put("jobtable", "row:2", payload(size=64))
    store.put("jobtable", "row:1", payload(size=4))
    assert len(scans) == 1  # the seed
    assert store._disk_bytes == disk_total(store)
