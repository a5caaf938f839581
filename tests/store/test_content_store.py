"""Property and contract tests of :mod:`repro.store.content_store`.

The round-trip law under test: for any payload of numpy arrays,
``decode_payload(encode_payload(ns, key, payload))`` hands back
bit-identical arrays, and a :class:`ContentStore` serves the same bits
from either tier, hit or miss.
"""

import numpy as np
import pytest

from repro.exceptions import ClusteringError, StoreError
from repro.store import (
    COUNTER_KEYS,
    ContentStore,
    content_key,
    decode_payload,
    encode_payload,
)
from repro.store.content_store import MAGIC, _HEADER_BYTES

PAYLOADS = {
    "float64": {"a": np.linspace(0.0, 1.0, 64).reshape(8, 8)},
    "complex128": {"z": np.exp(1j * np.linspace(0.0, 6.0, 33))},
    "int64": {"n": np.arange(-5, 100, dtype=np.int64)},
    "bool": {"mask": np.array([True, False, True])},
    "scalar": {"x": np.float64(2.5), "k": np.int64(7)},
    "empty": {"none": np.zeros((0, 4))},
    "mixed": {
        "rows": np.full((3, 3), 1 / 3, dtype=np.complex128),
        "norms": np.array([1.0, 0.5, 0.25]),
        "labels": np.array([0, 1, 0], dtype=np.int64),
    },
}


def assert_payloads_identical(actual, expected):
    assert sorted(actual) == sorted(expected)
    for name in expected:
        left = np.asarray(actual[name])
        right = np.asarray(expected[name])
        assert left.dtype == right.dtype, name
        assert left.shape == right.shape, name
        assert left.tobytes() == right.tobytes(), name


class TestContentKey:
    def test_stable_hex_and_path_safe(self):
        key = content_key("spectral", "decomposition@abc123")
        assert key == content_key("spectral", "decomposition@abc123")
        assert len(key) == 32
        assert set(key) <= set("0123456789abcdef")

    def test_arbitrary_key_strings_are_admissible(self):
        # Keys may embed separators, newlines, unicode — the address is a
        # fixed-width digest, so none of it reaches the filesystem.
        weird = ["a/b/../c", "nul\x00byte", "unié", " " * 40, ""]
        addresses = {content_key("ns", key) for key in weird}
        assert len(addresses) == len(weird)

    def test_namespace_and_key_do_not_collide(self):
        assert content_key("ab", "c") != content_key("a", "bc")
        assert content_key("spectral", "x") != content_key("stage", "x")


class TestCodecRoundTrip:
    @pytest.mark.parametrize("case", sorted(PAYLOADS))
    def test_bit_identical_round_trip(self, case):
        payload = PAYLOADS[case]
        blob = encode_payload("ns", f"key-{case}", payload)
        assert blob.startswith(MAGIC)
        assert_payloads_identical(
            decode_payload(blob, "ns", f"key-{case}"), payload
        )

    def test_encoding_is_deterministic(self):
        payload = PAYLOADS["mixed"]
        assert encode_payload("ns", "k", payload) == encode_payload(
            "ns", "k", payload
        )

    def test_rejects_bad_magic(self):
        blob = encode_payload("ns", "k", PAYLOADS["float64"])
        with pytest.raises(StoreError, match="header"):
            decode_payload(b"XXXX" + blob[4:])

    def test_rejects_truncation(self):
        blob = encode_payload("ns", "k", PAYLOADS["float64"])
        for cut in (0, len(MAGIC), _HEADER_BYTES, len(blob) - 1):
            with pytest.raises(StoreError):
                decode_payload(blob[:cut])

    @pytest.mark.parametrize("offset", [0, 10, _HEADER_BYTES + 5, -1])
    def test_rejects_any_flipped_byte(self, offset):
        blob = bytearray(encode_payload("ns", "k", PAYLOADS["mixed"]))
        blob[offset] ^= 0xFF
        with pytest.raises(StoreError):
            decode_payload(bytes(blob))

    def test_rejects_entry_served_at_the_wrong_address(self):
        # A renamed/cross-linked entry file passes its checksum but not
        # its identity check.
        blob = encode_payload("ns", "original", PAYLOADS["float64"])
        with pytest.raises(StoreError, match="different namespace/key"):
            decode_payload(blob, "ns", "other")
        with pytest.raises(StoreError, match="different namespace/key"):
            decode_payload(blob, "other-ns", "original")


class TestStoreTiers:
    def test_get_or_create_serves_identical_bits_hit_or_miss(self, tmp_path):
        store = ContentStore(root=tmp_path)
        built = []

        def build():
            built.append(True)
            return {name: np.copy(v) for name, v in PAYLOADS["mixed"].items()}

        first = store.get_or_create("spectral", "k", build)
        second = store.get_or_create("spectral", "k", build)  # memory hit
        store.clear_memory()  # a fresh process: only the disk tier left
        third = store.get_or_create("spectral", "k", build)  # disk hit
        assert built == [True]
        for payload in (first, second, third):
            assert_payloads_identical(payload, PAYLOADS["mixed"])
            assert all(not arr.flags.writeable for arr in payload.values())

    def test_counters_track_each_tier(self, tmp_path):
        store = ContentStore(root=tmp_path)
        build = lambda: dict(PAYLOADS["float64"])  # noqa: E731
        store.get_or_create("spectral", "k", build)
        store.get_or_create("spectral", "k", build)
        store.clear_memory(reset_stats=False)
        store.get_or_create("spectral", "k", build)
        counters = store.counters()
        assert counters["misses"] == 1
        assert counters["memory_hits"] == 1
        assert counters["disk_hits"] == 1
        assert set(counters) == set(COUNTER_KEYS)

    def test_memory_only_store_misses_after_clear(self):
        store = ContentStore()
        calls = []

        def build():
            calls.append(True)
            return dict(PAYLOADS["float64"])

        store.get_or_create("spectral", "k", build)
        store.get_or_create("spectral", "k", build)
        assert len(calls) == 1
        store.clear_memory()
        store.get_or_create("spectral", "k", build)
        assert len(calls) == 2

    def test_get_reads_only_the_disk_tier(self):
        store = ContentStore()
        store.get_or_create("spectral", "k", lambda: dict(PAYLOADS["float64"]))
        assert store.stats()["memory"]["entries"] == 1
        assert store.get("spectral", "k") is None  # no disk root
        assert store.counters()["misses"] == 2

    def test_disk_only_namespaces_skip_the_memory_tier(self, tmp_path):
        store = ContentStore(root=tmp_path)
        store.put("stage", "k", PAYLOADS["float64"])
        assert store.stats()["memory"]["entries"] == 0
        assert_payloads_identical(
            store.get("stage", "k"), PAYLOADS["float64"]
        )
        assert store.counters()["disk_hits"] == 1

    def test_memory_lru_evicts_oldest_first(self):
        one_kib = {"a": np.zeros(128)}  # 1024 bytes
        store = ContentStore(max_memory_bytes=3 * 1024)
        for name in ("k1", "k2", "k3", "k1", "k4"):  # k1 bumped: k2 oldest
            store.get_or_create("spectral", name, lambda: dict(one_kib))
        stats = store.counters("spectral")
        assert stats["memory_evictions"] == 1
        assert stats["memory_hits"] == 1
        resident = {key for _, key in store._entries}
        assert resident == {"k1", "k3", "k4"}  # k2 evicted

    def test_oversize_payload_is_not_kept_resident(self):
        store = ContentStore(max_memory_bytes=64)
        store.get_or_create("spectral", "big", lambda: {"a": np.zeros(1024)})
        assert store.stats()["memory"]["entries"] == 0

    def test_disk_budget_evicts_oldest_mtime(self, tmp_path):
        import os

        store = ContentStore(root=tmp_path)
        payload = {"a": np.zeros(128)}
        for index, name in enumerate(("old", "mid", "new")):
            store.put("stage", name, payload)
            path = store._entry_path("stage", name)
            os.utime(path, (1000.0 + index, 1000.0 + index))
        entry_bytes = store._entry_path("stage", "old").stat().st_size
        store.configure(max_disk_bytes=2 * entry_bytes)
        assert store._enforce_disk_budget() == 1
        assert store.get("stage", "old") is None  # the oldest went first
        assert store.get("stage", "new") is not None
        assert store.counters()["disk_evictions"] == 1

    def test_blob_larger_than_disk_budget_is_skipped(self, tmp_path):
        store = ContentStore(root=tmp_path, max_disk_bytes=64)
        store.put("stage", "big", {"a": np.zeros(1024)})
        assert store.disk_report()["entries"] == 0

    def test_a_built_entry_is_published_and_served_from_disk(self, tmp_path):
        store = ContentStore(root=tmp_path)
        built = store.get_or_create("spectral", "k", lambda: dict(PAYLOADS["float64"]))
        assert store.disk_report()["entries"] == 1
        fresh = ContentStore(root=tmp_path)  # another worker's store
        served = fresh.get_or_create("spectral", "k", pytest.fail)
        assert_payloads_identical(served, built)
        assert not served["a"].flags.writeable
        assert fresh.counters()["disk_hits"] == 1

    @pytest.mark.parametrize("budget", ["max_memory_bytes", "max_disk_bytes"])
    @pytest.mark.parametrize("value", [-1, 1.5, True, float("nan"), float("inf"), "10"])
    def test_a_budget_that_is_not_a_byte_count_is_a_store_error(self, budget, value):
        with pytest.raises(StoreError, match=budget):
            ContentStore(**{budget: value})
        store = ContentStore()
        with pytest.raises(StoreError, match=budget):
            store.configure(**{budget: value})
        assert (store.max_memory_bytes, store.max_disk_bytes) == (
            ContentStore().max_memory_bytes,
            ContentStore().max_disk_bytes,
        )

    @pytest.mark.parametrize("budget", ["max_memory_bytes", "max_disk_bytes"])
    def test_a_none_budget_is_refused_at_construction(self, budget):
        """``configure`` reads ``None`` as "leave it"; a new store has no
        budget to leave, and used to run with 0 (keeping nothing)."""
        with pytest.raises(StoreError, match=budget):
            ContentStore(**{budget: None})

    def test_a_numpy_integer_budget_is_a_byte_count(self):
        store = ContentStore(max_memory_bytes=np.int64(4096))
        assert store.max_memory_bytes == 4096
        assert type(store.max_memory_bytes) is int

    def test_negative_budget_raises_the_clustering_domain_error(self):
        store = ContentStore()
        with pytest.raises(ClusteringError, match="max_bytes must be >= 0"):
            store.configure(max_memory_bytes=-1)
        with pytest.raises(StoreError):
            store.configure(max_disk_bytes=-1)

    def test_invalid_namespace_is_rejected(self, tmp_path):
        store = ContentStore(root=tmp_path)
        for namespace in ("", "UPPER", "dots.bad", "sep/bad"):
            with pytest.raises(StoreError, match="namespace"):
                store.put(namespace, "k", PAYLOADS["float64"])

    def test_detach_keeps_files_for_later_reattach(self, tmp_path):
        store = ContentStore(root=tmp_path)
        store.put("stage", "k", PAYLOADS["float64"])
        store.detach()
        assert store.get("stage", "k") is None  # memory-only now
        store.attach(tmp_path)
        assert_payloads_identical(
            store.get("stage", "k"), PAYLOADS["float64"]
        )

    def test_two_stores_share_one_root(self, tmp_path):
        writer = ContentStore(root=tmp_path)
        reader = ContentStore(root=tmp_path)
        writer.put("stage", "k", PAYLOADS["mixed"])
        assert_payloads_identical(
            reader.get("stage", "k"), PAYLOADS["mixed"]
        )
        assert reader.counters()["disk_hits"] == 1


class TestOperations:
    def test_verify_and_gc_on_a_clean_store(self, tmp_path):
        store = ContentStore(root=tmp_path)
        for name in ("a", "b"):
            store.put("stage", name, PAYLOADS["float64"])
        report = store.verify()
        assert report == {"checked": 2, "ok": 2, "corrupt": []}
        gc = store.gc()
        assert gc["corrupt_removed"] == 0
        assert gc["temp_removed"] == 0
        assert gc["entries"] == 2

    def test_gc_respects_max_bytes_override(self, tmp_path):
        import os

        store = ContentStore(root=tmp_path)
        for index, name in enumerate(("a", "b", "c")):
            store.put("stage", name, {"a": np.zeros(64)})
            os.utime(
                store._entry_path("stage", name),
                (2000.0 + index, 2000.0 + index),
            )
        report = store.gc(max_bytes=0)
        assert report["evicted"] == 3
        assert store.disk_report()["entries"] == 0

    @pytest.mark.parametrize(
        "bounds",
        [
            {"max_bytes": -5},
            {"max_bytes": 1.5},
            {"max_bytes": True},
            {"max_bytes": float("nan")},
            {"tmp_grace_seconds": -1.0},
            {"tmp_grace_seconds": float("nan")},
            {"tmp_grace_seconds": float("inf")},
            {"tmp_grace_seconds": True},
            {"tmp_grace_seconds": "60"},
        ],
        ids=lambda bounds: "-".join(f"{k}={v}" for k, v in bounds.items()),
    )
    def test_gc_rejects_a_bad_bound_and_removes_nothing(self, tmp_path, bounds):
        store = ContentStore(root=tmp_path)
        for name in ("a", "b", "c"):
            store.put("stage", name, {"a": np.zeros(64)})
        tmp = store._entry_path("stage", "a").parent / ".tmp-live"
        tmp.write_bytes(b"in flight")
        with pytest.raises(StoreError):
            store.gc(**bounds)
        assert store.disk_report()["entries"] == 3
        assert tmp.exists()

    def test_gc_accepts_a_zero_grace_and_a_zero_budget(self, tmp_path):
        store = ContentStore(root=tmp_path)
        store.put("stage", "a", {"a": np.zeros(64)})
        report = store.gc(max_bytes=np.int64(0), tmp_grace_seconds=0)
        assert report["evicted"] == 1
