"""Tests for the content-keyed spectral cache in ``repro.core.qpe_engine``."""

import hashlib

import numpy as np
import pytest

from repro.core.qpe_engine import (
    AnalyticQPEBackend,
    CircuitQPEBackend,
    SPECTRAL_NAMESPACE,
    clear_spectral_cache,
    laplacian_fingerprint,
)
from repro.exceptions import ClusteringError
from repro.graphs import ensure_connected, hermitian_laplacian, mixed_sbm
from repro.store import DEFAULT_MEMORY_BYTES, configure_store, get_store


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test starts from an empty, default-configured cache."""
    clear_spectral_cache()
    configure_store(max_memory_bytes=DEFAULT_MEMORY_BYTES)
    yield
    clear_spectral_cache()
    configure_store(max_memory_bytes=DEFAULT_MEMORY_BYTES)


def cache_stats():
    """The store's spectral-namespace counters plus its memory-tier
    occupancy (these tests put nothing but spectral entries in the memory
    tier, and attach no disk tier, so every hit is a memory hit)."""
    store = get_store()
    return {**store.counters(SPECTRAL_NAMESPACE), **store.stats()["memory"]}


def make_laplacian(seed=3, num_nodes=20):
    graph, _ = mixed_sbm(num_nodes, 2, p_intra=0.5, p_inter=0.06, seed=seed)
    ensure_connected(graph, seed=seed)
    return hermitian_laplacian(graph)


class TestFingerprint:
    def test_identical_content_same_key(self):
        laplacian = make_laplacian()
        assert laplacian_fingerprint(laplacian) == laplacian_fingerprint(
            laplacian.copy()
        )

    def test_any_entry_change_changes_key(self):
        laplacian = make_laplacian()
        perturbed = laplacian.copy()
        perturbed[3, 5] += 1e-9
        assert laplacian_fingerprint(laplacian) != laplacian_fingerprint(perturbed)

    def test_shape_is_part_of_the_key(self):
        flat = np.zeros(16, dtype=complex)
        square = flat.reshape(4, 4)
        assert laplacian_fingerprint(flat) != laplacian_fingerprint(square)


def tobytes_fingerprint(laplacian):
    """The key as first defined: a digest of ``tobytes()`` of the
    C-contiguous copy.  Hashing the buffer in place must not change it."""
    laplacian = np.ascontiguousarray(laplacian)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(laplacian.shape).encode())
    digest.update(str(laplacian.dtype).encode())
    digest.update(laplacian.tobytes())
    return digest.hexdigest()


class TestFingerprintBuffer:
    @pytest.mark.parametrize(
        "layout",
        ["C", "F", "transposed", "column-slice", "empty", "empty-rows", "real"],
    )
    def test_equals_tobytes_digest(self, layout):
        laplacian = make_laplacian()
        matrix = {
            "C": laplacian,
            "F": np.asfortranarray(laplacian),
            "transposed": laplacian.T,
            "column-slice": laplacian[:, ::3],
            "empty": np.zeros((0, 0), dtype=complex),
            "empty-rows": laplacian[:0],
            "real": laplacian.real,
        }[layout]
        assert laplacian_fingerprint(matrix) == tobytes_fingerprint(matrix)

    def test_layout_never_changes_the_key(self):
        laplacian = make_laplacian()
        assert laplacian_fingerprint(np.asfortranarray(laplacian)) == (
            laplacian_fingerprint(laplacian)
        )


class TestHitMissKeying:
    def test_same_laplacian_same_precision_hits_both(self):
        laplacian = make_laplacian()
        first = AnalyticQPEBackend(laplacian, 4)
        stats = cache_stats()
        assert stats["memory_hits"] == 0 and stats["misses"] == 2
        second = AnalyticQPEBackend(laplacian, 4)
        stats = cache_stats()
        assert stats["memory_hits"] == 2 and stats["misses"] == 2
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first._kernel, second._kernel)

    def test_precision_change_rebuilds_only_the_kernel(self):
        laplacian = make_laplacian()
        AnalyticQPEBackend(laplacian, 4)
        AnalyticQPEBackend(laplacian, 5)
        stats = cache_stats()
        # decomposition hit, kernel miss for the second precision
        assert stats["memory_hits"] == 1 and stats["misses"] == 3

    def test_laplacian_change_invalidates(self):
        laplacian = make_laplacian(seed=3)
        AnalyticQPEBackend(laplacian, 4)
        changed = laplacian.copy()
        changed[0, 1] *= 1.0 + 1e-12
        changed[1, 0] = np.conj(changed[0, 1])
        AnalyticQPEBackend(changed, 4)
        stats = cache_stats()
        assert stats["memory_hits"] == 0 and stats["misses"] == 4

    def test_circuit_backend_shares_the_decomposition(self):
        laplacian = make_laplacian(num_nodes=10)
        AnalyticQPEBackend(laplacian, 3)
        CircuitQPEBackend(laplacian, 3)
        assert cache_stats()["memory_hits"] == 1

    def test_cached_arrays_are_read_only(self):
        backend = AnalyticQPEBackend(make_laplacian(), 4)
        with pytest.raises(ValueError):
            backend._kernel[0, 0] = 1.0
        # the public accessor hands out a mutable copy
        eigenvalues = backend.eigenvalues
        eigenvalues[0] = -1.0
        assert backend.eigenvalues[0] != -1.0


class TestTransparency:
    def test_zero_memory_budget_gives_identical_numbers(self):
        laplacian = make_laplacian()
        cached = AnalyticQPEBackend(laplacian, 5)
        cached_again = AnalyticQPEBackend(laplacian, 5)
        clear_spectral_cache()
        configure_store(max_memory_bytes=0)
        uncached = AnalyticQPEBackend(laplacian, 5)
        for other in (cached_again, uncached):
            assert np.array_equal(cached._kernel, other._kernel)
            assert np.array_equal(cached.eigenvalues, other.eigenvalues)
            assert np.array_equal(cached._eigenvectors, other._eigenvectors)

    def test_zero_memory_budget_recomputes_every_time(self):
        configure_store(max_memory_bytes=0)
        laplacian = make_laplacian()
        AnalyticQPEBackend(laplacian, 4)
        AnalyticQPEBackend(laplacian, 4)
        stats = cache_stats()
        assert stats["memory_hits"] == 0 and stats["misses"] == 4
        assert stats["entries"] == 0 and stats["bytes"] == 0


class TestMemoryBound:
    def test_lru_eviction_keeps_bytes_under_budget(self):
        configure_store(max_memory_bytes=40_000)
        for seed in range(6):
            AnalyticQPEBackend(make_laplacian(seed=seed, num_nodes=24), 6)
        stats = cache_stats()
        assert stats["bytes"] <= 40_000
        assert stats["memory_evictions"] > 0

    def test_least_recently_used_goes_first(self):
        configure_store(max_memory_bytes=40_000)
        hot = make_laplacian(seed=0, num_nodes=24)
        AnalyticQPEBackend(hot, 6)
        for seed in range(1, 5):
            AnalyticQPEBackend(make_laplacian(seed=seed, num_nodes=24), 6)
            # keep the hot Laplacian recent so eviction takes the others
            AnalyticQPEBackend(hot, 6)
        hits_before = cache_stats()["memory_hits"]
        AnalyticQPEBackend(hot, 6)
        assert cache_stats()["memory_hits"] == hits_before + 2

    def test_entry_larger_than_budget_is_not_stored(self):
        configure_store(max_memory_bytes=1)
        AnalyticQPEBackend(make_laplacian(), 4)
        stats = cache_stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0

    def test_zero_budget_is_allowed_negative_is_not(self):
        configure_store(max_memory_bytes=0)
        with pytest.raises(ClusteringError):
            configure_store(max_memory_bytes=-1)

    def test_clear_resets_entries_and_counters(self):
        laplacian = make_laplacian()
        AnalyticQPEBackend(laplacian, 4)
        AnalyticQPEBackend(laplacian, 4)
        clear_spectral_cache()
        stats = cache_stats()
        assert stats == {
            "memory_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "memory_evictions": 0,
            "disk_evictions": 0,
            "corrupt_evictions": 0,
            "entries": 0,
            "bytes": 0,
        }
