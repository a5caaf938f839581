"""Read-through of the comparison panel's classical baselines.

With a content store attached, :func:`evaluate_methods` serves each seeded
baseline's labels from the ``baseline`` namespace and fits (then
publishes) only on a miss.  The key names the estimator's class and every
attribute, the graph digest and :data:`BASELINE_KEY_VERSION`, so a warm
sweep's records equal a cold one's and any change to what the labels
depend on misses.
"""

import inspect

import numpy as np
import pytest

from repro.baselines import (
    AdjacencyKMeans,
    DiSimClustering,
    RandomWalkSpectralClustering,
    SymmetrizedSpectralClustering,
)
from repro.core.qpe_engine import clear_spectral_cache
from repro.experiments import fig1_direction_sweep
from repro.experiments.common import (
    BASELINE_NAMESPACE,
    baseline_key,
    estimator_digest,
    evaluate_methods,
    standard_methods,
)
from repro.experiments.runner import SweepRunner
from repro.graphs import ensure_connected, mixed_sbm
from repro.pipeline import checkpoint
from repro.spectral import ClassicalSpectralClustering
from repro.store import get_store

BASELINE_CLASSES = (
    ClassicalSpectralClustering,
    SymmetrizedSpectralClustering,
    RandomWalkSpectralClustering,
    DiSimClustering,
    AdjacencyKMeans,
)


@pytest.fixture(autouse=True)
def _pristine(pristine_store):
    clear_spectral_cache()
    yield
    clear_spectral_cache()


def small_graph(seed=11):
    graph, truth = mixed_sbm(24, 2, p_intra=0.6, p_inter=0.05, seed=seed)
    ensure_connected(graph, seed=seed)
    return graph, truth


def baselines(num_clusters=2, seed=3, theta=None):
    methods = standard_methods(num_clusters, seed, theta=theta)
    del methods["quantum"]
    return methods


def count_fits(monkeypatch):
    """Count every baseline ``fit`` call; returns the running tally."""
    calls = []
    for cls in BASELINE_CLASSES:
        original = cls.fit

        def counted(self, graph, _original=original):
            calls.append(type(self).__name__)
            return _original(self, graph)

        monkeypatch.setattr(cls, "fit", counted)
    return calls


def forbid_fits(monkeypatch):
    for cls in BASELINE_CLASSES:

        def refuse(self, graph):
            raise AssertionError(f"{type(self).__name__}.fit ran on a warm store")

        monkeypatch.setattr(cls, "fit", refuse)


def run_panel(methods, graph, truth, store_dir):
    return evaluate_methods("X", methods, graph, truth, {"n": 24}, 3, store_dir)


def entries(store_dir):
    return sorted((store_dir / BASELINE_NAMESPACE).rglob("*.cas"))


def test_key_names_every_constructor_parameter():
    """A new constructor argument cannot be left out of the key."""
    methods = baselines(theta=0.5)
    assert {type(est) for est in methods.values()} == set(BASELINE_CLASSES)
    for tag, estimator in methods.items():
        digest = estimator_digest(estimator)
        assert type(estimator).__qualname__ in digest
        parameters = inspect.signature(type(estimator).__init__).parameters
        for name in parameters:
            if name != "self":
                assert f"{name}=" in digest, (tag, name, digest)
        assert digest in baseline_key(tag, estimator, "g")
    quantum = standard_methods(2, 3)["quantum"]
    assert baseline_key("quantum", quantum, "g") is None  # stage-served


def test_warm_panel_fits_nothing_and_matches_cold(tmp_path, monkeypatch):
    store_dir = tmp_path / "cas"
    sweep = fig1_direction_sweep.spec(
        strengths=(0.9,), num_nodes=24, num_clusters=2, trials=1,
        precision_bits=5, shots=128, store_dir=str(store_dir),
    )
    cold = SweepRunner(sweep).run().records
    baseline_records = [r for r in cold if r.method != "quantum"]
    assert len(entries(store_dir)) == len(baseline_records) == 5

    get_store().clear_memory()  # a fresh worker: only the disk tier is warm
    clear_spectral_cache()
    forbid_fits(monkeypatch)
    warm = SweepRunner(sweep).run().records
    assert warm == cold
    stats = get_store().counters(BASELINE_NAMESPACE)
    assert stats["disk_hits"] == 5 and stats["misses"] == 0


@pytest.mark.parametrize("change", ["num_clusters", "seed", "theta", "edge"])
def test_a_changed_input_misses(change, tmp_path, monkeypatch):
    graph, truth = small_graph()
    store_dir = tmp_path / "cas"
    run_panel(baselines(), graph, truth, store_dir)
    calls = count_fits(monkeypatch)

    methods = baselines()
    if change == "num_clusters":
        methods = baselines(num_clusters=3)
    elif change == "seed":
        methods = baselines(seed=4)
    elif change == "theta":
        methods = baselines(theta=0.5)
    else:
        u, v = next(
            (u, v) for u in range(24) for v in range(u + 1, 24)
            if not graph.has_edge(u, v) and not graph.has_arc(u, v)
            and not graph.has_arc(v, u)
        )
        graph.add_edge(u, v)
    run_panel(methods, graph, truth, store_dir)
    # theta reaches only the classical Hermitian baseline; every other
    # change reaches all five
    assert len(calls) == (1 if change == "theta" else 5)


@pytest.mark.parametrize(
    "seed", [None, np.random.default_rng(0)], ids=["none", "generator"]
)
def test_unseeded_baselines_are_neither_served_nor_published(
    seed, tmp_path, monkeypatch
):
    graph, truth = small_graph()
    store_dir = tmp_path / "cas"
    methods = baselines(seed=seed)
    assert all(baseline_key(tag, est, "g") is None for tag, est in methods.items())
    calls = count_fits(monkeypatch)
    run_panel(methods, graph, truth, store_dir)
    run_panel(methods, graph, truth, store_dir)
    assert len(calls) == 10
    assert entries(store_dir) == []
    assert get_store().counters(BASELINE_NAMESPACE)["misses"] == 0


def test_a_corrupt_entry_is_evicted_and_recomputed(tmp_path, monkeypatch):
    graph, truth = small_graph()
    store_dir = tmp_path / "cas"
    cold = run_panel(baselines(), graph, truth, store_dir)
    digest = checkpoint.graph_fingerprint(graph)
    estimator = baselines()["disim"]
    path = get_store()._entry_path(
        BASELINE_NAMESPACE, baseline_key("disim", estimator, digest)
    )
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))

    calls = count_fits(monkeypatch)
    warm = run_panel(baselines(), graph, truth, store_dir)
    assert warm == cold
    assert calls == ["DiSimClustering"]
    assert get_store().counters(BASELINE_NAMESPACE)["corrupt_evictions"] == 1
    assert get_store().verify()["corrupt"] == []  # republished whole
