"""Read-through of the sweeps' trial graphs.

With a content store attached, :func:`trial_graph` serves each trial's
graph from the ``graph`` namespace: a hit rebuilds the graph from its
stored edge and arc tables and returns the stored digest, so a warm trial
neither generates nor hashes its graph.  The key names the builder and
every argument it binds, so any change to what the graph depends on misses.
"""

import functools
import inspect

import numpy as np
import pytest

from repro.core.qpe_engine import clear_spectral_cache
from repro.experiments import (
    common,
    fig1_direction_sweep,
    fig2_precision_sweep,
    fig4_shots_sweep,
    table1_msbm,
    table2_netlist,
)
from repro.experiments.common import GRAPH_NAMESPACE, graph_key, trial_graph
from repro.experiments.runner import SweepRunner
from repro.graphs import MixedGraph, cyclic_flow_sbm, mixed_sbm
from repro.graphs.netlist import Netlist
from repro.pipeline import checkpoint
from repro.pipeline.checkpoint import graph_fingerprint
from repro.store import get_store


@pytest.fixture(autouse=True)
def _pristine(pristine_store):
    clear_spectral_cache()
    yield
    clear_spectral_cache()


def hand_built(seed):
    """A graph whose antiparallel arcs merged into a weight-2 edge, and
    whose node-0 degree sums to other bytes in sorted connection order."""
    graph = MixedGraph(5)
    graph.add_edge(0, 3, 0.1)
    graph.add_arc(0, 1)
    graph.add_edge(2, 3, 0.5)
    graph.add_arc(1, 2, 1.5)
    graph.add_arc(1, 0)  # merges with 0 -> 1 into the undirected edge {0, 1}
    graph.add_edge(0, 2, 0.7)
    graph.add_arc(4, 0, 0.2)
    graph.add_arc(4, 3)
    return graph, np.array([0, 0, 1, 1, 1])


#: Every trial builder with the arguments one of its trials passes.
BUILDERS = {
    "mixed_sbm": (
        mixed_sbm,
        dict(num_nodes=24, num_clusters=2, p_intra=0.4, p_inter=0.05, seed=7,
             generator_version="v1"),
    ),
    "cyclic_flow_sbm": (
        cyclic_flow_sbm,
        dict(num_nodes=24, num_clusters=3, density=0.3, direction_strength=0.9,
             intra_directed=True, seed=7, generator_version="v1"),
    ),
    "netlist": (
        table2_netlist._netlist_graph,
        dict(num_modules=2, gates_per_module=8, seed=7),
    ),
    "hand_built": (hand_built, dict(seed=7)),
}


def changed(value):
    """A different value of the same kind as ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return "v2" if value == "v1" else value + "x"
    return 1  # None


def entries(store_dir):
    return sorted((store_dir / GRAPH_NAMESPACE).rglob("*.cas"))


@pytest.mark.parametrize("name", [n for n in BUILDERS if n != "hand_built"])
def test_every_bound_parameter_reaches_the_key(name):
    """A builder parameter left out of the key fails here."""
    builder, kwargs = BUILDERS[name]
    key = graph_key(builder, connect_seed=7, **kwargs)
    assert f"{builder.__module__}.{builder.__qualname__}(" in key
    parameters = inspect.signature(builder).parameters
    defaults = {
        p: parameter.default
        for p, parameter in parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }
    for parameter in parameters:
        assert f"{parameter}=" in key, (parameter, key)
        value = kwargs.get(parameter, defaults.get(parameter))
        other = {**kwargs, parameter: changed(value)}
        assert graph_key(builder, connect_seed=7, **other) != key, parameter
    assert graph_key(builder, connect_seed=8, **kwargs) != key


def test_a_default_reaches_the_key_even_when_not_passed():
    _, kwargs = BUILDERS["netlist"]
    key = graph_key(table2_netlist._netlist_graph, connect_seed=7, **kwargs)
    assert "internal_fanin=3;" in key and "feedback_registers=3;" in key


def test_a_wrapped_builder_has_the_same_key_and_is_served(tmp_path):
    builder, kwargs = BUILDERS["mixed_sbm"]
    calls = []

    @functools.wraps(builder)
    def wrapped(*args, **kw):
        calls.append(1)
        return builder(*args, **kw)

    assert graph_key(wrapped, connect_seed=7, **kwargs) == graph_key(
        builder, connect_seed=7, **kwargs
    )
    store_dir = tmp_path / "cas"
    cold = trial_graph(store_dir, builder, connect_seed=7, **kwargs)
    warm = trial_graph(store_dir, wrapped, connect_seed=7, **kwargs)
    assert calls == []
    assert warm[2] == cold[2]


@pytest.mark.parametrize("name", list(BUILDERS))
def test_a_served_graph_is_the_built_graph(name, tmp_path):
    builder, kwargs = BUILDERS[name]
    store_dir = tmp_path / "cas"
    built, truth, digest = trial_graph(store_dir, builder, connect_seed=7, **kwargs)
    assert digest == graph_fingerprint(built)
    assert len(entries(store_dir)) == 1
    rebuilt, served_truth, served_digest = trial_graph(
        store_dir, builder, connect_seed=7, **kwargs
    )
    assert get_store().counters(GRAPH_NAMESPACE)["disk_hits"] == 1
    assert served_digest == digest == graph_fingerprint(rebuilt)
    assert rebuilt.num_nodes == built.num_nodes
    assert rebuilt.sorted_connections() == built.sorted_connections()
    for served, fresh in zip(rebuilt.edge_arrays(), built.edge_arrays()):
        assert np.array_equal(served, fresh)
    assert rebuilt.degrees().tobytes() == built.degrees().tobytes()
    assert rebuilt.node_labels == built.node_labels
    assert np.array_equal(served_truth, truth)
    if name == "netlist":
        assert rebuilt.node_labels is not None
    if name == "hand_built":
        assert dict(rebuilt.sorted_connections()[0])[(0, 1)] == 2.0


def test_without_a_store_the_graph_is_built_and_hashed():
    builder, kwargs = BUILDERS["mixed_sbm"]
    graph, truth, digest = trial_graph(None, builder, connect_seed=7, **kwargs)
    assert digest == graph_fingerprint(graph)
    assert get_store().counters(GRAPH_NAMESPACE)["misses"] == 0


def test_a_corrupt_entry_is_evicted_and_regenerated(tmp_path):
    builder, kwargs = BUILDERS["cyclic_flow_sbm"]
    store_dir = tmp_path / "cas"
    cold = trial_graph(store_dir, builder, connect_seed=7, **kwargs)
    (path,) = entries(store_dir)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))

    calls = []

    @functools.wraps(builder)
    def counted(**kw):
        calls.append(1)
        return builder(**kw)

    warm = trial_graph(store_dir, counted, connect_seed=7, **kwargs)
    assert calls == [1]
    assert warm[2] == cold[2]
    assert warm[0].sorted_connections() == cold[0].sorted_connections()
    stats = get_store().counters(GRAPH_NAMESPACE)
    assert stats["corrupt_evictions"] == 1
    assert get_store().verify()["corrupt"] == []  # republished whole


def test_the_attached_store_is_not_reattached(tmp_path, monkeypatch):
    """A lookup on the store already rooted at ``store_dir`` re-attaches
    nothing, so it adds no disk scan."""
    builder, kwargs = BUILDERS["mixed_sbm"]
    store_dir = tmp_path / "cas"
    trial_graph(store_dir, builder, connect_seed=7, **kwargs)
    attaches = []
    monkeypatch.setattr(
        type(get_store()), "attach", lambda self, *a, **k: attaches.append(a)
    )
    trial_graph(store_dir, builder, connect_seed=8, **kwargs)
    trial_graph(store_dir, builder, connect_seed=7, **kwargs)
    assert attaches == []


#: The five panel sweeps at test size, one trial per point.
PANEL = (
    (fig1_direction_sweep, dict(strengths=(0.9,), num_nodes=24, num_clusters=2,
                                precision_bits=5, shots=128)),
    (fig2_precision_sweep, dict(precisions=(3,), num_nodes=16, shots=64,
                                include_circuit=True, circuit_num_nodes=6)),
    (fig4_shots_sweep, dict(shot_budgets=(32,), num_nodes=16, precision_bits=5)),
    (table1_msbm, dict(sizes=(16,), cluster_counts=(2,), precision_bits=5,
                       shots=64)),
    (table2_netlist, dict(module_counts=(2,), gates_per_module=6,
                          precision_bits=5, shots=64)),
)


def run_panel(store_dir):
    return [
        SweepRunner(module.spec(trials=1, store_dir=str(store_dir), **kwargs))
        .run()
        .records
        for module, kwargs in PANEL
    ]


def forbid_graph_work(monkeypatch):
    """Every generator, ``ensure_connected`` and ``graph_fingerprint`` raise;
    the trial builders keep their names, as the benchmark tracer's do."""

    def refuse(function):
        @functools.wraps(function)
        def refused(*args, **kwargs):
            raise AssertionError(f"{function.__qualname__} ran on a warm store")

        return refused

    for module, name in (
        (fig1_direction_sweep, "cyclic_flow_sbm"),
        (fig2_precision_sweep, "mixed_sbm"),
        (fig4_shots_sweep, "mixed_sbm"),
        (table1_msbm, "mixed_sbm"),
        (table2_netlist, "synthetic_netlist"),
        (common, "ensure_connected"),
        (checkpoint, "graph_fingerprint"),
    ):
        monkeypatch.setattr(module, name, refuse(getattr(module, name)))
    monkeypatch.setattr(Netlist, "to_mixed_graph", refuse(Netlist.to_mixed_graph))


def test_warm_panel_generates_and_hashes_nothing(tmp_path, monkeypatch):
    store_dir = tmp_path / "cas"
    cold = run_panel(store_dir)
    # fig2 builds a second (circuit) graph per trial
    graphs = len(PANEL) + 1
    assert len(entries(store_dir)) == graphs

    get_store().clear_memory()  # a fresh worker: only the disk tier is warm
    clear_spectral_cache()
    forbid_graph_work(monkeypatch)
    warm = run_panel(store_dir)
    assert warm == cold
    stats = get_store().counters(GRAPH_NAMESPACE)
    assert stats["disk_hits"] == graphs and stats["misses"] == 0
