"""Tests for the MixedGraph container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_pipeline import per_edge_fingerprint

from repro.exceptions import GraphError
from repro.graphs import MixedGraph, random_mixed_graph
from repro.graphs.mixed_graph import Edge
from repro.pipeline.checkpoint import graph_fingerprint


class TestConstruction:
    def test_empty_graph(self):
        g = MixedGraph(4)
        assert g.num_nodes == 4
        assert g.num_edges == 0 and g.num_arcs == 0

    def test_zero_nodes_rejected(self):
        with pytest.raises(GraphError):
            MixedGraph(0)

    def test_label_count_checked(self):
        with pytest.raises(GraphError):
            MixedGraph(3, node_labels=["a", "b"])

    def test_labels_copied(self):
        labels = ["a", "b"]
        g = MixedGraph(2, node_labels=labels)
        labels[0] = "mutated"
        assert g.node_labels[0] == "a"


class TestEdgesAndArcs:
    def test_add_edge_symmetric(self):
        g = MixedGraph(3)
        g.add_edge(0, 1)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_add_arc_one_way(self):
        g = MixedGraph(3)
        g.add_arc(0, 1)
        assert g.has_arc(0, 1) and not g.has_arc(1, 0)

    def test_self_loop_rejected(self):
        g = MixedGraph(2)
        with pytest.raises(GraphError):
            g.add_edge(1, 1)
        with pytest.raises(GraphError):
            g.add_arc(0, 0)

    def test_nonpositive_weight_rejected(self):
        g = MixedGraph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, weight=0.0)
        with pytest.raises(GraphError):
            g.add_arc(0, 1, weight=-2.0)

    def test_node_out_of_range(self):
        with pytest.raises(GraphError):
            MixedGraph(2).add_edge(0, 5)

    def test_edge_arc_conflict_detected(self):
        g = MixedGraph(2)
        g.add_edge(0, 1)
        with pytest.raises(GraphError):
            g.add_arc(0, 1)
        g2 = MixedGraph(2)
        g2.add_arc(0, 1)
        with pytest.raises(GraphError):
            g2.add_edge(0, 1)

    def test_antiparallel_arcs_merge_to_edge(self):
        g = MixedGraph(2)
        g.add_arc(0, 1, weight=1.0)
        g.add_arc(1, 0, weight=2.0)
        assert g.num_arcs == 0
        assert g.has_edge(0, 1)
        assert np.isclose(g.degree(0), 3.0)

    def test_edge_dataclass_validation(self):
        with pytest.raises(GraphError):
            Edge(1, 1)
        with pytest.raises(GraphError):
            Edge(0, 1, weight=-1.0)

    def test_edges_deterministic_order(self):
        g = MixedGraph(4)
        g.add_arc(2, 3)
        g.add_edge(0, 1)
        g.add_arc(0, 2)
        tags = [(e.u, e.v, e.directed) for e in g.edges()]
        assert tags == [(0, 1, False), (0, 2, True), (2, 3, True)]


class TestDegreesAndMatrices:
    def test_degree_counts_both_kinds(self):
        g = MixedGraph(3)
        g.add_edge(0, 1, 2.0)
        g.add_arc(0, 2, 3.0)
        assert np.isclose(g.degree(0), 5.0)
        assert np.isclose(g.degree(2), 3.0)

    def test_degrees_vector_matches_scalar(self):
        g = random_mixed_graph(10, 0.4, seed=0)
        vec = g.degrees()
        assert all(np.isclose(vec[i], g.degree(i)) for i in range(10))

    @pytest.mark.parametrize("seed", range(5))
    def test_degrees_are_the_loop_sum_byte_for_byte(self, seed):
        """``degrees`` adds each node's weights in connection order — edges,
        then arcs, each in insertion order — exactly as a loop does, so
        fractional weights (where float order matters) keep their bytes."""
        rng = np.random.default_rng(seed)
        g = MixedGraph(40)
        for _ in range(400):
            u, v = (int(node) for node in rng.choice(40, size=2, replace=False))
            weight = float(rng.uniform(0.01, 3.0)) / 7.0
            try:
                if rng.random() < 0.5:
                    g.add_edge(u, v, weight)
                else:
                    g.add_arc(u, v, weight)
            except GraphError:  # an edge/arc clash; the graph is unchanged
                pass
        assert g.num_edges and g.num_arcs
        loop = np.zeros(g.num_nodes)
        for u, v, w in np.concatenate(g.connection_tables()).tolist():
            loop[int(u)] += w
            loop[int(v)] += w
        assert g.degrees().tobytes() == loop.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_connection_tables_rebuild_the_graph(self, seed):
        g = random_mixed_graph(25, 0.3, seed=seed)
        edges, arcs = g.connection_tables()
        assert edges.shape == (g.num_edges, 3) and arcs.shape == (g.num_arcs, 3)
        rebuilt = MixedGraph(g.num_nodes)
        rebuilt.add_edges(edges)
        rebuilt.add_arcs(arcs)
        assert rebuilt.edges() == g.edges()
        # insertion order survives, so the degree sums keep their bytes
        assert rebuilt.degrees().tobytes() == g.degrees().tobytes()

    def test_degrees_of_an_edgeless_graph(self):
        degrees = MixedGraph(3).degrees()
        assert degrees.dtype == np.float64
        np.testing.assert_array_equal(degrees, np.zeros(3))

    def test_symmetrized_adjacency_is_symmetric(self):
        g = random_mixed_graph(8, 0.5, seed=1)
        adj = g.symmetrized_adjacency()
        assert np.allclose(adj, adj.T)

    def test_directed_adjacency_arcs_once(self):
        g = MixedGraph(2)
        g.add_arc(0, 1, 1.5)
        adj = g.directed_adjacency()
        assert adj[0, 1] == 1.5 and adj[1, 0] == 0.0

    def test_directed_fraction(self):
        g = MixedGraph(3)
        assert g.directed_fraction == 0.0
        g.add_edge(0, 1)
        g.add_arc(1, 2)
        assert np.isclose(g.directed_fraction, 0.5)


class TestConversions:
    def test_weak_connectivity(self):
        g = MixedGraph(3)
        g.add_arc(0, 1)
        assert not g.is_weakly_connected()
        g.add_edge(1, 2)
        assert g.is_weakly_connected()

    def test_single_node_is_connected(self):
        assert MixedGraph(1).is_weakly_connected()


class TestProperties:
    @given(seed=st.integers(0, 30), p=st.floats(0.1, 0.6))
    @settings(max_examples=20, deadline=None)
    def test_random_graph_invariants(self, seed, p):
        g = random_mixed_graph(12, p, directed_fraction=0.5, seed=seed)
        adj = g.symmetrized_adjacency()
        assert np.allclose(adj, adj.T)
        assert np.allclose(np.diag(adj), 0.0)
        assert np.isclose(g.degrees().sum(), adj.sum())


#: Weights with long, fractional and exponent ``repr`` forms.
WEIGHTS = st.sampled_from([1.0, 2.0, 0.5, 0.1 + 0.2, 1 / 3, 2.5e-7, 1e16, 123.456])


@st.composite
def mixed_graphs(draw):
    """Graphs up to 3-digit node ids: empty, arcs-only or mixed, with
    antiparallel arc pairs merged into edges of summed weight."""
    num_nodes = draw(st.integers(1, 120))
    kinds = ["arc"] if draw(st.booleans()) else ["edge", "arc", "pair"]
    graph = MixedGraph(num_nodes)
    node = st.integers(0, num_nodes - 1)
    rows = draw(
        st.lists(st.tuples(node, node, WEIGHTS, st.sampled_from(kinds)), max_size=60)
    )
    for u, v, weight, kind in rows:
        if u == v or (kinds == ["arc"] and graph.has_arc(v, u)):
            continue
        try:
            if kind == "edge":
                graph.add_edge(u, v, weight)
            else:
                graph.add_arc(u, v, weight)
                if kind == "pair":
                    graph.add_arc(v, u, weight / 2)
        except GraphError:  # an edge where an arc already is, or vice versa
            pass
    return graph


def reference_edge_arrays(graph):
    """``edge_arrays`` built record by record from ``sorted_connections``."""
    und, dirs = graph.sorted_connections()
    rows = [(u, v, w, False) for (u, v), w in und]
    rows += [(u, v, w, True) for (u, v), w in dirs]
    return (
        np.array([row[0] for row in rows], dtype=np.int64),
        np.array([row[1] for row in rows], dtype=np.int64),
        np.array([row[2] for row in rows], dtype=float),
        np.array([row[3] for row in rows], dtype=bool),
    )


class TestSortedArrays:
    @given(graph=mixed_graphs())
    @settings(max_examples=60, deadline=None)
    def test_edge_arrays_match_the_sorted_connections(self, graph):
        for got, want in zip(graph.edge_arrays(), reference_edge_arrays(graph)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @given(graph=mixed_graphs())
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_matches_the_per_edge_formula(self, graph):
        assert graph_fingerprint(graph) == per_edge_fingerprint(graph)

    def test_empty_and_arcs_only_graphs(self):
        empty = MixedGraph(12)
        assert all(array.size == 0 for array in empty.edge_arrays())
        assert graph_fingerprint(empty) == per_edge_fingerprint(empty)
        arcs = MixedGraph(150)
        arcs.add_arcs(np.array([[149, 3, 0.25], [10, 100, 1.0], [3, 149, 0.5]]))
        assert arcs.num_edges == 1 and arcs.num_arcs == 1  # 3<->149 merged
        assert graph_fingerprint(arcs) == per_edge_fingerprint(arcs)
        for got, want in zip(arcs.edge_arrays(), reference_edge_arrays(arcs)):
            assert got.tobytes() == want.tobytes()


def loaded_modules(code: str) -> str:
    """Output of ``code`` run in a fresh interpreter on this source tree."""
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


class TestImportCost:
    def test_import_repro_leaves_networkx_unloaded(self):
        """Nothing in the package imports networkx: it is not a dependency."""
        code = (
            "import sys, repro, repro.cli; "
            "print(any(m.split('.')[0] == 'networkx' for m in sys.modules))"
        )
        assert loaded_modules(code) == "False"

    def test_import_repro_leaves_scipy_optimize_unloaded(self):
        """scipy.optimize is imported only inside ``matched_accuracy``."""
        code = (
            "import sys, repro, repro.cli; "
            "print(any(m.startswith('scipy.optimize') for m in sys.modules))"
        )
        assert loaded_modules(code) == "False"
