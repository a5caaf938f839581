"""``MixedGraph`` against a plain two-dict reference model.

The model keeps the edges and the arcs in two insertion-ordered dicts keyed
by node pair, the representation ``MixedGraph`` had before it held its
connections as arrays, and implements the same mutation rules: overwrites
keep a connection's place, an arc meeting its reverse merges into an edge,
an edge and an arc never share a node pair, and an ndarray batch is
validated whole before any row is applied.  Random sequences of scalar and
bulk inserts go through both, and every observable must agree byte for
byte after every step, raised errors included.
"""

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError
from repro.graphs import MixedGraph
from repro.pipeline.checkpoint import graph_fingerprint

NODES = 6
GOOD_WEIGHTS = [1.0, 2.0, 0.5, 1 / 3, 0.1 + 0.2, 7.25]
#: Valid values, and values that also reach the range and weight errors
#: (one step off each end of the node range, a zero and a negative weight).
#: Steps draw from one or the other, so valid batches of several rows —
#: repeated keys, overwrites, merges — stay common.
VALID = (st.integers(0, NODES - 1), st.sampled_from(GOOD_WEIGHTS))
ANY = (st.integers(-1, NODES), st.sampled_from([*GOOD_WEIGHTS, 0.0, -1.0]))


class DictGraph:
    """Reference model: two ``{(u, v): weight}`` dicts."""

    def __init__(self, num_nodes):
        self.num_nodes = num_nodes
        self.undirected = {}
        self.directed = {}

    def _check_node(self, node):
        node = int(node)
        if not 0 <= node < self.num_nodes:
            raise GraphError(
                f"node {node} out of range for graph with {self.num_nodes} nodes"
            )
        return node

    def add_edge(self, u, v, weight=1.0):
        u, v = self._check_node(u), self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        if weight <= 0:
            raise GraphError(f"edge weight must be positive, got {weight}")
        if (u, v) in self.directed or (v, u) in self.directed:
            raise GraphError(f"nodes {u},{v} already share an arc; remove it first")
        self.undirected[(min(u, v), max(u, v))] = float(weight)

    def add_arc(self, source, target, weight=1.0):
        source, target = self._check_node(source), self._check_node(target)
        if source == target:
            raise GraphError(f"self-loop on node {source} is not allowed")
        if weight <= 0:
            raise GraphError(f"arc weight must be positive, got {weight}")
        key = (min(source, target), max(source, target))
        if key in self.undirected:
            raise GraphError(
                f"nodes {source},{target} already share an undirected edge"
            )
        if (target, source) in self.directed:
            self.undirected[key] = float(weight) + self.directed.pop((target, source))
            return
        self.directed[(source, target)] = float(weight)

    def _batch(self, rows):
        """Validated ``(a, b, weights)`` lists of an ndarray batch."""
        a = rows[:, 0].astype(np.int64)
        b = rows[:, 1].astype(np.int64)
        weights = rows[:, 2].astype(float) if rows.shape[1] == 3 else np.ones(len(rows))
        for node in [*a.tolist(), *b.tolist()]:
            self._check_node(node)
        for u, v in zip(a.tolist(), b.tolist()):
            if u == v:
                raise GraphError(f"self-loop on node {u} is not allowed")
        if weights.min() <= 0:
            raise GraphError(f"edge weight must be positive, got {weights.min()}")
        return a.tolist(), b.tolist(), weights.tolist()

    def add_edges(self, rows):
        if not isinstance(rows, np.ndarray):
            for row in rows:
                self.add_edge(*row)
            return
        if not len(rows):
            return
        a, b, weights = self._batch(rows)
        keys = [(min(u, v), max(u, v)) for u, v in zip(a, b)]
        for u, v in keys:
            if (u, v) in self.directed or (v, u) in self.directed:
                raise GraphError(f"nodes {u},{v} already share an arc; remove it first")
        self.undirected.update(zip(keys, weights))

    def add_arcs(self, rows):
        if not isinstance(rows, np.ndarray):
            for row in rows:
                self.add_arc(*row)
            return
        if not len(rows):
            return
        a, b, weights = self._batch(rows)
        pairs = list(zip(a, b))
        for s, t in pairs:
            if (min(s, t), max(s, t)) in self.undirected:
                raise GraphError(f"nodes {s},{t} already share an undirected edge")
        if any((t, s) in self.directed or (t, s) in pairs for s, t in pairs):
            for (s, t), weight in zip(pairs, weights):
                self.add_arc(s, t, weight)
            return
        self.directed.update(zip(pairs, weights))

    def connection_tables(self):
        kinds = (self.undirected, self.directed)
        return tuple(_table(list(kind.items())) for kind in kinds)

    def sorted_connection_tables(self):
        kinds = (self.undirected, self.directed)
        return tuple(_table(sorted(kind.items())) for kind in kinds)

    def degrees(self):
        degrees = np.zeros(self.num_nodes)
        for (u, v), w in [*self.undirected.items(), *self.directed.items()]:
            degrees[u] += w
            degrees[v] += w
        return degrees

    def fingerprint(self):
        digest = hashlib.blake2b(digest_size=16)
        digest.update(str(self.num_nodes).encode())
        for items, directed in zip(
            (sorted(self.undirected.items()), sorted(self.directed.items())),
            (False, True),
        ):
            for (u, v), w in items:
                digest.update(f"{u},{v},{w},{directed};".encode())
        return digest.hexdigest()


def _table(items):
    table = np.empty((len(items), 3))
    for row, ((u, v), w) in enumerate(items):
        table[row] = u, v, w
    return table


def rows_of(width, values):
    node, weight = values
    if width == 2:
        return st.lists(st.tuples(node, node), max_size=8)
    return st.lists(st.tuples(node, node, weight), max_size=8)


def steps_of(values):
    node, weight = values
    return st.one_of(
        st.tuples(
            st.sampled_from(["add_edge", "add_arc"]), st.tuples(node, node, weight)
        ),
        st.tuples(
            st.sampled_from(["add_edges", "add_arcs"]),
            st.one_of(rows_of(2, values), rows_of(3, values)),
            st.booleans(),
        ),
    )


STEPS = st.one_of(steps_of(VALID), steps_of(ANY))


def apply(graph, step):
    """Run one step; the ``GraphError`` text it raised, or ``None``."""
    name, args, *as_array = step
    try:
        if as_array:
            rows = args
            if as_array[0]:
                width = len(rows[0]) if rows else 3
                rows = np.array(rows, dtype=float if width == 3 else np.int64)
                rows = rows.reshape(len(args), width)
            getattr(graph, name)(rows)
        else:
            getattr(graph, name)(*args)
    except GraphError as error:
        return str(error)
    return None


def assert_same(graph, model):
    assert graph.num_edges == len(model.undirected)
    assert graph.num_arcs == len(model.directed)
    for got, want in zip(graph.connection_tables(), model.connection_tables()):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for got, want in zip(
        graph.sorted_connection_tables(), model.sorted_connection_tables()
    ):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert graph.degrees().tobytes() == model.degrees().tobytes()
    for u in range(NODES):
        for v in range(NODES):
            assert graph.has_edge(u, v) == ((min(u, v), max(u, v)) in model.undirected)
            assert graph.has_arc(u, v) == ((u, v) in model.directed)
    assert graph_fingerprint(graph) == model.fingerprint()


class TestAgainstTheDictModel:
    @given(steps=st.lists(STEPS, max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_every_step_matches(self, steps):
        graph, model = MixedGraph(NODES), DictGraph(NODES)
        for step in steps:
            assert apply(graph, step) == apply(model, step)
            assert_same(graph, model)

    @given(steps=st.lists(STEPS, max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_reads_between_steps_do_not_change_the_outcome(self, steps):
        """The index and the sorted order are built on demand; a graph
        mutated without reads in between ends the same as one read after
        every step."""
        quiet, model = MixedGraph(NODES), DictGraph(NODES)
        for step in steps:
            assert apply(quiet, step) == apply(model, step)
        assert_same(quiet, model)

    def test_bulk_inserts_after_a_merge_skip_the_merged_arc(self):
        """A merged arc leaves the arc table; later bulk inserts overwrite
        held arcs in place and append new ones after the survivors."""
        graph, model = MixedGraph(NODES), DictGraph(NODES)
        for step in (
            ("add_arcs", [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)], True),
            ("add_arc", (1, 0, 2.0)),
            ("add_arcs", [(0, 2, 1.0), (4, 5, 9.0), (3, 1, 0.5)], True),
        ):
            assert apply(graph, step) is None and apply(model, step) is None
        assert_same(graph, model)
        edges, arcs = graph.connection_tables()
        assert edges.tolist() == [[0, 1, 3.0]]
        assert arcs.tolist() == [[2, 3, 1.0], [4, 5, 9.0], [0, 2, 1.0], [3, 1, 0.5]]
