"""The :class:`MixedGraph` container.

A mixed graph has a set of nodes, *undirected* weighted edges, and
*directed* weighted arcs.  It is the single input type of every clustering
algorithm in this library.  Nodes are integers 0..n−1; labels can be
attached for netlist provenance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import GraphError
from repro.linalg import resolve_backend


@dataclass(frozen=True)
class Edge:
    """One weighted connection; ``directed`` distinguishes arcs from edges."""

    u: int
    v: int
    weight: float = 1.0
    directed: bool = False

    def __post_init__(self):
        if self.u == self.v:
            raise GraphError(f"self-loop on node {self.u} is not allowed")
        if self.weight <= 0:
            raise GraphError(f"edge weight must be positive, got {self.weight}")


class MixedGraph:
    """A graph with both undirected edges and directed arcs.

    Parameters
    ----------
    num_nodes:
        Number of nodes; nodes are the integers ``0..num_nodes-1``.
    node_labels:
        Optional human-readable labels (e.g. gate names from a netlist).

    Examples
    --------
    >>> g = MixedGraph(3)
    >>> g.add_edge(0, 1)            # undirected
    >>> g.add_arc(1, 2, weight=2.0) # directed 1 -> 2
    >>> g.num_edges, g.num_arcs
    (1, 1)
    """

    def __init__(self, num_nodes: int, node_labels=None):
        if num_nodes < 1:
            raise GraphError(f"graph needs at least one node, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        self._edges = _ConnectionTable(self._num_nodes)
        self._arcs = _ConnectionTable(self._num_nodes)
        if node_labels is not None:
            node_labels = list(node_labels)
            if len(node_labels) != num_nodes:
                raise GraphError(
                    f"{len(node_labels)} labels supplied for {num_nodes} nodes"
                )
        self._node_labels = node_labels

    # -- construction --------------------------------------------------------

    def _check_node(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < self._num_nodes:
            raise GraphError(
                f"node {node} out of range for graph with {self._num_nodes} nodes"
            )
        return node

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add (or overwrite) an undirected edge {u, v}."""
        u, v = self._check_node(u), self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        if weight <= 0:
            raise GraphError(f"edge weight must be positive, got {weight}")
        n = self._num_nodes
        if (
            self._arcs.row(u * n + v) is not None
            or self._arcs.row(v * n + u) is not None
        ):
            raise GraphError(f"nodes {u},{v} already share an arc; remove it first")
        lo, hi = min(u, v), max(u, v)
        self._edges.set(lo * n + hi, lo, hi, float(weight))

    def add_arc(self, source: int, target: int, weight: float = 1.0) -> None:
        """Add (or overwrite) a directed arc source → target."""
        source, target = self._check_node(source), self._check_node(target)
        if source == target:
            raise GraphError(f"self-loop on node {source} is not allowed")
        if weight <= 0:
            raise GraphError(f"arc weight must be positive, got {weight}")
        n = self._num_nodes
        lo, hi = min(source, target), max(source, target)
        if self._edges.row(lo * n + hi) is not None:
            raise GraphError(
                f"nodes {source},{target} already share an undirected edge"
            )
        if self._arcs.row(target * n + source) is not None:
            # Antiparallel arcs merge into an undirected edge by convention:
            # flow in both directions carries no net orientation signal.
            weight_back = self._arcs.pop(target * n + source)
            self._edges.set(lo * n + hi, lo, hi, float(weight) + weight_back)
            return
        self._arcs.set(source * n + target, source, target, float(weight))

    def add_edges(self, edges) -> None:
        """Add undirected edges from ``(u, v)`` or ``(u, v, weight)`` rows.

        The single insertion point generators and netlist conversion feed
        their accumulated edge lists through.  An ndarray of shape
        ``(m, 2)`` or ``(m, 3)`` takes a vectorized bulk path — validation,
        conflict checks and the table update all in NumPy — with the exact
        semantics of looping :meth:`add_edge` (later duplicates overwrite
        earlier ones in place, edge/arc conflicts raise) except that a bad
        row rejects the whole batch; any other iterable falls back to that
        loop.
        """
        rows = self._bulk_rows(edges)
        if rows is None:
            for row in edges:
                self.add_edge(*row)
            return
        u, v, weights = rows
        n = self._num_nodes
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        if len(self._arcs):
            clash = self._arcs.contains(lo * n + hi) | self._arcs.contains(hi * n + lo)
            if clash.any():
                first = np.argmax(clash)
                raise GraphError(
                    f"nodes {lo[first]},{hi[first]} already share an arc; "
                    "remove it first"
                )
        self._edges.extend(lo, hi, weights)

    def add_arcs(self, arcs) -> None:
        """Add arcs from ``(source, target)`` or ``(source, target, weight)``
        rows.

        Same bulk contract as :meth:`add_edges`: ndarray input is validated
        and inserted vectorially, other iterables loop over
        :meth:`add_arc`.  Batches containing antiparallel pairs (within the
        batch or against existing arcs) fall back to the per-row loop so
        the merge-into-undirected convention is preserved.
        """
        rows = self._bulk_rows(arcs)
        if rows is None:
            for row in arcs:
                self.add_arc(*row)
            return
        source, target, weights = rows
        n = self._num_nodes
        if len(self._edges):
            clash = self._edges.contains(
                np.minimum(source, target) * n + np.maximum(source, target)
            )
            if clash.any():
                first = np.argmax(clash)
                raise GraphError(
                    f"nodes {source[first]},{target[first]} already share an "
                    "undirected edge"
                )
        reverse = target * n + source
        antiparallel = _member(np.sort(source * n + target), reverse).any() or (
            len(self._arcs) and self._arcs.contains(reverse).any()
        )
        if antiparallel:
            # Antiparallel pairs merge into undirected edges; the per-row
            # path implements that convention.
            for row in zip(source.tolist(), target.tolist(), weights.tolist()):
                self.add_arc(*row)
            return
        self._arcs.extend(source, target, weights)

    def _bulk_rows(self, rows):
        """``(a, b, weights)`` of a validated ``(m, 2)`` / ``(m, 3)`` ndarray
        batch; ``None`` for any other input (the per-row path), and empty
        columns for an empty batch."""
        if not (
            isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.shape[1] in (2, 3)
        ):
            return None
        a = rows[:, 0].astype(np.int64)
        b = rows[:, 1].astype(np.int64)
        weights = rows[:, 2].astype(float) if rows.shape[1] == 3 else np.ones(len(rows))
        if len(rows):
            self._check_bulk(a, b, weights)
        return a, b, weights

    def _check_bulk(self, u: np.ndarray, v: np.ndarray, weights: np.ndarray):
        """Vectorized endpoint/weight validation shared by the bulk paths."""
        endpoints = np.concatenate([u, v])
        if endpoints.min() < 0 or endpoints.max() >= self._num_nodes:
            bad = endpoints[(endpoints < 0) | (endpoints >= self._num_nodes)][0]
            raise GraphError(
                f"node {bad} out of range for graph with "
                f"{self._num_nodes} nodes"
            )
        loops = u == v
        if loops.any():
            raise GraphError(f"self-loop on node {u[loops][0]} is not allowed")
        if weights.min() <= 0:
            raise GraphError(f"edge weight must be positive, got {weights.min()}")

    # -- accessors -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes n."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self._edges)

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs."""
        return len(self._arcs)

    @property
    def node_labels(self) -> list[str] | None:
        """Optional node labels (copied)."""
        return None if self._node_labels is None else list(self._node_labels)

    def sorted_connections(self) -> tuple[list, list]:
        """Sorted ``((u, v), weight)`` items of the edges, then of the arcs:
        :meth:`edges` order without building :class:`Edge` objects."""
        items = []
        for table in self.sorted_connection_tables():
            ends = map(tuple, table[:, :2].astype(np.int64).tolist())
            items.append(list(zip(ends, table[:, 2].tolist())))
        return tuple(items)

    def connection_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(m, 3)`` float ``[u, v, weight]`` tables of the edges, then of
        the arcs, in insertion order.

        :meth:`add_edges` and :meth:`add_arcs` of an empty graph rebuild
        this one from them, insertion order (so :meth:`degrees`' bytes)
        included.
        """
        return self._edges.table(), self._arcs.table()

    def sorted_connection_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`connection_tables` with each table's rows in
        :meth:`sorted_connections` order (by ``u``, then ``v``).

        The tables are read-only and shared by every call until the graph
        next changes: a graph is sorted at most once between mutations.
        """
        return self._edges.sorted_table(), self._arcs.sorted_table()

    def edges(self) -> list[Edge]:
        """All connections, undirected first, in deterministic order."""
        und, dirs = self.sorted_connections()
        return [Edge(u, v, w, directed=False) for (u, v), w in und] + [
            Edge(u, v, w, directed=True) for (u, v), w in dirs
        ]

    def edge_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized view of all connections: ``(u, v, weight, directed)``.

        Rows follow the same deterministic order as :meth:`edges`
        (undirected first, each group sorted by endpoint pair), read off
        :meth:`sorted_connection_tables` — this is the construction path
        the sparse Hermitian matrices are built from.
        """
        und, dirs = self.sorted_connection_tables()
        table = np.concatenate([und, dirs])
        directed = np.zeros(len(table), dtype=bool)
        directed[len(und) :] = True
        return (
            table[:, 0].astype(np.int64),
            table[:, 1].astype(np.int64),
            np.ascontiguousarray(table[:, 2]),
            directed,
        )

    def has_edge(self, u: int, v: int) -> bool:
        """True if an undirected edge joins u and v."""
        u, v = self._check_node(u), self._check_node(v)
        return self._edges.row(min(u, v) * self._num_nodes + max(u, v)) is not None

    def has_arc(self, source: int, target: int) -> bool:
        """True if the arc source → target exists."""
        source, target = self._check_node(source), self._check_node(target)
        return self._arcs.row(source * self._num_nodes + target) is not None

    def degree(self, node: int) -> float:
        """Weighted degree counting both edges and arcs (in + out)."""
        return float(self.degrees()[self._check_node(node)])

    def degrees(self) -> np.ndarray:
        """Vector of weighted degrees for all nodes.

        One ``bincount`` over the endpoints interleaved (u, v) per
        connection, edges then arcs, in insertion order: it adds in input
        order, so each degree is summed in the same order (and to the same
        bytes) as a loop over the connections would.
        """
        table = np.concatenate(self.connection_tables())
        ends = table[:, :2].astype(np.intp).ravel()
        weights = table[:, 2]
        # an edgeless graph's bincount is int64, hence the (no-op) cast
        return np.bincount(
            ends, weights=np.repeat(weights, 2), minlength=self._num_nodes
        ).astype(float, copy=False)

    @property
    def directed_fraction(self) -> float:
        """Share of connections that are arcs — 0 for a plain graph."""
        total = self.num_edges + self.num_arcs
        return self.num_arcs / total if total else 0.0

    # -- conversions ---------------------------------------------------------

    def symmetrized_adjacency(self, backend="dense"):
        """Real adjacency matrix ignoring direction (baseline input).

        ``backend`` follows the ``repro.linalg`` contract: ``"dense"``
        (default, plain ndarray), ``"sparse"`` (CSR), or ``"auto"``.
        """
        u, v, w, _ = self.edge_arrays()
        shape = (self._num_nodes, self._num_nodes)
        return resolve_backend(backend, self._num_nodes).from_coo(
            np.concatenate([u, v]),
            np.concatenate([v, u]),
            np.concatenate([w, w]),
            shape,
            dtype=float,
        )

    def directed_adjacency(self, backend="dense"):
        """Non-symmetric adjacency: arcs appear once, edges twice."""
        u, v, w, directed = self.edge_arrays()
        und = ~directed
        shape = (self._num_nodes, self._num_nodes)
        return resolve_backend(backend, self._num_nodes).from_coo(
            np.concatenate([u, v[und]]),
            np.concatenate([v, u[und]]),
            np.concatenate([w, w[und]]),
            shape,
            dtype=float,
        )

    def is_weakly_connected(self) -> bool:
        """Connectivity of the underlying undirected graph."""
        if self._num_nodes == 1:
            return True
        adj = self.symmetrized_adjacency() > 0
        visited = np.zeros(self._num_nodes, dtype=bool)
        stack = [0]
        visited[0] = True
        while stack:
            node = stack.pop()
            for neighbor in np.flatnonzero(adj[node]):
                if not visited[neighbor]:
                    visited[neighbor] = True
                    stack.append(int(neighbor))
        return bool(visited.all())

    def __repr__(self) -> str:
        return (
            f"MixedGraph(n={self._num_nodes}, edges={self.num_edges}, "
            f"arcs={self.num_arcs})"
        )


class _ConnectionTable:
    """One kind of connection — the edges or the arcs of a graph — as an
    insertion-ordered ``(m, 3)`` float ``[u, v, weight]`` table, each row
    keyed by ``u * n + v``.

    Two lookups serve it, each built only when something needs it: a
    ``{key: row}`` index for scalar queries and mutations, and the live
    rows' key-sorted order for bulk inserts and the sorted table.  A scalar
    mutation drops the sorted order, a bulk insert drops the index.  A
    removed row keeps its place with weight 0 (no connection weighs 0), so
    row numbers never shift.
    """

    def __init__(self, num_nodes: int):
        self._n = np.int64(num_nodes)
        self._rows = np.empty((0, 3))
        self._size = 0
        self._removed = 0
        self._index: dict | None = None
        #: (sorted keys, their rows) of the live rows.
        self._order: tuple | None = None
        self._sorted: np.ndarray | None = None

    def __len__(self) -> int:
        return self._size - self._removed

    def table(self) -> np.ndarray:
        """A copy of the live rows, in insertion order."""
        rows = self._rows[: self._size]
        return rows[rows[:, 2] != 0] if self._removed else rows.copy()

    def sorted_table(self) -> np.ndarray:
        """The live rows by key, read-only and cached until a mutation."""
        if self._sorted is None:
            self._sorted = self._rows[self._sorted_rows()[1]]
            self._sorted.flags.writeable = False
        return self._sorted

    def row(self, key: int) -> int | None:
        """The row of ``key``, or ``None``."""
        if self._index is None:
            live = self._live_rows()
            keys = self._keys(self._rows[live]).tolist()
            self._index = dict(zip(keys, live.tolist()))
        return self._index.get(key)

    def set(self, key: int, u: int, v: int, weight: float) -> None:
        """Insert ``key``'s row, or overwrite its weight in place."""
        row = self.row(key)
        if row is None:
            row = self._index[key] = self._grow(1)
            self._rows[row, :2] = u, v
        self._rows[row, 2] = weight
        self._order = self._sorted = None

    def pop(self, key: int) -> float:
        """Remove ``key``'s row and return its weight."""
        row = self.row(key)
        del self._index[key]
        weight = float(self._rows[row, 2])
        self._rows[row, 2] = 0.0
        self._removed += 1
        self._order = self._sorted = None
        return weight

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Which of ``keys`` have a live row."""
        return _member(self._sorted_rows()[0], keys)

    def extend(self, u: np.ndarray, v: np.ndarray, weights: np.ndarray) -> None:
        """Bulk :meth:`set` of validated rows, in order: a key already held,
        or repeated in the batch, keeps its first row and takes its last
        weight."""
        if not len(u):
            return
        keys = self._keys_of(u, v)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        repeated = sorted_keys[1:] == sorted_keys[:-1]
        if repeated.any():
            starts = np.flatnonzero(np.concatenate([[True], ~repeated]))
            first = order[starts]
            last = order[np.append(starts[1:], len(keys)) - 1]
            by_position = np.argsort(first)
            kept = first[by_position]
            u, v, keys = u[kept], v[kept], keys[kept]
            weights = weights[last[by_position]]
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
        held_keys, held_rows = self._sorted_rows()
        held = _member(held_keys, sorted_keys)
        if held.any():
            at = np.searchsorted(held_keys, sorted_keys[held])
            self._rows[held_rows[at], 2] = weights[order[held]]
            new = np.ones(len(keys), bool)
            new[order[held]] = False
            u, v, keys, weights = u[new], v[new], keys[new], weights[new]
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
        start = self._grow(len(keys))
        added = self._rows[start : self._size]
        added[:, 0] = u
        added[:, 1] = v
        added[:, 2] = weights
        rows = np.concatenate([held_rows, start + order])
        sorted_keys = np.concatenate([held_keys, sorted_keys])
        # Two sorted runs: a stable (run-merging) sort is linear here.
        merged = np.argsort(sorted_keys, kind="stable")
        self._order = (sorted_keys[merged], rows[merged])
        self._index = self._sorted = None

    def _grow(self, count: int) -> int:
        """Append ``count`` uninitialised rows; returns the first's number."""
        start = self._size
        if start + count > len(self._rows):
            rows = np.empty((max(start + count, 2 * len(self._rows)), 3))
            rows[:start] = self._rows[:start]
            self._rows = rows
        self._size = start + count
        return start

    def _live_rows(self) -> np.ndarray:
        if self._removed:
            return np.flatnonzero(self._rows[: self._size, 2] != 0)
        return np.arange(self._size)

    def _sorted_rows(self) -> tuple[np.ndarray, np.ndarray]:
        if self._order is None:
            live = self._live_rows()
            keys = self._keys(self._rows[live])
            order = np.argsort(keys, kind="stable")
            self._order = (keys[order], live[order])
        return self._order

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        return self._keys_of(rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64))

    def _keys_of(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return u * self._n + v


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of ``keys`` occur in the sorted array ``sorted_keys``."""
    if not len(sorted_keys):
        return np.zeros(len(keys), bool)
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[at] == keys
