"""Netlist hypergraphs and their expansions to mixed graphs.

A net in a circuit is a *hyperedge*: one driver, many sinks.  Partitioning
literature works on the hypergraph directly or expands it to a graph.  Two
standard expansions are provided, both directional-aware:

* **clique** — every pair of cells on a net is connected; driver→sink
  pairs become arcs, sink–sink pairs undirected edges, with the usual
  1/(|e|−1) weight normalization so large nets don't dominate;
* **star**  — the driver connects to each sink with an arc (no sink–sink
  coupling); lighter, preserves only the flow structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import GraphError
from repro.graphs.mixed_graph import MixedGraph
from repro.graphs.netlist import Netlist

EXPANSIONS = ("clique", "star")


@dataclass(frozen=True)
class Net:
    """One hyperedge: a driver cell and its sink cells (indices)."""

    driver: int
    sinks: tuple[int, ...]
    weight: float = 1.0

    def __post_init__(self):
        if not self.sinks:
            raise GraphError(f"net driven by {self.driver} has no sinks")
        if self.driver in self.sinks:
            raise GraphError("driver cannot be its own sink")
        if len(set(self.sinks)) != len(self.sinks):
            raise GraphError("duplicate sinks on one net")
        if self.weight <= 0:
            raise GraphError(f"net weight must be positive, got {self.weight}")

    @property
    def pins(self) -> tuple[int, ...]:
        """All cells on the net, driver first."""
        return (self.driver, *self.sinks)

    @property
    def size(self) -> int:
        """Pin count |e|."""
        return 1 + len(self.sinks)


class Hypergraph:
    """A directed netlist hypergraph on ``num_cells`` cells."""

    def __init__(self, num_cells: int, nets=None):
        if num_cells < 1:
            raise GraphError(f"need at least one cell, got {num_cells}")
        self.num_cells = int(num_cells)
        self._nets: list[Net] = []
        for net in nets or []:
            self.add_net(net)

    def add_net(self, net: Net) -> None:
        """Add a validated net."""
        for pin in net.pins:
            if not 0 <= pin < self.num_cells:
                raise GraphError(f"pin {pin} out of range")
        self._nets.append(net)

    @property
    def nets(self) -> tuple[Net, ...]:
        """All nets (immutable view)."""
        return tuple(self._nets)

    @property
    def num_nets(self) -> int:
        """Hyperedge count."""
        return len(self._nets)

    @property
    def num_pins(self) -> int:
        """Total pin count Σ|e| — the standard size measure of a netlist."""
        return sum(net.size for net in self._nets)

    @classmethod
    def from_netlist(cls, netlist: Netlist, include_inputs: bool = True):
        """Group a netlist's driver→sink relations into hyperedges."""
        netlist.validate()
        kept = [g for g in netlist.gates if include_inputs or g.gate_type != "INPUT"]
        index = {g.name: i for i, g in enumerate(kept)}
        sinks_of: dict[str, list[int]] = {}
        for gate in kept:
            for net_name in gate.inputs:
                if net_name in index and index[net_name] != index[gate.name]:
                    sinks_of.setdefault(net_name, []).append(index[gate.name])
        hypergraph = cls(len(kept))
        for net_name, sinks in sinks_of.items():
            unique = tuple(dict.fromkeys(sinks))
            hypergraph.add_net(Net(driver=index[net_name], sinks=unique))
        return hypergraph

    # -- expansions ----------------------------------------------------------

    def to_mixed_graph(self, expansion: str = "clique") -> MixedGraph:
        """Expand to a mixed graph (weights accumulate across nets).

        ``clique``: each net contributes weight w/(|e|−1) per cell pair —
        arcs for driver→sink, undirected edges for sink–sink.
        ``star``: driver→sink arcs of weight w only.
        """
        if expansion not in EXPANSIONS:
            raise GraphError(
                f"expansion must be one of {EXPANSIONS}, got {expansion!r}"
            )
        arc_weight: dict[tuple[int, int], float] = {}
        edge_weight: dict[tuple[int, int], float] = {}
        for net in self._nets:
            if expansion == "star":
                for sink in net.sinks:
                    key = (net.driver, sink)
                    arc_weight[key] = arc_weight.get(key, 0.0) + net.weight
                continue
            scale = net.weight / (net.size - 1)
            for sink in net.sinks:
                key = (net.driver, sink)
                arc_weight[key] = arc_weight.get(key, 0.0) + scale
            for i, a in enumerate(net.sinks):
                for b in net.sinks[i + 1 :]:
                    key = (min(a, b), max(a, b))
                    edge_weight[key] = edge_weight.get(key, 0.0) + scale
        graph = MixedGraph(self.num_cells)
        # Undirected mass wins conflicts: a pair coupled both ways is a
        # physical bidirectional relation.
        for (u, v), w in sorted(edge_weight.items()):
            graph.add_edge(u, v, w)
        for (u, v), w in sorted(arc_weight.items()):
            if graph.has_edge(u, v):
                continue  # the pair is already physically bidirectional
            graph.add_arc(u, v, w)  # antiparallel pairs merge to an edge
        return graph

    def __repr__(self) -> str:
        return (
            f"Hypergraph(cells={self.num_cells}, nets={self.num_nets}, "
            f"pins={self.num_pins})"
        )
