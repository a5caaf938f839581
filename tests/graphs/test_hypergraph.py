"""Tests for the netlist hypergraph model and its expansions."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs import Hypergraph, Net, load_c17, load_s27


class TestNet:
    def test_pins_and_size(self):
        net = Net(driver=0, sinks=(1, 2))
        assert net.pins == (0, 1, 2)
        assert net.size == 3

    def test_validation(self):
        with pytest.raises(GraphError):
            Net(driver=0, sinks=())
        with pytest.raises(GraphError):
            Net(driver=0, sinks=(0,))
        with pytest.raises(GraphError):
            Net(driver=0, sinks=(1, 1))
        with pytest.raises(GraphError):
            Net(driver=0, sinks=(1,), weight=0.0)


class TestHypergraph:
    def test_from_c17(self):
        hg = Hypergraph.from_netlist(load_c17())
        assert hg.num_cells == 11
        assert hg.num_nets == 9  # 5 inputs (G1,G2,G3,G6,G7) + G10,G11,G16,G19
        assert hg.num_pins == 21

    def test_nets_is_an_immutable_view_in_insertion_order(self):
        hg = Hypergraph(4)
        first, second = Net(driver=0, sinks=(1, 2)), Net(driver=3, sinks=(0,))
        hg.add_net(first)
        hg.add_net(second)
        nets = hg.nets
        assert nets == (first, second)
        with pytest.raises(TypeError):
            nets[0] = second
        hg.add_net(Net(driver=1, sinks=(2,)))
        assert len(nets) == 2 and hg.num_nets == 3

    def test_from_s27_sequential(self):
        hg = Hypergraph.from_netlist(load_s27())
        assert hg.num_cells == 17
        assert hg.num_nets > 10

    def test_pin_range_validated(self):
        hg = Hypergraph(3)
        with pytest.raises(GraphError):
            hg.add_net(Net(driver=0, sinks=(5,)))

    def test_zero_cells_rejected(self):
        with pytest.raises(GraphError):
            Hypergraph(0)

    def test_repr(self):
        hg = Hypergraph(4, [Net(0, (1, 2))])
        assert "cells=4" in repr(hg)


class TestExpansions:
    def two_net_hypergraph(self):
        # net A: 0 -> {1, 2};  net B: 3 -> {1}
        return Hypergraph(4, [Net(0, (1, 2)), Net(3, (1,))])

    def test_clique_creates_sink_edges(self):
        graph = self.two_net_hypergraph().to_mixed_graph("clique")
        assert graph.has_arc(0, 1) and graph.has_arc(0, 2)
        assert graph.has_edge(1, 2)  # sink-sink coupling
        assert graph.has_arc(3, 1)

    def test_clique_weights_normalized(self):
        graph = self.two_net_hypergraph().to_mixed_graph("clique")
        # net A has |e| = 3, so each pair carries weight 1/2
        h = graph.directed_adjacency()
        assert np.isclose(h[0, 1], 0.5)
        assert np.isclose(h[3, 1], 1.0)  # two-pin net keeps full weight

    def test_star_has_no_sink_edges(self):
        graph = self.two_net_hypergraph().to_mixed_graph("star")
        assert graph.num_edges == 0
        assert graph.num_arcs == 3

    def test_unknown_expansion_rejected(self):
        with pytest.raises(GraphError):
            self.two_net_hypergraph().to_mixed_graph("tree")

    def test_c17_expansions_agree_with_netlist_converter(self):
        netlist = load_c17()
        via_hypergraph = Hypergraph.from_netlist(netlist).to_mixed_graph("star")
        via_netlist = netlist.to_mixed_graph(net_cliques=False)
        assert via_hypergraph.num_nodes == via_netlist.num_nodes
        assert via_hypergraph.num_arcs == via_netlist.num_arcs

    def test_antiparallel_flows_merge(self):
        hg = Hypergraph(2, [Net(0, (1,)), Net(1, (0,))])
        graph = hg.to_mixed_graph("star")
        assert graph.num_arcs == 0
        assert graph.has_edge(0, 1)


class TestS27:
    def test_s27_loads_and_validates(self):
        netlist = load_s27()
        netlist.validate()
        assert netlist.num_gates == 17

    def test_s27_has_sequential_elements(self):
        graph = load_s27().to_mixed_graph(net_cliques=False)
        # three DFFs -> three undirected fan-in couplings
        assert graph.num_edges == 3
        assert graph.num_arcs > 10

    def test_s27_roundtrip(self):
        from repro.graphs import parse_bench, write_bench

        netlist = load_s27()
        back = parse_bench(write_bench(netlist), name="s27rt")
        assert sorted(back.gate_names()) == sorted(netlist.gate_names())
