"""Mixed-graph substrate: containers, Hermitian matrices, generators, netlists."""

from repro.graphs.mixed_graph import Edge, MixedGraph
from repro.graphs.hermitian import (
    DEFAULT_THETA,
    NORMALIZATIONS,
    hermitian_adjacency,
    hermitian_laplacian,
    laplacian_spectrum,
)
from repro.graphs.generators import (
    cyclic_flow_sbm,
    ensure_connected,
    mixed_sbm,
    random_mixed_graph,
    sparse_mixed_sbm,
)
from repro.graphs.netlist import GATE_TYPES, Gate, Netlist, synthetic_netlist
from repro.graphs.hypergraph import EXPANSIONS, Hypergraph, Net
from repro.graphs.bench_parser import (
    C17_BENCH,
    S27_BENCH,
    load_c17,
    load_s27,
    parse_bench,
    write_bench,
)
from repro.graphs import io

__all__ = [
    "Edge",
    "MixedGraph",
    "DEFAULT_THETA",
    "NORMALIZATIONS",
    "hermitian_adjacency",
    "hermitian_laplacian",
    "laplacian_spectrum",
    "cyclic_flow_sbm",
    "ensure_connected",
    "mixed_sbm",
    "random_mixed_graph",
    "sparse_mixed_sbm",
    "GATE_TYPES",
    "Gate",
    "Netlist",
    "synthetic_netlist",
    "EXPANSIONS",
    "Hypergraph",
    "Net",
    "C17_BENCH",
    "S27_BENCH",
    "load_c17",
    "load_s27",
    "parse_bench",
    "write_bench",
    "io",
]
