"""Chiral quantum walks: *why* the Hermitian Laplacian sees direction.

The clustering paper's core trick — encoding arc direction in complex
phases so the matrix stays Hermitian — has a direct dynamical meaning: a
continuous-time quantum walk driven by the Hermitian adjacency transports
probability *asymmetrically* along arcs ("chiral quantum walks",
Zimborás et al. 2013).  No classical random walk on a symmetric matrix can
do this, and it is exactly the information the spectral embedding picks up.

The demo also shows the gauge subtlety: chirality is a *flux* effect.  On
a directed n-cycle the accumulated phase is n·θ; when that is 0 or π
(mod 2π) the walk is gauge-equivalent to an undirected one and the bias
vanishes identically — compare the n = 3 and n = 4 rows.  The script
asserts both regimes, and that the undirected walk spreads
mirror-symmetrically, so it exits non-zero if any of these fails.

Run:  python examples/chiral_walks.py
"""

import numpy as np

from repro.graphs import DEFAULT_THETA, MixedGraph, hermitian_adjacency
from repro.quantum.hamiltonian import SpectralDecomposition


class QuantumWalk:
    """Continuous-time quantum walk under U(t) = exp(−iHt), H the Hermitian
    adjacency of a mixed graph with arc phase ``theta``."""

    def __init__(self, graph: MixedGraph, theta: float = DEFAULT_THETA):
        adjacency = hermitian_adjacency(graph, theta)
        self._decomposition = SpectralDecomposition.of(adjacency)

    def probability_profile(self, source: int, time: float) -> np.ndarray:
        """Occupation probabilities over all nodes after walking ``time``
        from ``source``."""
        unitary = self._decomposition.evolution(-time)  # exp(-iHt)
        return np.abs(unitary[:, source]) ** 2


def directional_transport_bias(
    graph: MixedGraph,
    source: int,
    forward: int,
    backward: int,
    time: float,
    theta: float = DEFAULT_THETA,
) -> float:
    """P(source→forward) − P(source→backward) at one walk time.

    The sign depends on the e^{−iHt} / +i-phase conventions; the physically
    meaningful statement is whether |bias| > 0.
    """
    profile = QuantumWalk(graph, theta=theta).probability_profile(source, time)
    return float(profile[forward] - profile[backward])


def directed_cycle(num_nodes: int) -> MixedGraph:
    """A directed n-cycle 0 → 1 → ... → n−1 → 0."""
    graph = MixedGraph(num_nodes)
    for node in range(num_nodes):
        graph.add_arc(node, (node + 1) % num_nodes)
    return graph


def bias_table():
    print("directed n-cycle, theta = pi/2, walk time t = 1.0")
    print(f"{'n':>3} {'flux n·θ mod 2π':>16} {'|bias|':>10}")
    for n in (3, 4, 5, 6, 7, 8):
        flux = (n * np.pi / 2) % (2 * np.pi)
        bias = directional_transport_bias(
            directed_cycle(n), source=0, forward=1, backward=n - 1, time=1.0
        )
        print(f"{n:>3} {flux:>16.3f} {abs(bias):>10.4f}")
        if np.isclose(flux, 0.0) or np.isclose(flux, np.pi):
            # gauge-equivalent to the undirected cycle: no chirality
            assert abs(bias) < 1e-9, f"n={n}: bias {bias:.3g} at flux {flux:.3f}"
        else:
            assert abs(bias) > 1e-3, f"n={n}: no chirality at flux {flux:.3f}"


def spreading_comparison():
    print("\nprobability profile on a 7-cycle after t = 2.0")
    directed = QuantumWalk(directed_cycle(7))
    undirected_graph = MixedGraph(7)
    for node in range(7):
        undirected_graph.add_edge(node, (node + 1) % 7)
    undirected = QuantumWalk(undirected_graph)
    d_profile = directed.probability_profile(0, 2.0)
    u_profile = undirected.probability_profile(0, 2.0)
    print(f"{'node':>5} {'directed':>10} {'undirected':>11}")
    for node in range(7):
        print(f"{node:>5} {d_profile[node]:>10.4f} {u_profile[node]:>11.4f}")
    print(
        "undirected profile is mirror-symmetric "
        f"(node1 − node6 = {u_profile[1] - u_profile[6]:+.2e}); "
        "the directed one is not "
        f"(node1 − node6 = {d_profile[1] - d_profile[6]:+.2e})"
    )
    # time-reversal symmetry: node j and node 7 − j are equally likely
    assert np.allclose(u_profile[1:], u_profile[:0:-1], atol=1e-9), u_profile


def theta_sweep():
    print("\nbias versus theta on the 3-cycle (t = 1.0)")
    cycle = directed_cycle(3)
    for theta in (0.1, np.pi / 4, np.pi / 2, 3 * np.pi / 4):
        bias = directional_transport_bias(cycle, 0, 1, 2, time=1.0, theta=theta)
        print(f"theta = {theta:>5.3f}: bias = {bias:+.4f}")


if __name__ == "__main__":
    bias_table()
    spreading_comparison()
    theta_sweep()
