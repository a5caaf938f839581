"""Versioned-generator contract tests.

Three guarantees are pinned here:

1. ``generator_version="v1"`` (the default) is *byte-stable*: at a fixed
   seed its output matches checksums recorded from the pre-versioning
   code, edge for edge, weight for weight.
2. ``generator_version="v2"`` samples the *same distribution* on a new
   stream layout: edge densities, directed fractions and the directional
   signal agree with v1 statistically, and downstream clustering recovers
   the planted structure equally well.
3. The version knob is validated by the generators, taken by every sweep
   spec, and recorded in sweep artifacts.
"""

import hashlib

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs import cyclic_flow_sbm, mixed_sbm
from repro.graphs.generators import GENERATOR_VERSIONS
from repro.metrics import adjusted_rand_index
from repro.spectral import ClassicalSpectralClustering


def graph_digest(graph) -> str:
    """Checksum of the full connection list (order, weights, kinds)."""
    digest = hashlib.blake2b(digest_size=16)
    for edge in graph.edges():
        digest.update(
            f"{edge.u},{edge.v},{edge.weight},{edge.directed};".encode()
        )
    return digest.hexdigest()


class TestV1ByteStability:
    """v1 output is byte-identical to the pre-versioning generators.

    The checksums below were recorded from the repository state *before*
    the ``generator_version`` knob existed (PR 3 HEAD); any drift in the
    v1 stream layout — an extra draw, a reordered loop — fails here.
    """

    MIXED_GOLDEN = {
        (30, 3, 0): "1c91339eb70b749928fbeced7a9a0cd3",
        (61, 2, 7): "2f9182f5e733bef6809dbac99c1d9567",
        (48, 4, 123): "3b7f2aa485482d80a4477731367b78e3",
    }
    CYCLIC_GOLDEN = {
        (30, 3, 0): "2141527d63a2d976c4c2dea1faf8ea9c",
        (45, 5, 11): "c9b1a4981fd54dc70f65dde35f5524f8",
    }

    @pytest.mark.parametrize("case", sorted(MIXED_GOLDEN))
    def test_mixed_sbm_golden(self, case):
        n, k, seed = case
        graph, _ = mixed_sbm(n, k, seed=seed)
        assert graph_digest(graph) == self.MIXED_GOLDEN[case]

    @pytest.mark.parametrize("case", sorted(CYCLIC_GOLDEN))
    def test_cyclic_flow_sbm_golden(self, case):
        n, k, seed = case
        graph, _ = cyclic_flow_sbm(n, k, seed=seed)
        assert graph_digest(graph) == self.CYCLIC_GOLDEN[case]

    def test_mixed_sbm_custom_parameters_golden(self):
        graph, _ = mixed_sbm(
            40,
            2,
            p_intra=0.5,
            p_inter=0.1,
            intra_directed_fraction=0.3,
            inter_directed_fraction=0.7,
            seed=9,
        )
        assert graph_digest(graph) == "bdf50483736b74b99b3c665a482145cd"

    def test_cyclic_intra_directed_golden(self):
        graph, _ = cyclic_flow_sbm(
            36,
            3,
            density=0.3,
            direction_strength=0.8,
            intra_directed=True,
            seed=5,
        )
        assert graph_digest(graph) == "9ca1c97dd45141b5d29cfae746651225"

    def test_default_version_is_v1(self):
        explicit, _ = mixed_sbm(30, 3, seed=0, generator_version="v1")
        default, _ = mixed_sbm(30, 3, seed=0)
        assert graph_digest(explicit) == graph_digest(default)


class TestV2Determinism:
    def test_v2_reproducible_at_fixed_seed(self):
        first, _ = mixed_sbm(60, 3, seed=4, generator_version="v2")
        second, _ = mixed_sbm(60, 3, seed=4, generator_version="v2")
        assert graph_digest(first) == graph_digest(second)
        first, _ = cyclic_flow_sbm(60, 3, seed=4, generator_version="v2")
        second, _ = cyclic_flow_sbm(60, 3, seed=4, generator_version="v2")
        assert graph_digest(first) == graph_digest(second)

    def test_v2_labels_match_v1(self):
        _, labels_v1 = mixed_sbm(61, 4, seed=0, generator_version="v1")
        _, labels_v2 = mixed_sbm(61, 4, seed=0, generator_version="v2")
        assert np.array_equal(labels_v1, labels_v2)

    def test_unknown_version_rejected(self):
        with pytest.raises(GraphError):
            mixed_sbm(10, 2, generator_version="v3")
        with pytest.raises(GraphError):
            cyclic_flow_sbm(10, 2, generator_version="")


class TestV2StatisticalEquivalence:
    """v2 draws the same per-pair law as v1 — totals must agree closely."""

    def _totals(self, fn, version, seeds, **kwargs):
        edges, arcs = [], []
        for seed in seeds:
            graph, _ = fn(seed=seed, generator_version=version, **kwargs)
            edges.append(graph.num_edges)
            arcs.append(graph.num_arcs)
        return float(np.mean(edges)), float(np.mean(arcs))

    def test_mixed_sbm_densities(self):
        seeds = range(8)
        kwargs = dict(num_nodes=120, num_clusters=3)
        e1, a1 = self._totals(mixed_sbm, "v1", seeds, **kwargs)
        e2, a2 = self._totals(mixed_sbm, "v2", seeds, **kwargs)
        assert abs(e1 - e2) <= 0.12 * e1
        assert abs(a1 - a2) <= 0.15 * a1

    def test_cyclic_flow_densities(self):
        seeds = range(8)
        kwargs = dict(num_nodes=120, num_clusters=3, intra_directed=True)
        e1, a1 = self._totals(cyclic_flow_sbm, "v1", seeds, **kwargs)
        e2, a2 = self._totals(cyclic_flow_sbm, "v2", seeds, **kwargs)
        assert e1 == e2 == 0  # every connection is an arc in this mode
        assert abs(a1 - a2) <= 0.1 * a1

    def test_cyclic_flow_direction_signal(self):
        """The share of boundary arcs oriented forward matches strength."""

        def forward_share(version):
            shares = []
            for seed in range(6):
                graph, labels = cyclic_flow_sbm(
                    90,
                    3,
                    direction_strength=0.9,
                    seed=seed,
                    generator_version=version,
                )
                forward = backward = 0
                for edge in graph.edges():
                    if not edge.directed:
                        continue
                    cu, cv = labels[edge.u], labels[edge.v]
                    if cu == cv:
                        continue
                    if (cu + 1) % 3 == cv:
                        forward += 1
                    else:
                        backward += 1
                shares.append(forward / max(forward + backward, 1))
            return float(np.mean(shares))

        share_v1 = forward_share("v1")
        share_v2 = forward_share("v2")
        assert abs(share_v1 - 0.9) < 0.06
        assert abs(share_v2 - 0.9) < 0.06

    def test_downstream_clustering_equivalent(self):
        """Classical Hermitian clustering recovers structure under both."""

        def mean_ari(version):
            scores = []
            for seed in range(4):
                graph, truth = mixed_sbm(
                    72,
                    3,
                    p_intra=0.45,
                    p_inter=0.04,
                    seed=seed,
                    generator_version=version,
                )
                labels = (
                    ClassicalSpectralClustering(3, seed=seed)
                    .fit(graph)
                    .labels
                )
                scores.append(adjusted_rand_index(truth, labels))
            return float(np.mean(scores))

        ari_v1 = mean_ari("v1")
        ari_v2 = mean_ari("v2")
        assert ari_v1 > 0.8
        assert ari_v2 > 0.8
        assert abs(ari_v1 - ari_v2) < 0.15


class TestVersionPlumbing:
    def test_sweep_rejects_unknown_version(self):
        """The version reaches the generators, which reject an unknown one."""
        from repro.experiments import fig1_direction_sweep
        from repro.experiments.runner import SweepRunner

        spec = fig1_direction_sweep.spec(
            strengths=(1.0,), num_nodes=18, trials=1, generator_version="v99"
        )
        with pytest.raises(GraphError, match="v99"):
            SweepRunner(spec).run()

    def test_sweep_artifact_records_version(self):
        from repro.experiments import fig1_direction_sweep
        from repro.experiments.runner import SweepRunner

        spec = fig1_direction_sweep.spec(
            strengths=(1.0,),
            num_nodes=18,
            trials=1,
            shots=64,
            generator_version="v2",
        )
        artifact = SweepRunner(spec).run().to_artifact()
        assert artifact["spec"]["fixed"]["generator_version"] == "v2"

    def test_every_registered_spec_accepts_the_knob(self):
        from repro.experiments.runner import registry

        for name, factory in registry().items():
            spec = factory(generator_version="v2")
            assert spec.fixed["generator_version"] == "v2", name


class TestSparseMixedSBMVersions:
    """``sparse_mixed_sbm``'s version contract: byte-stable v1, draw-exact v2."""

    SPARSE_GOLDEN = {
        (200, 2, 0): "8ea04a45bf229d9ea598515293eff556",
        (300, 3, 9): "675be8413eafc975cd89a3a55eac6278",
        (500, 4, 42): "2592c77c61d5b0a5771ced18e52adb83",
    }

    @pytest.mark.parametrize("case", sorted(SPARSE_GOLDEN))
    def test_v1_golden(self, case):
        from repro.graphs import sparse_mixed_sbm

        n, k, seed = case
        graph, _ = sparse_mixed_sbm(n, k, seed=seed)
        assert graph_digest(graph) == self.SPARSE_GOLDEN[case]

    def test_default_version_is_v1(self):
        from repro.graphs import sparse_mixed_sbm

        explicit, _ = sparse_mixed_sbm(200, 2, seed=1, generator_version="v1")
        default, _ = sparse_mixed_sbm(200, 2, seed=1)
        assert graph_digest(explicit) == graph_digest(default)

    def test_v2_reproducible_and_labels_match(self):
        from repro.graphs import sparse_mixed_sbm

        first, labels_a = sparse_mixed_sbm(250, 3, seed=6, generator_version="v2")
        second, labels_b = sparse_mixed_sbm(250, 3, seed=6, generator_version="v2")
        assert graph_digest(first) == graph_digest(second)
        assert np.array_equal(labels_a, labels_b)

    def test_unknown_version_rejected(self):
        from repro.graphs import sparse_mixed_sbm

        with pytest.raises(GraphError):
            sparse_mixed_sbm(50, 2, generator_version="v3")

    def test_v2_is_draw_exact(self):
        """v2 block edge counts equal the binomial draws exactly.

        Replaying the v2 generator's RNG stream reproduces each block's
        binomial edge-count draw; the graph must contain exactly the total
        — no duplicate-removal shortfall.  Dense-ish settings make
        duplicate collisions (and hence a v1 shortfall) near-certain.
        """
        from repro.graphs import sparse_mixed_sbm
        from repro.graphs.generators import _cluster_sizes

        n, k, seed = 60, 2, 3
        kwargs = dict(avg_intra_degree=25.0, avg_inter_degree=12.0)
        graph, _ = sparse_mixed_sbm(n, k, seed=seed, generator_version="v2", **kwargs)

        sizes = _cluster_sizes(n, k)
        mean_size = n / k
        p_intra = min(1.0, kwargs["avg_intra_degree"] / max(mean_size - 1.0, 1.0))
        p_inter = min(1.0, kwargs["avg_inter_degree"] / max(n - mean_size, 1.0))
        replay = np.random.default_rng(seed)
        expected_total = 0
        for a in range(k):
            for b in range(a, k):
                if a == b:
                    num_pairs = sizes[a] * (sizes[a] - 1) // 2
                    p = p_intra
                else:
                    num_pairs = sizes[a] * sizes[b]
                    p = p_inter
                count = int(replay.binomial(num_pairs, p))
                expected_total += count
                # burn the remaining draws of this block exactly as the
                # generator consumes them: top-up index draws, then the
                # directed and orientation arrays
                picks = np.unique(replay.integers(0, num_pairs, size=count))
                while picks.size < count:
                    extra = replay.integers(0, num_pairs, size=count - picks.size)
                    picks = np.unique(np.concatenate([picks, extra]))
                directed = replay.random(picks.size) < (0.1 if a == b else 0.9)
                if a == b:
                    replay.random(picks.size)  # orientation flips
        assert graph.num_edges + graph.num_arcs == expected_total

    def test_v1_undersamples_where_v2_is_exact(self):
        """At dense settings v1's duplicate removal loses edges; v2 never."""
        from repro.graphs import sparse_mixed_sbm

        totals = {version: 0 for version in GENERATOR_VERSIONS}
        for seed in range(6):
            for version in GENERATOR_VERSIONS:
                graph, _ = sparse_mixed_sbm(
                    60,
                    2,
                    avg_intra_degree=25.0,
                    avg_inter_degree=12.0,
                    seed=seed,
                    generator_version=version,
                )
                totals[version] += graph.num_edges + graph.num_arcs
        assert totals["v2"] > totals["v1"]

    def test_distinct_pair_indices_exact_and_bounded(self):
        from repro.graphs.generators import _distinct_pair_indices

        rng = np.random.default_rng(0)
        picks = _distinct_pair_indices(rng, 100, 90)
        assert picks.size == 90
        assert np.unique(picks).size == 90
        assert picks.min() >= 0 and picks.max() < 100
        with pytest.raises(GraphError):
            _distinct_pair_indices(rng, 10, 11)
