"""Per-row draw streams: a batch equals a per-row scalar loop.

Every row of the readout draws only from its own generator, in the order
the scalar APIs take their draws, so a batched pass must reproduce a loop
over rows bit for bit.  These tests pin that for the tomography batch and
for the readout stage's row spans.
"""

import numpy as np
import pytest

from repro.core.projection import accepted_outcomes
from repro.core.qpe_engine import AnalyticQPEBackend
from repro.core.readout import batched_readout, readout_span
from repro.graphs import hermitian_laplacian, mixed_sbm
from repro.quantum.measurement import tomography_estimate, tomography_estimate_batch
from repro.utils.rng import spawn_rngs


class TestTomographyBatchIsAPerRowLoop:
    @pytest.fixture()
    def states(self):
        rng = np.random.default_rng(11)
        return rng.normal(size=(120, 32)) + 1j * rng.normal(size=(120, 32))

    @pytest.mark.parametrize("shots", [0, 1, 128])
    def test_batch_equals_scalar_loop(self, states, shots):
        batch = tomography_estimate_batch(
            states, shots, spawn_rngs(9, states.shape[0])
        )
        loop_rngs = spawn_rngs(9, states.shape[0])
        loop = np.stack(
            [
                tomography_estimate(state, shots, seed=rng)
                for state, rng in zip(states, loop_rngs)
            ]
        )
        assert np.array_equal(batch, loop)

    def test_rows_draw_only_from_their_own_stream(self, states):
        """Reversing the rows (and their generators) reverses the output."""
        forward = tomography_estimate_batch(
            states, 128, spawn_rngs(9, states.shape[0])
        )
        backward = tomography_estimate_batch(
            states[::-1], 128, spawn_rngs(9, states.shape[0])[::-1]
        )
        assert np.array_equal(forward, backward[::-1])


class TestReadoutSpans:
    @pytest.fixture()
    def backend(self):
        graph, _ = mixed_sbm(24, 2, p_intra=0.6, p_inter=0.05, seed=2)
        return AnalyticQPEBackend(hermitian_laplacian(graph), 5)

    def test_spans_of_the_row_layout_rebuild_the_readout(self, backend):
        accepted = accepted_outcomes(0.5, 5, backend.lambda_scale)
        whole = batched_readout(backend, accepted, 256, 31, canonical_phases=False)
        rngs = spawn_rngs(31, backend.num_nodes)
        parts = [
            readout_span(backend, accepted, 256, rngs[start:stop], start, stop)
            for start, stop in ((0, 10), (10, 24))
        ]
        for index, field in enumerate(("rows", "norms", "probabilities")):
            merged = np.concatenate([part[index] for part in parts])
            assert np.array_equal(merged, getattr(whole, field)), field
