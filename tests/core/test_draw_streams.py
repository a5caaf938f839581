"""Per-row draw streams: a batch equals a per-row scalar loop.

Every row of the readout draws only from its own generator, in the order
the scalar APIs take their draws, so a batched pass must reproduce a loop
over rows bit for bit.  These tests pin that for the tomography batch.
"""

import numpy as np
import pytest

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

