"""Random-number-generator plumbing.

Every stochastic component in the library takes a ``seed`` argument that may
be ``None``, an integer, or an already-constructed
:class:`numpy.random.Generator`.  Centralising the coercion here keeps the
whole pipeline reproducible: experiments pass integers, tests pass
generators, and library code never calls the global NumPy RNG.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | None | np.random.Generator"


def ensure_rng(seed=None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, or an existing
        ``Generator`` (returned unchanged so state is shared).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from one seed.

    Uses :class:`numpy.random.SeedSequence` spawning so per-trial streams do
    not overlap, which keeps multi-seed experiment tables reproducible even
    if individual trials are reordered.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        return [
            np.random.default_rng(s)
            for s in seed.bit_generator.seed_seq.spawn(count)
        ]
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]

