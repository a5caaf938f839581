"""Shared low-level utilities: RNG handling and linear-algebra helpers."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.linalg import (
    is_hermitian,
    next_power_of_two,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "is_hermitian",
    "next_power_of_two",
]
