"""Seeded random states shared by the test modules."""

import numpy as np

from getk.operators import QuantumState


def random_pure_state(dim: int, rng) -> QuantumState:
    """A Gaussian-drawn unit vector from a ``numpy.random.Generator``."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState(vector=v / np.linalg.norm(v))
