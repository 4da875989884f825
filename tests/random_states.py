"""Seeded random states, and the maximally mixed state, shared by the test modules."""

import numpy as np

from getk.operators import QuantumState


def random_pure_state(dim: int, rng) -> QuantumState:
    """A Gaussian-drawn unit vector from a ``numpy.random.Generator``."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState(vector=v / np.linalg.norm(v))


def random_density_state(dim: int, rng, rank: int | None = None) -> QuantumState:
    """A Wishart-drawn density matrix of the given rank (full rank by default)."""
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return QuantumState(rho=m / np.trace(m).real)


def maximally_mixed(dim: int) -> QuantumState:
    return QuantumState(rho=np.eye(dim, dtype=complex) / dim)
