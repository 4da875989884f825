"""Seeded random states, the maximally mixed state and a perturbed builtin, shared by the
test modules."""

import numpy as np

from getk import states
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


def perturbed_builtins(target: str):
    """A ``states.builtin_state`` that moves the pure builtin ``target`` off its golden values."""
    real = states.builtin_state

    def builtin_state(name: str) -> QuantumState:
        st = real(name)
        if name != target:
            return st
        v = st.vector
        v[0] += 0.1
        v[1] += 0.05
        return QuantumState(vector=v / np.linalg.norm(v))

    return builtin_state
