"""Seeded random states, the maximally mixed state, a perturbed builtin and the local purity
formula, shared by the test modules."""

import numpy as np

from getk import states
from getk.operators import DimensionMismatch, QuantumState, partial_trace


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


def local_purity_formula(psi: QuantumState, n: int, d0: int) -> float:
    """Average-subsystem-purity form of the local purity of a pure state: the oracle of
    ``rescaled_purity`` on ``local:NxD`` and of ``meyer_wallach_q``.

    (d0/(d0-1)) ((1/n) sum_l Tr(rho_l^2) - 1/d0), computed by partial
    traces over the n isodimensional factors.
    """
    if not psi.is_pure:
        raise ValueError("the local purity formula applies to pure states")
    if d0 ** n != psi.dim:
        raise DimensionMismatch(f"state dim {psi.dim} is not {d0}^{n}")
    dims = [d0] * n
    avg = np.mean([partial_trace(psi, dims, [l]).purity() for l in range(n)])
    return float(d0 / (d0 - 1) * (avg - 1.0 / d0))
