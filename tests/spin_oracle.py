"""Dense spin-J oracles for the tests: the generators filled in entry by entry, and the spin
coherent state as the top eigenvector of n . J.

These are the constructions that ``operators.spin_generators`` (two bands) and
``coherent.scs`` (closed form) replace, kept here so that tests can hold the library to them.
"""

import numpy as np

from getk.operators import QuantumState, checked_spin

# every half-integer J from 1/2 to 13, and the largest spin under MAX_DIM
ORACLE_SPINS = [k / 2 for k in range(1, 27)] + [511.5]


def dense_spin_generators(j) -> list[np.ndarray]:
    """[J_x, J_y, J_z] of spin J in the basis |J,J>, ..., |J,-J>, one ladder entry at a time."""
    j = checked_spin(j)
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)  # m values top-down: J, J-1, ..., -J
    jz = np.diag(m).astype(complex)
    jplus = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        # |J, m[k]> -> sqrt(J(J+1) - m(m+1)) |J, m[k]+1>
        jplus[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jminus = jplus.conj().T
    jx = 0.5 * (jplus + jminus)
    jy = -0.5j * (jplus - jminus)
    return [jx, jy, jz]


def eigh_scs(j, direction) -> QuantumState:
    """Top eigenvector of n . J for a unit vector n, its largest-magnitude amplitude (the first
    within a relative 1e-12 of the largest) made real and positive; refused when the top
    eigenvalue is degenerate, is not J, or leaves a residual."""
    j = checked_spin(j)
    jx, jy, jz = dense_spin_generators(j)
    n = np.asarray(direction, dtype=float).reshape(3)
    if abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise ValueError(f"direction must be a unit vector, norm {np.linalg.norm(n)!r}")
    h = n[0] * jx + n[1] * jy + n[2] * jz
    evals, evecs = np.linalg.eigh(h)
    if len(evals) > 1 and evals[-1] - evals[-2] < 1e-9:
        raise ValueError("top eigenvalue of n.J is degenerate")
    if abs(evals[-1] - j) > 1e-10:
        raise ValueError(f"top eigenvalue {evals[-1]} differs from J={j}")
    v = evecs[:, -1]
    size = np.abs(v)
    k = int(np.argmax(size >= size.max() * (1 - 1e-12)))  # the first of the largest
    v = v * (abs(v[k]) / v[k])
    resid = np.linalg.norm(h @ v - j * v)
    if resid > 1e-9:
        raise ValueError(f"coherent-state residual {resid:.3e} too large")
    return QuantumState(vector=v)
