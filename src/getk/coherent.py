"""Coherent states for distinguished observable algebras.

Provides spin-J systems with physically normalized angular momentum
generators, spin coherent states as extremal eigenvectors, group-orbit
sampling through the matrix exponential, and the two maximal-raw-purity
references: the highest-weight value for irreducibly represented Lie algebras
and a fixed-point estimate for every other space.  Both draw from the stdlib
``random.Random``, as do the seeded checks of ``reproduce``, so no purity or
reproduce command loads ``numpy.random``.
"""

import random
from dataclasses import dataclass, field

import numpy as np

from .operators import MAX_DIM, MAX_ENTRIES, ObservableSpace, QuantumState, assert_hermitian, kron_all

_MAX_FIXED_POINT_STEPS = 1000  # per restart; catalog algebras stop rising within 40 steps
_DEGENERATE_GAP = 1e-9  # top eigenvalue gap, relative to the spectral radius, below which it is shared


def _validate_spin(j) -> float:
    j = float(j)
    if 2 * j + 1 > MAX_DIM:
        raise ValueError(f"spin {j:g} has dimension {2 * j + 1:.0f}, above the supported {MAX_DIM}")
    if not j >= 0 or abs(2 * j - round(2 * j)) > 1e-12:  # not >= also rejects nan
        raise ValueError(f"spin must be a nonnegative half-integer, got {j}")
    return round(2 * j) / 2.0


@dataclass(frozen=True)
class SpinSystem:
    """Spin-J generators in the basis |J,J>, |J,J-1>, ..., |J,-J>.

    Physical normalization: jz has eigenvalues J, J-1, ..., -J and the
    ladder operators act with the standard sqrt(J(J+1) - m(m+1)) weights.
    """

    j: float
    jx: np.ndarray = field(repr=False)
    jy: np.ndarray = field(repr=False)
    jz: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return int(round(2 * self.j)) + 1

    @property
    def generators(self) -> list[np.ndarray]:
        return [self.jx, self.jy, self.jz]


def spin_basis_state(j, m) -> QuantumState:
    """The eigenstate |J, m> of jz in the basis of :class:`SpinSystem`, built without its
    generators.  J - m must be a whole number in [0, 2J], within the 1e-12 allowed 2J."""
    j = _validate_spin(j)
    dim = round(2 * j) + 1
    index = round(j - m, 0)  # a float: an infinite or nan m fails the range test
    if not 0 <= index < dim:
        raise ValueError(f"m={m} outside -J..J for J={j}")
    if abs(j - m - index) > 1e-12:
        raise ValueError(f"m={m} is not J minus a whole number for J={j}")
    return QuantumState.basis_state(dim, int(index))


def spin_system(j) -> SpinSystem:
    """Build the spin-J system of dimension 2J+1 from ladder operators."""
    j = _validate_spin(j)
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
    return SpinSystem(j=j, jx=jx, jy=jy, jz=jz)


def scs(system: SpinSystem, direction) -> QuantumState:
    """Spin coherent state: top eigenvector of n . J for a unit vector n.

    The phase is fixed by making the largest-magnitude amplitude real and
    positive.  The top eigenvalue is J and is simple for every unit n.
    """
    n = np.asarray(direction, dtype=float).reshape(3)
    if abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise ValueError(f"direction must be a unit vector, norm {np.linalg.norm(n)!r}")
    h = n[0] * system.jx + n[1] * system.jy + n[2] * system.jz
    evals, evecs = np.linalg.eigh(h)
    if system.dim > 1 and evals[-1] - evals[-2] < 1e-9:
        raise ValueError("top eigenvalue of n.J is degenerate")
    if abs(evals[-1] - system.j) > 1e-10:
        raise ValueError(f"top eigenvalue {evals[-1]} differs from J={system.j}")
    v = evecs[:, -1]
    k = int(np.argmax(np.abs(v)))
    v = v * (abs(v[k]) / v[k])
    resid = np.linalg.norm(h @ v - system.j * v)
    if resid > 1e-9:
        raise ValueError(f"coherent-state residual {resid:.3e} too large")
    return QuantumState(vector=v)


def orbit_sample(omega: ObservableSpace, reference: QuantumState, angles) -> QuantumState:
    """Apply exp(i sum_a angles[a] X_a) to a pure reference state."""
    if not reference.is_pure:
        raise ValueError("orbit sampling needs a pure reference state")
    h = assert_hermitian(omega.element(angles), tol=1e-10)
    w, evecs = np.linalg.eigh(h)
    u = (evecs * np.exp(1.0j * w)) @ evecs.conj().T  # exp(i h)
    v = u @ reference.vector
    return QuantumState(vector=v / np.linalg.norm(v))


def seeded_rng(seed: int) -> random.Random:
    """The seeded generator of both references and of the golden suite's seeded checks.

    Negative seeds are refused: ``random.Random`` would fold -s onto s.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return random.Random(seed)


def gaussians(rng: random.Random, n: int) -> np.ndarray:
    """n standard normal draws from ``rng``, in order."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(n)])


def _top_eigenvector(h: np.ndarray):
    """The unit eigenvector of the largest eigenvalue of ``h``, or None when that eigenvalue
    is degenerate and so picks no vector."""
    evals, evecs = np.linalg.eigh(h)
    if len(evals) > 1 and evals[-1] - evals[-2] <= _DEGENERATE_GAP * np.max(np.abs(evals)):
        return None
    return evecs[:, -1]


def highest_weight_purity(omega: ObservableSpace, seed: int = 0) -> float | None:
    """Raw purity of the top eigenvector of one seeded generic element sum_a c_a X_a.

    On a Lie algebra represented irreducibly, the maximal-purity states are the
    generalized coherent states, the orbit of a highest-weight vector (Perelomov
    1972; Klyachko, quant-ph/0206012; Barnum, Knill, Ortiz, Somma & Viola, PRL 92,
    107902 (2004)).  A generic element is regular, and its top eigenvector is a
    highest-weight vector for the Weyl chamber that holds it, so the value is the
    exact maximum.  It is the purity of an actual state, hence a lower bound on
    any space.  The element is a sum of ``site_element`` terms (a word space is one
    site), and its top eigenvector is the product of the site eigenvectors, so only
    D x D matrices are built.  Returns None when a top eigenvalue is degenerate.
    """
    rng = seeded_rng(seed)
    k = omega.size // omega.sites
    factors = [_top_eigenvector(omega.site_element(gaussians(rng, k))) for _ in range(omega.sites)]
    if any(f is None for f in factors):
        return None
    psi = kron_all(factors)
    vals = omega.expectation_vector(QuantumState(vector=psi))
    return float(np.dot(vals, vals))


def max_purity_estimate(omega: ObservableSpace, restarts: int = 32, seed: int = 0) -> float:
    """Maximize the raw purity sum_a <X_a>^2 over pure states by a fixed-point iteration.

    From each seeded random start, psi becomes the top eigenvector of
    H = sum_a <X_a>_psi X_a until the purity stops rising.  The purity is
    convex in rho and the new psi maximizes <H> over pure states, so no step
    lowers it; at a fixed point H psi = lambda psi, so the tangent part of the
    purity's gradient, 4 sum_a <X_a> X_a psi, vanishes.  Deterministic for a
    fixed seed; the returned value is a lower bound on the true maximum.
    The restarts run one after another: stacking their H matrices would hold
    restarts * dim^2 complex numbers at once.  Size x dim^2 over MAX_ENTRIES is refused.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if omega.size * omega.dim ** 2 > MAX_ENTRIES:
        raise ValueError(f"a numerical reference for {omega.size} observables of dimension "
                         f"{omega.dim} exceeds the supported {MAX_ENTRIES} size x dimension^2")
    rng = seeded_rng(seed)
    best = 0.0
    for _ in range(restarts):
        psi = gaussians(rng, 2 * omega.dim).view(complex)
        psi /= np.linalg.norm(psi)
        val = -1.0
        for _ in range(_MAX_FIXED_POINT_STEPS):
            h = omega.element(omega.coefficients(psi).real)
            step_val = float(np.vdot(psi, h @ psi).real)
            if step_val <= val:
                break
            val = step_val
            psi = np.linalg.eigh(h)[1][:, -1]
        best = max(best, val)
    if omega.traceless:
        bound = 1.0 - 1.0 / omega.dim
        if best > bound + 1e-8:
            raise AssertionError(f"purity estimate {best} exceeds the bound {bound}")
    return best
