"""Coherent states for distinguished observable algebras.

Provides the physically normalized spin-J angular momentum generators, built
from their two bands, the |J, m> basis states, spin coherent states in closed
form, group-orbit sampling through the matrix exponential, and the three
maximal-raw-purity references: the highest-weight state, whose raw purity is
the reference of an irreducibly represented Lie algebra, the stabilizer value
for word spaces whose exact bracket closes, and a fixed-point estimate for a space
that gets neither and carries no maximum.  The two that sample draw from the stdlib
``random.Random``, as do the seeded checks of ``reproduce``, so no purity or reproduce
command loads ``numpy.random``.
"""

import math
import random

import numpy as np

from .operators import (EQUALITY_TOL, MAX_DIM, MAX_ENTRIES, ROUNDOFF_ALLOWANCE, SPECTRAL_GAP,
                        ObservableSpace, QuantumState, anticommutation_rows, assert_hermitian,
                        kron_all)

_RESTARTS = 32  # seeded random starts of the fixed-point search
_MAX_FIXED_POINT_STEPS = 1000  # per restart; catalog algebras stop rising within 40 steps
_TIE = 1e-12  # relative gap below which two amplitude magnitudes of a coherent state tie
_HALF_INTEGER_TOL = 1e-12  # how far 2J, and J - m, may sit from a whole number
STABILIZER_WORD_CAP = 24  # most words a stabilizer bracket searches: 24 take under 2 ms (README)


def _validate_spin(j) -> float:
    j = float(j)
    if 2 * j + 1 > MAX_DIM:
        raise ValueError(f"spin {j:g} has dimension {2 * j + 1:.0f}, above the supported {MAX_DIM}")
    if not j >= 0 or abs(2 * j - round(2 * j)) > _HALF_INTEGER_TOL:  # not >= also rejects nan
        raise ValueError(f"spin must be a nonnegative half-integer, got {j}")
    return round(2 * j) / 2.0


def spin_generators(j) -> list[np.ndarray]:
    """[J_x, J_y, J_z] of spin J in the basis |J,J>, |J,J-1>, ..., |J,-J>, from its two bands:
    J_z is the diagonal m = J, ..., -J, and the ladder operator J_+ the superdiagonal
    sqrt(J(J+1) - m(m+1)) that takes |J, m> to |J, m+1>."""
    j = _validate_spin(j)
    m = j - np.arange(round(2 * j) + 1)
    jplus = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    jminus = jplus.conj().T
    return [0.5 * (jplus + jminus), -0.5j * (jplus - jminus), np.diag(m).astype(complex)]


def spin_basis_state(j, m) -> QuantumState:
    """The eigenstate |J, m> of J_z in the basis of :func:`spin_generators`, built without
    them.  J - m must be a whole number in [0, 2J], within the 1e-12 allowed 2J."""
    j = _validate_spin(j)
    dim = round(2 * j) + 1
    index = round(j - m, 0)  # a float: an infinite or nan m fails the range test
    if not 0 <= index < dim:
        raise ValueError(f"m={m} outside -J..J for J={j}")
    if abs(j - m - index) > _HALF_INTEGER_TOL:
        raise ValueError(f"m={m} is not J minus a whole number for J={j}")
    return QuantumState.basis_state(dim, int(index))


def scs(j, direction) -> QuantumState:
    """Spin coherent state of spin J along a unit vector n: the top eigenvector of n . J.

    In closed form (Arecchi, Courtens, Gilmore & Thomas 1972), with theta and phi the
    polar angles of n, its amplitude on |J, J-k> is
    sqrt(C(2J, k)) cos(theta/2)^(2J-k) (sin(theta/2) e^(i phi))^k.  The phase is fixed by
    making the largest-magnitude amplitude real and positive: the first one within a relative
    1e-12 of the largest, so that the exact ties of the equator (k and 2J - k) go by index,
    not by roundoff.
    """
    two_j = round(2 * _validate_spin(j))
    n = np.asarray(direction, dtype=float).reshape(3)
    if abs(np.linalg.norm(n) - 1.0) > EQUALITY_TOL:
        raise ValueError(f"direction must be a unit vector, norm {np.linalg.norm(n)!r}")
    half_theta = np.arctan2(np.hypot(n[0], n[1]), n[2]) / 2
    k = np.arange(two_j + 1)
    binomials = np.array([float(math.comb(two_j, i)) for i in range(two_j + 1)])  # < 1e307
    v = (np.sqrt(binomials) * np.cos(half_theta) ** (two_j - k) * np.sin(half_theta) ** k
         * np.exp(1j * np.arctan2(n[1], n[0]) * k))
    size = np.abs(v)
    top = int(np.argmax(size >= size.max() * (1 - _TIE)))  # the first of the largest
    return QuantumState(vector=v * (abs(v[top]) / v[top]))


def orbit_sample(omega: ObservableSpace, reference: QuantumState, angles) -> QuantumState:
    """Apply exp(i sum_a angles[a] X_a) to a pure reference state."""
    if not reference.is_pure:
        raise ValueError("orbit sampling needs a pure reference state")
    h = assert_hermitian(omega.element(angles), tol=EQUALITY_TOL)
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


def highest_weight_state(omega: ObservableSpace, seed: int = 0) -> QuantumState | None:
    """The top eigenvector of one seeded regular element sum_a c_a X_a.

    On a Lie algebra represented irreducibly, the maximal-purity states are the
    generalized coherent states, the orbit of a highest-weight vector (Perelomov
    1972; Klyachko, quant-ph/0206012; Barnum, Knill, Ortiz, Somma & Viola, PRL 92,
    107902 (2004)).  An element with a simple spectrum, or a generic one, is regular, and its
    top eigenvector is a highest-weight vector for the Weyl chamber that holds it, so its raw
    purity (``purity.omega_purity``) is the exact maximum; on any space it is a lower bound.
    The element is a sum of site terms, each from ``ObservableSpace.regular_eigenbasis`` (a word
    space is one site), and its top eigenvector the product of theirs.  Returns None when a
    top eigenvalue is degenerate."""
    rng, factors = seeded_rng(seed), []
    for _ in range(omega.sites):
        w, v = omega.regular_eigenbasis(rng)  # v None: the standard basis, w's entries distinct
        if v is not None and len(w) > 1 and w[-1] - w[-2] <= SPECTRAL_GAP * np.max(np.abs(w)):
            return None  # only the top one: su(3)'s adjoint, weight 0 twice, still gets a state
        factors.append(np.arange(len(w)) == w.argmax() if v is None else v[:, -1])
    return QuantumState(vector=kron_all(factors))


def stabilizer_bracket(omega: ObservableSpace) -> tuple[list[int], list[list[int]] | None]:
    """Bracket the maximal raw purity of a word space by two exact bounds, from its masks alone.

    Returns a largest set of pairwise-commuting words, as ascending indices into
    ``omega.masks``, and a split of all the words into that many pairwise-anticommuting
    sets, or None when there is no such split.  With alpha the size of the commuting set:

    - Lower bound: commuting words share an eigenvector (a stabilizer state), on which
      each word P has <P> = +-1, so that state's raw purity is at least alpha / dim.
    - Upper bound: pairwise-anticommuting words satisfy (sum_a c_a P_a)^2 = |c|^2 for real
      c, so with c_a = <P_a> the sum of <P_a>^2 over one set is at most 1, and a split into
      k sets bounds the raw purity of every state by k / dim.

    When the split exists the bounds meet and alpha / dim is the exact maximum (de Gois,
    Hansenne & Gühne 2023; Xu, Schwonnek & Winter 2024).  Both searches are branch and
    bound on int bit masks of the commutation graph: a largest clique, then an alpha-colouring
    that starts from that clique and next colours the word with the fewest colours open
    (DSATUR, Brélaz 1979).  More than ``STABILIZER_WORD_CAP`` words are refused at once.
    """
    n = omega.size
    if omega.masks is None or n > STABILIZER_WORD_CAP:
        raise ValueError(f"a stabilizer bracket needs a word space of at most "
                         f"{STABILIZER_WORD_CAP} words, got {omega!r}")
    everyone = (1 << n) - 1
    # commuting[a]: bit b set when words a != b commute
    commuting = [everyone ^ 1 << a ^ int.from_bytes(np.packbits(anti, bitorder="little"), "little")
                 for a, anti in enumerate(anticommutation_rows(omega.masks, omega.dim))]
    clique: list[int] = []

    def grow(chosen: list[int], candidates: int):
        nonlocal clique
        if len(chosen) > len(clique):
            clique = chosen
        while len(chosen) + candidates.bit_count() > len(clique):
            low = candidates & -candidates
            candidates ^= low
            word = (low - 1).bit_count()
            grow(chosen + [word], candidates & commuting[word])

    grow([], everyone)
    classes = [1 << word for word in clique]  # each colour class: pairwise-anticommuting words

    def place(left: int) -> bool:
        if not left:
            return True
        fewest = None
        for word in (w for w in range(n) if left >> w & 1):
            options = [c for c, members in enumerate(classes) if not members & commuting[word]]
            if fewest is None or len(options) < len(fewest[1]):
                fewest = word, options
                if not options:
                    return False
        word, options = fewest
        for c in options:
            classes[c] |= 1 << word
            if place(left ^ 1 << word):
                return True
            classes[c] ^= 1 << word
        return False

    if not place(everyone ^ sum(classes)):
        return clique, None
    return clique, [[w for w in range(n) if members >> w & 1] for members in classes]


def max_purity_estimate(omega: ObservableSpace, seed: int = 0) -> float:
    """Maximize the raw purity sum_a <X_a>^2 over pure states by a fixed-point iteration.

    From each of ``_RESTARTS`` seeded random starts, psi becomes the top eigenvector of
    H = sum_a <X_a>_psi X_a until the purity stops rising.  The purity is
    convex in rho and the new psi maximizes <H> over pure states, so no step
    lowers it; at a fixed point H psi = lambda psi, so the tangent part of the
    purity's gradient, 4 sum_a <X_a> X_a psi, vanishes.  Deterministic for a
    fixed seed.  The returned value is the purity of an actual state, so in exact
    arithmetic a lower bound on the true maximum; in floating point it can exceed
    that maximum by roundoff of about 1e-15 relative (0.5000000000000009 on
    ``omega-prime-loc``, whose maximum is 1/2), so a caller comparing it with an
    exact bound needs a tolerance.
    The restarts run one after another: stacking their H matrices would hold
    _RESTARTS * dim^2 complex numbers at once.  Size x dim^2 over MAX_ENTRIES is refused.
    """
    if omega.size * omega.dim ** 2 > MAX_ENTRIES:
        raise ValueError(f"a numerical reference for {omega.size} observables of dimension "
                         f"{omega.dim} exceeds the supported {MAX_ENTRIES} size x dimension^2")
    rng = seeded_rng(seed)
    best = 0.0
    for _ in range(_RESTARTS):
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
        if best > bound + ROUNDOFF_ALLOWANCE:
            raise AssertionError(f"purity estimate {best} exceeds the bound {bound}")
    return best
