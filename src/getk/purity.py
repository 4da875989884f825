"""Observable-relative purity and the generalized-unentanglement test.

The central quantity is the squared length of the projection of a state onto a distinguished
observable space: P(rho) = sum_a Tr(rho X_a)^2 for a trace-orthonormal basis {X_a}.  Rescaled so
that its maximum over pure states is 1, maximal purity certifies extremality of the reduced state;
both exact maxima, the highest-weight state's and a closed stabilizer bracket's, are found here.
A :class:`PurityReport` holds the purity; its ``unentangled`` is the whole verdict rule and
:func:`resolve_max_reference` the whole rescaling rule, the ``--tol`` and ``--rescale`` texts too.
"""

import math
from functools import lru_cache

import numpy as np

from . import Frozen, coherent
from .operators import (
    EQUALITY_TOL,
    ROUNDOFF_ALLOWANCE,
    SPECTRAL_GAP,
    DimensionMismatch,
    ObservableSpace,
    QuantumState,
    anticommutation_rows,
    assert_hermitian,
    expectation,
    kron_all,
    partial_trace,
    seeded_rng,
)

STABILIZER_WORD_CAP = 24  # most words a stabilizer bracket searches: 24 take under 2 ms (README)


class PurityReport(Frozen):
    """Raw and max-rescaled purity of one state relative to one space.

    ``reference_source`` says where ``max_reference`` came from: ``analytic``,
    ``highest-weight``, ``stabilizer`` (a word space's closed bracket, exact),
    ``numerical`` (the fixed-point estimate, a lower bound up to roundoff) or ``explicit``.
    ``theorem_direction`` is "iff" when ``space`` (the traceless sector measured) is an
    irreducibly represented Lie algebra, where maximal purity is equivalent to generalized
    unentanglement, and "sufficient" otherwise, where a False verdict only means "not
    certified"; the structure is decided only when it is read.

    An immutable :class:`getk.Frozen` value.
    """

    __slots__ = ("raw", "rescaled", "max_reference", "space", "reference_source", "pure")

    @property
    def theorem_direction(self) -> str:
        return "iff" if self.space.irreducible_lie else "sufficient"

    def as_dict(self) -> dict:
        return {
            "algebra": self.space.label,
            "raw": self.raw,
            "rescaled": self.rescaled,
            "max_reference": self.max_reference,
        }

    def unentangled(self, tol: float | str) -> bool:
        """The maximal-purity verdict: rescaled purity within ``tol`` (finite, >= 0) of 1.

        Mixed states are rejected: their verdict needs a convex decomposition search."""
        if not self.pure:
            raise ValueError("the maximal-purity test applies to pure states only")
        if not (math.isfinite(value := _number(tol)) and value >= 0):
            raise ValueError(f"tolerance must be a finite non-negative number, got {tol!r}")
        return bool(self.rescaled >= 1.0 - value)


def _number(value: float | str) -> float:
    """``float()`` of a number or its text; nan, which every range check refuses, if it fails."""
    try:
        return float(value)
    except (OverflowError, ValueError):
        return math.nan


def omega_purity(state: QuantumState, omega: ObservableSpace) -> float:
    """Raw purity sum_a Tr(rho X_a)^2; bounded by the state purity Tr(rho^2)."""
    evals = omega.expectation_vector(state)
    raw = float(np.dot(evals, evals))
    bound = state.purity()
    if raw > bound + EQUALITY_TOL:
        raise AssertionError(f"purity {raw} exceeds Tr(rho^2) = {bound}")
    return raw


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


@lru_cache(maxsize=32)  # bounded: each entry keeps its space alive
def numeric_max_reference(omega: ObservableSpace) -> tuple[float, str]:
    """The ``auto`` reference and its source, cached per space.

    An irreducibly represented Lie algebra gets the highest-weight value, an
    exact maximum.  A word space of at most ``STABILIZER_WORD_CAP`` words
    whose stabilizer bracket closes gets alpha / dim, also exact: a stabilizer state
    attains it, and a split of the words into alpha pairwise-anticommuting sets bounds
    every state by it.  Any other space, or a Lie algebra whose seed-0 element has a
    degenerate top eigenvalue, gets the maximum it carries, else the seed-0 fixed-point
    estimate, a lower bound up to roundoff.
    """
    if omega.irreducible_lie:
        state = highest_weight_state(omega)
        if state is not None:
            return omega_purity(state, omega), "highest-weight"
    if omega.masks is not None and omega.size <= STABILIZER_WORD_CAP:
        commuting, split = stabilizer_bracket(omega)
        if split is not None:
            return len(commuting) / omega.dim, "stabilizer"
    if omega.max_purity is not None:
        return omega.max_purity, "analytic"
    return coherent.max_purity_estimate(omega), "numerical"


def resolve_max_reference(omega: ObservableSpace,
                          max_reference: float | str | None = None) -> tuple[float, str]:
    """The rescaling constant of a traceless space and its source: the one ``--rescale`` rule.

    ``"analytic"`` is the maximum the space carries, ``"auto"`` ``numeric_max_reference``,
    and ``None`` the first of these that exists.  Anything else is a number or its text
    (:func:`_number`), and must be positive and finite.
    """
    if max_reference is None:
        max_reference = "auto" if omega.max_purity is None else "analytic"
    if max_reference == "auto":
        return numeric_max_reference(omega)
    if max_reference == "analytic" and omega.max_purity is None:
        raise ValueError(f"--rescale analytic: no analytic reference for algebra {omega.label!r}")
    if max_reference == "analytic":
        return omega.max_purity, "analytic"
    if not (math.isfinite(value := _number(max_reference)) and value > 0):
        raise ValueError("rescaling reference must be auto, analytic or a positive finite "
                         f"number, got {max_reference!r}")
    return value, "explicit"


def rescaled_purity(state: QuantumState, omega: ObservableSpace,
                    max_reference: float | str | None = None) -> PurityReport:
    """Purity report of the traceless sector, rescaled to maximum 1, from the arguments alone."""
    omega = omega.traceless_sector()
    raw = omega_purity(state, omega)  # a state of the wrong dimension fails before any reference
    ref, source = resolve_max_reference(omega, max_reference)
    rescaled = raw / ref
    if rescaled > 1.0 + ROUNDOFF_ALLOWANCE:
        raise ValueError(
            f"rescaled purity {rescaled} exceeds 1: reference {ref} is below the "
            f"true maximum (explicit value too small, or too few optimizer restarts)")
    return PurityReport(raw, rescaled, ref, omega, source, state.is_pure)


def meyer_wallach_q(psi: QuantumState) -> float:
    """Global multiqubit entanglement Q = 1 - local purity of a pure state of n qubits, the
    local purity being 2 ((1/n) sum_l Tr(rho_l^2) - 1/2) over single-qubit partial traces.
    A one-dimensional state holds no qubit and is refused, as any dimension but 2^n is."""
    n = int(round(np.log2(psi.dim)))
    if n == 0 or 2 ** n != psi.dim:
        raise DimensionMismatch(f"state dim {psi.dim} is not a power of 2")
    if not psi.is_pure:
        raise ValueError("the local purity formula applies to pure states")
    avg = np.mean([partial_trace(psi, [2] * n, [l]).purity() for l in range(n)])
    return 1.0 - float(2.0 * (avg - 0.5))


def expectations_indistinguishable(s1: QuantumState, s2: QuantumState,
                                   omega: ObservableSpace) -> bool:
    """True when no basis observable of omega separates the two states."""
    e1 = omega.expectation_vector(s1)
    e2 = omega.expectation_vector(s2)
    return bool(np.max(np.abs(e1 - e2)) < EQUALITY_TOL)


def invariant_uncertainty(state: QuantumState, generators) -> float:
    """Total variance sum_a (<X_a^2> - <X_a>^2) of physically normalized generators.

    For the spin-J generators this equals J(J+1) - J^2 P, with P the
    rescaled spin purity, and is minimized by the coherent states.
    """
    total = 0.0
    for g in generators:
        g = assert_hermitian(g, tol=EQUALITY_TOL)
        total += expectation(state, g @ g) - expectation(state, g) ** 2
    return float(total)
