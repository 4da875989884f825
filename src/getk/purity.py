"""Observable-relative purity and the generalized-unentanglement test.

The central quantity is the squared length of the projection of a state
onto a distinguished observable space: P(rho) = sum_a Tr(rho X_a)^2 for a
trace-orthonormal basis {X_a}.  Rescaled so that its maximum over pure
states is 1, maximal purity certifies extremality of the reduced state.
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
    DimensionMismatch,
    ObservableSpace,
    QuantumState,
    assert_hermitian,
    expectation,
    partial_trace,
)


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


@lru_cache(maxsize=32)  # bounded: each entry keeps its space alive
def numeric_max_reference(omega: ObservableSpace, seed: int = 0) -> tuple[float, str]:
    """The ``auto`` reference and its source, cached per space and seed.

    An irreducibly represented Lie algebra gets the highest-weight value, an
    exact maximum.  A word space of at most ``coherent.STABILIZER_WORD_CAP`` words
    whose stabilizer bracket closes gets alpha / dim, also exact: a stabilizer state
    attains it, and a split of the words into alpha pairwise-anticommuting sets bounds
    every state by it.  Any other space, or a Lie algebra whose seeded element has a
    degenerate top eigenvalue, gets the maximum it carries, else the fixed-point estimate,
    a lower bound up to roundoff.
    """
    if omega.irreducible_lie:
        state = coherent.highest_weight_state(omega, seed)
        if state is not None:
            return omega_purity(state, omega), "highest-weight"
    if omega.masks is not None and omega.size <= coherent.STABILIZER_WORD_CAP:
        commuting, split = coherent.stabilizer_bracket(omega)
        if split is not None:
            return len(commuting) / omega.dim, "stabilizer"
    if omega.max_purity is not None:
        return omega.max_purity, "analytic"
    return coherent.max_purity_estimate(omega, seed=seed), "numerical"


def resolve_max_reference(omega: ObservableSpace, max_reference: float | str | None = None,
                          seed: int = 0) -> tuple[float, str]:
    """The rescaling constant of a traceless space and its source: the one ``--rescale`` rule.

    ``"analytic"`` is the maximum the space carries, ``"auto"`` the seeded
    ``numeric_max_reference``, and ``None`` the first of these that exists.  Anything
    else is a number or its text (:func:`_number`), and must be positive and finite.
    """
    if max_reference is None:
        max_reference = "auto" if omega.max_purity is None else "analytic"
    if max_reference == "auto":
        return numeric_max_reference(omega, seed)
    if max_reference == "analytic" and omega.max_purity is None:
        raise ValueError(f"--rescale analytic: no analytic reference for algebra {omega.label!r}")
    if max_reference == "analytic":
        return omega.max_purity, "analytic"
    if not (math.isfinite(value := _number(max_reference)) and value > 0):
        raise ValueError("rescaling reference must be auto, analytic or a positive finite "
                         f"number, got {max_reference!r}")
    return value, "explicit"


def rescaled_purity(state: QuantumState, omega: ObservableSpace,
                    max_reference: float | str | None = None, *, seed: int = 0) -> PurityReport:
    """Purity report with the traceless-sector value rescaled to maximum 1."""
    omega = omega.traceless_sector()
    raw = omega_purity(state, omega)  # a state of the wrong dimension fails before any reference
    ref, source = resolve_max_reference(omega, max_reference, seed)
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
