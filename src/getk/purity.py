"""Observable-relative purity and the generalized-unentanglement test.

The central quantity is the squared length of the projection of a state
onto a distinguished observable space: P(rho) = sum_a Tr(rho X_a)^2 for a
trace-orthonormal basis {X_a}.  Rescaled so that its maximum over pure
states is 1, maximal purity certifies extremality of the reduced state.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import coherent
from .operators import (
    EQUALITY_TOL,
    DimensionMismatch,
    ObservableSpace,
    QuantumState,
    assert_hermitian,
    expectation,
    partial_trace,
)


@dataclass(frozen=True)
class PurityReport:
    """Raw and max-rescaled purity of one state relative to one space."""

    raw: float
    rescaled: float
    max_reference: float
    omega_label: str

    def as_dict(self) -> dict:
        return {
            "algebra": self.omega_label,
            "raw": self.raw,
            "rescaled": self.rescaled,
            "max_reference": self.max_reference,
        }


@dataclass(frozen=True)
class UnentangledVerdict:
    """Boolean verdict plus the direction of the maximal-purity criterion.

    ``theorem_direction`` is "iff" for irreducibly represented Lie algebras,
    where maximal purity is equivalent to generalized unentanglement, and
    "sufficient" otherwise, where a False only means "not certified".
    """

    unentangled: bool
    theorem_direction: str
    rescaled: float
    max_reference: float

    def __bool__(self) -> bool:
        return self.unentangled


def project_onto(state, omega: ObservableSpace) -> np.ndarray:
    """Projection sum_a <X_a> X_a of a state (or Hermitian operator) onto omega."""
    if isinstance(state, QuantumState):
        a = state.density()
    else:
        a = assert_hermitian(state)
    return omega.project_operator(a)


def omega_purity(state: QuantumState, omega: ObservableSpace) -> float:
    """Raw purity sum_a Tr(rho X_a)^2; bounded by the state purity Tr(rho^2)."""
    evals = omega.expectation_vector(state)
    raw = float(np.dot(evals, evals))
    bound = state.purity()
    if raw > bound + EQUALITY_TOL:
        raise AssertionError(f"purity {raw} exceeds Tr(rho^2) = {bound}")
    return raw


def numeric_max_reference(omega: ObservableSpace, seed: int = 0, restarts: int = 32) -> float:
    """Numerically estimated raw purity maximum, cached per space and seed."""
    key = (seed, restarts)
    if key not in omega._reference_cache:
        omega._reference_cache[key] = coherent.max_purity_estimate(
            omega, restarts=restarts, seed=seed)
    return omega._reference_cache[key]


def resolve_max_reference(omega: ObservableSpace, max_reference: float | None = None,
                          seed: int = 0, restarts: int = 32) -> float:
    """Pick the rescaling constant: explicit value, analytic, or numerical.

    An explicit value must be a positive, finite number.
    """
    if max_reference is not None:
        if not (math.isfinite(max_reference) and max_reference > 0):
            raise ValueError(
                f"rescaling reference must be a positive finite number, got {max_reference}")
        return float(max_reference)
    if omega.max_purity is not None:
        return omega.max_purity
    return numeric_max_reference(omega, seed=seed, restarts=restarts)


def rescaled_purity(state: QuantumState, omega: ObservableSpace,
                    max_reference: float | None = None, *, seed: int = 0) -> PurityReport:
    """Purity report with the traceless-sector value rescaled to maximum 1."""
    if not omega.traceless:
        omega = omega.traceless_sector()
    raw = omega_purity(state, omega)
    ref = resolve_max_reference(omega, max_reference, seed=seed)
    rescaled = raw / ref
    if rescaled > 1.0 + 1e-8:
        raise ValueError(
            f"rescaled purity {rescaled} exceeds 1: reference {ref} is below the "
            f"true maximum (explicit value too small, or too few optimizer restarts)")
    return PurityReport(raw=raw, rescaled=rescaled, max_reference=ref,
                        omega_label=omega.label)


def local_purity_formula(psi: QuantumState, n: int, d0: int) -> float:
    """Average-subsystem-purity form of the local purity of a pure state.

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


def meyer_wallach_q(psi: QuantumState) -> float:
    """Global multiqubit entanglement Q = 1 - local purity."""
    n = int(round(np.log2(psi.dim)))
    if 2 ** n != psi.dim:
        raise DimensionMismatch(f"state dim {psi.dim} is not a power of 2")
    return 1.0 - local_purity_formula(psi, n, 2)


def is_generalized_unentangled(psi: QuantumState, omega: ObservableSpace,
                               max_reference: float | None = None,
                               tol: float = 1e-8, *,
                               report: PurityReport | None = None) -> UnentangledVerdict:
    """Maximal-purity test for generalized unentanglement of a pure state.

    For irreducibly represented Lie algebras maximal rescaled purity is
    equivalent to unentanglement; in general it is only sufficient, and the
    verdict records which direction applies.  Mixed states are rejected:
    deciding their unentanglement needs a convex decomposition search that
    is out of scope here.  ``tol`` must be finite and non-negative.  A
    ``report`` already computed for ``psi`` and ``omega`` is used in place
    of computing the purity again.
    """
    if not psi.is_pure:
        raise ValueError("the maximal-purity test applies to pure states only")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be a finite non-negative number, got {tol}")
    if report is None:
        report = rescaled_purity(psi, omega, max_reference)
    direction = "iff" if omega.irreducible_lie else "sufficient"
    return UnentangledVerdict(unentangled=bool(report.rescaled >= 1.0 - tol),
                              theorem_direction=direction,
                              rescaled=report.rescaled,
                              max_reference=report.max_reference)


def expectations_indistinguishable(s1: QuantumState, s2: QuantumState,
                                   omega: ObservableSpace, tol: float = EQUALITY_TOL) -> bool:
    """True when no basis observable of omega separates the two states."""
    e1 = omega.expectation_vector(s1)
    e2 = omega.expectation_vector(s2)
    if e1.size == 0:
        return True
    return bool(np.max(np.abs(e1 - e2)) < tol)


def invariant_uncertainty(state: QuantumState, generators) -> float:
    """Total variance sum_a (<X_a^2> - <X_a>^2) of physically normalized generators.

    For the spin-J generators this equals J(J+1) - J^2 P, with P the
    rescaled spin purity, and is minimized by the coherent states.
    """
    total = 0.0
    for g in generators:
        g = assert_hermitian(g, tol=1e-10)
        total += expectation(state, g @ g) - expectation(state, g) ** 2
    return float(total)
