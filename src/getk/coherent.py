"""Coherent states and the fixed-point purity maximizer.

Provides spin coherent states in closed form, group-orbit sampling through the
matrix exponential, and the fixed-point estimate of the maximal raw purity: the
reference of a space that gets no exact one (``purity.numeric_max_reference``)
and carries no maximum.  The spin-J generators and |J, m> states live in
``operators``, the exact references in ``purity``.  The fixed point draws through
``operators.gaussians`` from the stdlib ``random.Random`` of ``operators.seeded_rng``, as
do the seeded checks of ``reproduce``, so no purity or reproduce command loads
``numpy.random``.
"""

import math

import numpy as np

from .operators import (EQUALITY_TOL, MAX_ENTRIES, ROUNDOFF_ALLOWANCE, ObservableSpace,
                        QuantumState, assert_hermitian, checked_spin, gaussians, seeded_rng)

_RESTARTS = 32  # seeded random starts of the fixed-point search
_MAX_FIXED_POINT_STEPS = 1000  # per restart; catalog algebras stop rising within 40 steps
_TIE = 1e-12  # relative gap below which two amplitude magnitudes of a coherent state tie


def scs(j, direction) -> QuantumState:
    """Spin coherent state of spin J along a unit vector n: the top eigenvector of n . J.

    In closed form (Arecchi, Courtens, Gilmore & Thomas 1972), with theta and phi the
    polar angles of n, its amplitude on |J, J-k> is
    sqrt(C(2J, k)) cos(theta/2)^(2J-k) (sin(theta/2) e^(i phi))^k.  The phase is fixed by
    making the largest-magnitude amplitude real and positive: the first one within a relative
    1e-12 of the largest, so that the exact ties of the equator (k and 2J - k) go by index,
    not by roundoff.
    """
    two_j = round(2 * checked_spin(j))
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
