"""Constructors for the distinguished observable sets used throughout.

Every constructor returns a trace-orthonormal :class:`ObservableSpace` with
a canonical label.  Analytic maxima of the raw purity are attached where the
subsystem-purity identity gives them in closed form; any other space's reference is
computed in ``purity`` from its Lie structure, which ``ObservableSpace`` decides (none is declared).
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from . import fermion
from .operators import (MAX_DIM, ObservableSpace, checked_dim, gell_mann_basis, pauli_string,
                        spin_generators)
from .states import parse_number_token

MAX_SITE_DIM = math.isqrt(MAX_DIM)  # 32: the largest site of any two-site space


@lru_cache(maxsize=32)  # bounded: keyed by caller input, each entry keeps its space alive
def local_algebra(n: int, d0: int, label: str | None = None) -> ObservableSpace:
    """Traceless local observables su(d0) x n, one summand per site.

    Each single-site generator x_a (a generalized Pauli, trace-orthonormal
    on C^d0) is embedded as x_a on its site and 1/sqrt(d0) on every other
    site, giving n (d0^2 - 1) elements (stored site-factored).  The raw purity
    of a pure state maximizes at n (d0 - 1) / d0^n, attained exactly on products.
    """
    if n < 1 or d0 < 2:
        raise ValueError("need n >= 1 sites of local dimension d0 >= 2")
    max_purity = n * (d0 - 1) / checked_dim(d0, n)
    if d0 > MAX_SITE_DIM:  # checked before the (d0^2 - 1) d0^2 entries of the site basis exist
        raise ValueError(f"site dimension {d0} exceeds the supported {MAX_SITE_DIM}")
    return ObservableSpace(gell_mann_basis(d0), label or f"local:{n}x{d0}", sites=n,
                           max_purity=max_purity)


def _spin_text(dim: int) -> str:
    """J = (dim - 1) / 2 as ``str(Fraction(J))`` writes it ("1", "3/2"), read from 2J."""
    two_j = dim - 1
    return str(two_j // 2) if two_j % 2 == 0 else f"{two_j}/2"


def _two_body_words(pairs, n: int = 3) -> list[str]:
    words = []
    for (p, q) in pairs:
        for a, b in itertools.product("XYZ", repeat=2):
            w = ["I"] * n
            w[p], w[q] = a, b
            words.append("".join(w))
    return words


@lru_cache(maxsize=None)
def omega_prime_loc() -> ObservableSpace:
    """The two-qubit correlation-only set span{XX, ZZ, XY, YZ}.

    Not closed under the bracket; purity relative to it is still defined.
    """
    return ObservableSpace(["XX", "ZZ", "XY", "YZ"], "omega-prime-loc")


@lru_cache(maxsize=None)
def z_conserving_u2() -> ObservableSpace:
    """The u(2) of two-qubit observables commuting with the total S_z.

    Basis (with s_a = sigma_a / 2): s_z x 1, 1 x s_z,
    sqrt(2)(s_x s_x + s_y s_y), sqrt(2)(s_x s_y - s_y s_x).  The four
    elements are trace-orthonormal as written; sigma_z x sigma_z is
    deliberately absent from the span.  With p_ij the populations and r = <01|rho|10>,
    the raw purity is [(p00 - p11)^2 + (p01 - p10)^2] / 2 + 2|r|^2, and |r|^2 <= p01 p10
    bounds it by [(p00 - p11)^2 + (p01 + p10)^2] / 2 <= 1/2, attained on |01>.
    """
    ops = [pauli_string("ZI") / 2, pauli_string("IZ") / 2,
           np.sqrt(2.0) * (pauli_string("XX") + pauli_string("YY")) / 4,
           np.sqrt(2.0) * (pauli_string("XY") - pauli_string("YX")) / 4]
    return ObservableSpace(ops, "u2", max_purity=0.5)


@lru_cache(maxsize=None)
def omega1() -> ObservableSpace:
    """Three-qubit local algebra su(2) x su(2) x su(2)."""
    return local_algebra(3, 2, label="omega1")


def _first_pair_words() -> list[str]:
    """The 15 traceless words on qubits 1,2 of three: two-body, then one-body."""
    return _two_body_words([(0, 1)]) + ["XII", "YII", "ZII", "IXI", "IYI", "IZI"]


@lru_cache(maxsize=None)
def bilocal_pair_algebra() -> ObservableSpace:
    """su(4) on qubits 1,2 plus su(2) on qubit 3, read literally (18 elements).

    Raw purity decomposes as (Tr rho_12^2 - 1/4)/2 + (Tr rho_3^2 - 1/2)/4,
    so the maximum over pure states is 1/2.
    """
    return ObservableSpace(_first_pair_words() + ["IIX", "IIY", "IIZ"], "omega2-literal",
                           max_purity=0.5)


@lru_cache(maxsize=None)
def first_pair_algebra() -> ObservableSpace:
    """su(4) on qubits 1,2 alone, embedded in the three-qubit space.

    Rescaling the raw purity by its maximum 3/8 gives the pair-subsystem
    purity (4/3)(Tr rho_12^2 - 1/4); this is the reading that reproduces
    the published reference values for the bi-local observer.
    """
    return ObservableSpace(_first_pair_words(), "omega2-paper-values", max_purity=3.0 / 8.0)


@lru_cache(maxsize=None)
def omega3() -> ObservableSpace:
    """Nearest-neighbor two-body couplings on a three-qubit line (18 strings)."""
    return ObservableSpace(_two_body_words([(0, 1), (1, 2)]), "omega3")


@lru_cache(maxsize=None)
def omega4() -> ObservableSpace:
    """All two-body couplings on a three-qubit triangle (27 strings).

    The words on a pair B have sum <P>^2 = 4 Tr rho_B^2 - 2 Tr rho_p^2 - 2 Tr rho_q^2 + 1 over
    its qubits p, q (Shor & Laflamme, quant-ph/9610040), and a pure state has Tr rho_B^2 =
    Tr rho_r^2 for the third qubit r, so the three pairs sum to 3: the raw purity is 3/8 on
    every pure state.
    """
    return ObservableSpace(_two_body_words([(0, 1), (1, 2), (0, 2)]), "omega4", max_purity=3 / 8)


@lru_cache(maxsize=32)  # bounded: keyed by caller input, each entry keeps its space alive
def spin_algebra(j) -> ObservableSpace:
    """Trace-orthonormalized su(2) spanned by the spin-J generators.

    The raw purity maximum over pure states is 3J / ((J+1)(2J+1)), attained
    on the spin coherent states; rescaling by it reproduces the
    sum_a <J_a>^2 / J^2 normalization.
    """
    generators = spin_generators(j)
    dim = len(generators[2])
    if dim == 1:  # spin 0: its generators are zero, nothing to normalize
        raise ValueError("spin 0 has no su(2) observables (all generators vanish); need J >= 1/2")
    j = (dim - 1) / 2
    nrm = np.sqrt(j * (j + 1) * dim / 3.0)
    ops = [g / nrm for g in generators]
    max_ref = 3.0 * j / ((j + 1) * (2 * j + 1))
    return ObservableSpace(ops, f"su2-spin:{_spin_text(dim)}", max_purity=max_ref)


@lru_cache(maxsize=32)  # bounded: keyed by caller input, each entry keeps its space alive
def restricted_local_spins(j) -> ObservableSpace:
    """Two spin-J parties with only the angular momentum generators local.

    A proper subset of the full local algebra su(2J+1) + su(2J+1): products
    of spin coherent states maximize the associated purity, while other
    product states such as |J,0> x |J,0> score zero.
    """
    site = spin_algebra(j)
    j = (site.dim - 1) / 2
    max_ref = 6.0 * j / ((j + 1) * (2 * j + 1) ** 2)
    return ObservableSpace(site.site_basis, f"su2x2-spin:{_spin_text(site.dim)}", sites=2,
                           max_purity=max_ref)


_FIXED = {
    "omega1": omega1,
    "omega2-literal": bilocal_pair_algebra,
    "omega2-paper-values": first_pair_algebra,
    "omega3": omega3,
    "omega4": omega4,
    "omega-prime-loc": omega_prime_loc,
    "u2": z_conserving_u2,
    "so4-fermi": lambda: fermion.fermionic_so4(),  # deferred: fermion loads only for fermions
}


def named_algebra(name: str) -> ObservableSpace:
    """Resolve a catalog name as used by the command-line front end.

    Recognized names: omega1, omega2-literal, omega2-paper-values, omega3,
    omega4, omega-prime-loc, u2, so4-fermi, local:NxD, su2-spin:J and
    custom:<file> where the file lists Pauli words one per line.
    """
    if name in _FIXED:
        return _FIXED[name]()
    if name.startswith("local:"):
        spec = name.split(":", 1)[1]
        try:
            n, d0 = (int(v) for v in spec.lower().split("x"))
        except ValueError as exc:
            raise ValueError(f"bad local algebra spec {name!r}: expected local:NxD") from exc
        return local_algebra(n, d0)
    if name.startswith("su2-spin:"):
        try:
            j = parse_number_token(name.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad spin spec {name!r}: {exc}") from exc
        return spin_algebra(j)
    if name.startswith("custom:"):
        path = name.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            words = [w for w in map(str.strip, fh) if w and not w.startswith("#")]
        return ObservableSpace(words, f"custom:{path}")
    raise ValueError(f"unknown algebra name {name!r}")
