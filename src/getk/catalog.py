"""Constructors for the distinguished observable sets used throughout.

Every constructor returns a trace-orthonormal :class:`ObservableSpace` with
a canonical label.  Analytic maxima of the raw purity are attached where the
subsystem-purity identity gives them in closed form; other spaces leave the
rescaling reference to numerical estimation.
"""

import itertools
from functools import lru_cache

import numpy as np

from . import coherent
from .fermion import fermionic_so4, fock_register
from .operators import (
    MAX_DIM,
    PAULI,
    ObservableSpace,
    gell_mann_basis,
    pauli_string,
)
from .states import parse_number_token


@lru_cache(maxsize=None)
def local_algebra(n: int, d0: int, label: str | None = None) -> ObservableSpace:
    """Traceless local observables su(d0) x n, one summand per site.

    Each single-site generator x_a (a generalized Pauli, trace-orthonormal
    on C^d0) is embedded as x_a on its site and 1/sqrt(d0) on every other
    site, giving n (d0^2 - 1) elements (stored site-factored).  The raw purity
    of a pure state maximizes at n (d0 - 1) / d0^n, attained exactly on products.
    """
    if n < 1 or d0 < 2:
        raise ValueError("need n >= 1 sites of local dimension d0 >= 2")
    if n >= MAX_DIM.bit_length() or d0 ** n > MAX_DIM:  # d0 >= 2: never forms a huge power
        raise ValueError(f"total dimension {d0}^{n} exceeds the supported {MAX_DIM}")
    return ObservableSpace(gell_mann_basis(d0), label or f"local:{n}x{d0}", sites=n,
                           irreducible_lie=True, max_purity=n * (d0 - 1) / d0 ** n)


def pauli_string_space(strings, label: str | None = None, *,
                       irreducible_lie: bool = False,
                       max_purity: float | None = None) -> ObservableSpace:
    """Span of normalized Pauli strings P / sqrt(2^n), one per distinct word."""
    words = []
    for w in strings:
        w = str(w).upper()
        if w not in words:
            words.append(w)
    if not words:
        raise ValueError("need at least one Pauli word")
    length = len(words[0])
    if any(len(w) != length for w in words):
        raise ValueError("Pauli words must have uniform length")
    norm = np.sqrt(2.0 ** length)
    ops = [pauli_string(w) / norm for w in words]
    return ObservableSpace(ops, label or "pauli:" + ",".join(words),
                           irreducible_lie=irreducible_lie, max_purity=max_purity)


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
    return pauli_string_space(["XX", "ZZ", "XY", "YZ"], label="omega-prime-loc")


@lru_cache(maxsize=None)
def z_conserving_u2() -> ObservableSpace:
    """The u(2) of two-qubit observables commuting with the total S_z.

    Basis (with s_a = sigma_a / 2): s_z x 1, 1 x s_z,
    sqrt(2)(s_x s_x + s_y s_y), sqrt(2)(s_x s_y - s_y s_x).  The four
    elements are trace-orthonormal as written; sigma_z x sigma_z is
    deliberately absent from the span.
    """
    s = {k: v / 2.0 for k, v in PAULI.items() if k != "I"}
    eye = np.eye(2, dtype=complex)
    ops = [
        np.kron(s["Z"], eye),
        np.kron(eye, s["Z"]),
        np.sqrt(2.0) * (np.kron(s["X"], s["X"]) + np.kron(s["Y"], s["Y"])),
        np.sqrt(2.0) * (np.kron(s["X"], s["Y"]) - np.kron(s["Y"], s["X"])),
    ]
    return ObservableSpace(ops, "u2")


@lru_cache(maxsize=None)
def omega1() -> ObservableSpace:
    """Three-qubit local algebra su(2) x su(2) x su(2)."""
    return local_algebra(3, 2, label="omega1")


@lru_cache(maxsize=None)
def bilocal_pair_algebra() -> ObservableSpace:
    """su(4) on qubits 1,2 plus su(2) on qubit 3, read literally (18 elements).

    Raw purity decomposes as (Tr rho_12^2 - 1/4)/2 + (Tr rho_3^2 - 1/2)/4,
    so the maximum over pure states is 1/2.
    """
    words = _two_body_words([(0, 1)]) + ["XII", "YII", "ZII", "IXI", "IYI", "IZI"]
    words += ["IIX", "IIY", "IIZ"]
    return pauli_string_space(words, label="omega2-literal", irreducible_lie=True,
                              max_purity=0.5)


@lru_cache(maxsize=None)
def first_pair_algebra() -> ObservableSpace:
    """su(4) on qubits 1,2 alone, embedded in the three-qubit space.

    Rescaling the raw purity by its maximum 3/8 gives the pair-subsystem
    purity (4/3)(Tr rho_12^2 - 1/4); this is the reading that reproduces
    the published reference values for the bi-local observer.
    """
    words = _two_body_words([(0, 1)]) + ["XII", "YII", "ZII", "IXI", "IYI", "IZI"]
    return pauli_string_space(words, label="omega2-paper-values", max_purity=3.0 / 8.0)


@lru_cache(maxsize=None)
def omega3() -> ObservableSpace:
    """Nearest-neighbor two-body couplings on a three-qubit line (18 strings)."""
    return pauli_string_space(_two_body_words([(0, 1), (1, 2)]), label="omega3")


@lru_cache(maxsize=None)
def omega4() -> ObservableSpace:
    """All two-body couplings on a three-qubit triangle (27 strings)."""
    return pauli_string_space(_two_body_words([(0, 1), (1, 2), (0, 2)]), label="omega4")


def _norm_j(j: float) -> str:
    return f"{int(j)}" if float(j).is_integer() else f"{int(round(2 * j))}/2"


def _nonzero_spin(j) -> coherent.SpinSystem:
    system = coherent.spin_system(j)
    if system.j == 0:  # its generators are zero: nothing to normalize
        raise ValueError("spin 0 has no su(2) observables (all generators vanish); need J >= 1/2")
    return system


@lru_cache(maxsize=None)
def spin_algebra(j) -> ObservableSpace:
    """Trace-orthonormalized su(2) spanned by the spin-J generators.

    The raw purity maximum over pure states is 3J / ((J+1)(2J+1)), attained
    on the spin coherent states; rescaling by it reproduces the
    sum_a <J_a>^2 / J^2 normalization.
    """
    system = _nonzero_spin(j)
    nrm = np.sqrt(system.j * (system.j + 1) * system.dim / 3.0)
    ops = [g / nrm for g in system.generators]
    max_ref = 3.0 * system.j / ((system.j + 1) * (2 * system.j + 1))
    return ObservableSpace(ops, f"su2-spin:{_norm_j(system.j)}", irreducible_lie=True,
                           max_purity=max_ref)


@lru_cache(maxsize=None)
def restricted_local_spins(j) -> ObservableSpace:
    """Two spin-J parties with only the angular momentum generators local.

    A proper subset of the full local algebra su(2J+1) + su(2J+1): products
    of spin coherent states maximize the associated purity, while other
    product states such as |J,0> x |J,0> score zero.
    """
    system = _nonzero_spin(j)
    d = system.dim
    nrm = np.sqrt(system.j * (system.j + 1) * d / 3.0) * np.sqrt(d)
    eye = np.eye(d, dtype=complex)
    ops = [np.kron(g, eye) / nrm for g in system.generators]
    ops += [np.kron(eye, g) / nrm for g in system.generators]
    max_ref = 6.0 * system.j / ((system.j + 1) * (2 * system.j + 1) ** 2)
    return ObservableSpace(ops, f"su2x2-spin:{_norm_j(system.j)}", irreducible_lie=True,
                           max_purity=max_ref)


@lru_cache(maxsize=None)
def full_traceless_algebra(d: int) -> ObservableSpace:
    """The complete traceless Hermitian space su(d)."""
    if d > 16:
        raise ValueError("full traceless algebra is capped at dimension 16")
    return ObservableSpace(gell_mann_basis(d), f"full:{d}", irreducible_lie=True,
                           max_purity=1.0 - 1.0 / d)


def named_algebra(name: str) -> ObservableSpace:
    """Resolve a catalog name as used by the command-line front end.

    Recognized names: omega1, omega2-literal, omega2-paper-values, omega3,
    omega4, omega-prime-loc, u2, so4-fermi, local:NxD, su2-spin:J and
    custom:<file> where the file lists Pauli words one per line.
    """
    fixed = {
        "omega1": omega1,
        "omega2-literal": bilocal_pair_algebra,
        "omega2-paper-values": first_pair_algebra,
        "omega3": omega3,
        "omega4": omega4,
        "omega-prime-loc": omega_prime_loc,
        "u2": z_conserving_u2,
    }
    if name in fixed:
        return fixed[name]()
    if name == "so4-fermi":
        return fermionic_so4(fock_register(2))
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
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad spin spec {name!r}: expected su2-spin:J") from exc
        return spin_algebra(j)
    if name.startswith("custom:"):
        path = name.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            words = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
        return pauli_string_space(words, label=f"custom:{path}")
    raise ValueError(f"unknown algebra name {name!r}")
