"""Second-quantized fermionic modes as Jordan-Wigner Pauli words.

Mode j's two Majorana operators are the words I..I X Z..Z and I..I Y Z..Z,
with mode 1 as the last letter (the least significant bit, so the vacuum is
the index-0 basis vector) and the Z string over the lower-indexed modes.
Every quadratic term i gamma_a gamma_b is then +-1 times one word, so the
so(2m) of m modes is a set of words, and ``so4-fermi`` a word space; only the
mode operators and u(2) are dense.  All entries are in {0, +-1} (or +-1/2),
so the canonical anticommutation relations hold exactly.
"""

from functools import lru_cache

import numpy as np

from .operators import (ObservableSpace, QuantumState, checked_dim, pauli_masks, pauli_string,
                        pauli_word)


def majorana_words(m: int) -> list[str]:
    """gamma_1 .. gamma_2m for m >= 1 modes, 2^m at most ``MAX_DIM``."""
    checked_dim(2, m)
    return [("I" * (m - j) + p + "Z" * (j - 1)) for j in range(1, m + 1) for p in "XY"]


def quadratic_words(m: int) -> list[str]:
    """The word of gamma_a gamma_b, up to phase, for each pair a < b: so(2m)."""
    gammas = [pauli_masks(w) for w in majorana_words(m)]
    return [pauli_word(x ^ u, z ^ v, m)
            for i, (x, z) in enumerate(gammas) for u, v in gammas[i + 1:]]


def annihilators(m: int) -> list[np.ndarray]:
    """c_j = (gamma_2j-1 + i gamma_2j) / 2 for j = 1..m, dense on the 2^m occupation basis.

    Creators applied in decreasing mode order to the vacuum give + signs.
    """
    words = majorana_words(m)
    return [(pauli_string(x) + 1j * pauli_string(y)) / 2 for x, y in zip(words[::2], words[1::2])]


def number_operator(m: int) -> np.ndarray:
    """Total fermion number of m modes, diagonal with spectrum 0..m."""
    return sum(c.conj().T @ c for c in annihilators(m))


@lru_cache(maxsize=None)
def fermionic_u2() -> ObservableSpace:
    """The number-conserving u(2) of two modes.

    span{n1 - 1/2, n2 - 1/2, (c1+ c2 + c2+ c1)/sqrt2, i(c1+ c2 - c2+ c1)/sqrt2};
    the four operators are trace-orthonormal as written and each commutes with
    the total number operator.  Under the occupation/word dictionary the span
    coincides with the S_z-conserving spin u(2).
    """
    c1, c2 = annihilators(2)
    half = 0.5 * np.eye(4)
    hop = c1.conj().T @ c2
    ops = [c1.conj().T @ c1 - half, c2.conj().T @ c2 - half,
           (hop + hop.conj().T) / np.sqrt(2.0), 1.0j * (hop - hop.conj().T) / np.sqrt(2.0)]
    return ObservableSpace(ops, "u2-fermi")


@lru_cache(maxsize=None)
def fermionic_so4() -> ObservableSpace:
    """The so(4) of all Hermitian bilinears in two modes, pairing terms included.

    The six quadratic words IZ, XY, YY, XX, YX, ZI, each divided by 2.  The
    pairing terms link states of different fermion number; the span is closed
    under the bracket and contains the u(2) span.
    """
    return ObservableSpace(quadratic_words(2), "so4-fermi")


def jw_state_dictionary(label: str) -> QuantumState:
    """Fock state for a two-qubit basis word.

    00 is the vacuum, 01 puts one fermion in mode 1, 10 one in mode 2, and
    11 is c1+ c2+ |vac> (with + sign under this parity convention).
    """
    label = str(label)
    if len(label) != 2 or set(label) - set("01"):
        raise ValueError(f"unknown basis word {label!r}; expected one of 00, 01, 10, 11")
    return QuantumState.basis_state(4, int(label, 2))
