"""Second-quantized fermionic modes and their distinguished algebras.

Mode operators are built by the parity-string construction on the
occupation basis, with mode 1 stored in the least significant bit so the
vacuum is the index-0 basis vector.  All matrices have entries in
{0, +1, -1} (or +-1/2 after shifting number operators), so the canonical
anticommutation relations hold exactly in floating point.
"""

from dataclasses import dataclass, field

import numpy as np

from .operators import ObservableSpace, QuantumState, checked_dim, orthonormalize

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class FockRegister:
    """m fermionic modes on the 2^m occupation basis.

    ``c[j]`` annihilates mode j+1 and ``cdag[j]`` creates it; signs follow
    the parity string over lower-indexed modes, so applying creators in
    decreasing mode order to the vacuum gives + signs.
    """

    m: int
    c: tuple = field(repr=False)
    cdag: tuple = field(repr=False)

    @property
    def dim(self) -> int:
        return 2 ** self.m

    @property
    def number_ops(self) -> tuple:
        return tuple(self.cdag[j] @ self.c[j] for j in range(self.m))

    def vacuum(self) -> QuantumState:
        return QuantumState.basis_state(self.dim, 0)


def fock_register(m: int) -> FockRegister:
    """Build the mode operators for m >= 1 modes, 2^m at most ``MAX_DIM``."""
    dim = checked_dim(2, m)
    cs = []
    for j in range(1, m + 1):
        bit = 1 << (j - 1)
        mat = np.zeros((dim, dim), dtype=complex)
        for b in range(dim):
            if b & bit:
                sign = (-1) ** bin(b & (bit - 1)).count("1")
                mat[b ^ bit, b] = sign
        cs.append(mat)
    cds = [mat.conj().T.copy() for mat in cs]
    for a in cs + cds:
        a.setflags(write=False)
    return FockRegister(m=m, c=tuple(cs), cdag=tuple(cds))


def number_operator(reg: FockRegister) -> np.ndarray:
    """Total fermion number, diagonal with spectrum 0..m."""
    total = np.zeros((reg.dim, reg.dim), dtype=complex)
    for n in reg.number_ops:
        total = total + n
    return total


def fermionic_u2(reg: FockRegister) -> ObservableSpace:
    """The number-conserving u(2) of two modes.

    span{n1 - 1/2, n2 - 1/2, (c1+ c2 + c2+ c1)/sqrt2, i(c1+ c2 - c2+ c1)/sqrt2};
    the four operators are trace-orthonormal as written and each commutes with
    the total number operator.  Under the occupation/word dictionary the span
    coincides with the S_z-conserving spin u(2).
    """
    if reg.m != 2:
        raise ValueError("the fermionic u(2) is defined for exactly 2 modes")
    n1, n2 = reg.number_ops
    eye = np.eye(reg.dim, dtype=complex)
    hop = reg.cdag[0] @ reg.c[1]
    ops = [
        n1 - 0.5 * eye,
        n2 - 0.5 * eye,
        (hop + hop.conj().T) / _SQRT2,
        1.0j * (hop - hop.conj().T) / _SQRT2,
    ]
    return ObservableSpace(ops, "u2-fermi")


def fermionic_so4(reg: FockRegister) -> ObservableSpace:
    """The so(4) of all Hermitian bilinears in two modes, pairing terms included.

    Adds (c1+ c2+ + h.c.) combinations to the number-conserving set; these
    have nonzero matrix elements between states of different fermion number.
    Dimension 6, closed under the bracket, and containing the u(2) span.
    """
    if reg.m != 2:
        raise ValueError("the fermionic so(4) is defined for exactly 2 modes")
    n1, n2 = reg.number_ops
    eye = np.eye(reg.dim, dtype=complex)
    hop = reg.cdag[0] @ reg.c[1]
    pair = reg.cdag[0] @ reg.cdag[1]
    raw = [
        (hop + hop.conj().T) / _SQRT2,
        1.0j * (hop - hop.conj().T) / _SQRT2,
        (pair + pair.conj().T) / _SQRT2,
        1.0j * (pair - pair.conj().T) / _SQRT2,
        n1 - 0.5 * eye,
        n2 - 0.5 * eye,
    ]
    space = orthonormalize(raw, label="so4-fermi")
    return space


_WORD_TO_INDEX = {"00": 0, "01": 1, "10": 2, "11": 3}


def jw_state_dictionary(label: str) -> QuantumState:
    """Fock state for a two-qubit basis word.

    00 is the vacuum, 01 puts one fermion in mode 1, 10 one in mode 2, and
    11 is c1+ c2+ |vac> (with + sign under this parity convention).
    """
    try:
        index = _WORD_TO_INDEX[str(label)]
    except KeyError:
        raise ValueError(f"unknown basis word {label!r}; expected one of 00, 01, 10, 11") from None
    return QuantumState.basis_state(4, index)
