"""Dense complex linear algebra for finite-dimensional quantum systems, and Pauli words.

Operators are plain numpy arrays of shape (d, d) and dtype complex; states
are wrapped in :class:`QuantumState` so pure vectors and density matrices
share one interface.  A Pauli word (a string over I, X, Y, Z, first letter
the most significant qubit) is its symplectic (x, z) bit masks, X^x Z^z times
i^|x & z| (:func:`pauli_masks`), and two words anticommute exactly when their
symplectic product is odd (:func:`anticommutation_rows`).  Real-linear spaces
of Hermitian observables live in :class:`ObservableSpace` (N >= 1 sites of one
trace-orthonormal basis, or Pauli words), read through two linear maps,
``coefficients`` and ``element``.
Every register dimension (Pauli words, sites, qubits, fermionic modes, state
files) is formed by :func:`checked_dim` against ``MAX_DIM``; a spin's 2J + 1 is
a float, checked by :func:`checked_spin`.
"""

import itertools
import random
from functools import cached_property, lru_cache

import numpy as np

MAX_DIM = 1024  # largest Hilbert-space dimension a state or an algebra may allocate
MAX_ENTRIES = 4 * MAX_DIM ** 2  # words x dim of a word space; size x dim^2 of a numerical reference
_BLOCK_ENTRIES = 2 ** 14  # entries a blocked kernel takes at once, so temporaries stay O(block)

# Fixed numerical policy: dimensions stay small (<= MAX_DIM), so double
# precision leaves several orders of headroom around these cutoffs.
HERMITICITY_TOL = 1e-12
INDEPENDENCE_TOL = 1e-9
EQUALITY_TOL = 1e-10
ROUNDOFF_ALLOWANCE = 1e-8  # how far a computed value may pass a proved bound (README)
SPECTRAL_GAP = 1e-9  # an eigenvalue gap at most this share of the spectral radius is no gap
_HALF_INTEGER_TOL = 1e-12  # how far 2J, and J - m, may sit from a whole number


class DimensionMismatch(ValueError):
    """Operands live on different Hilbert-space dimensions."""

    exit_code = 3  # the command-line exit status for this error


def _as_operator(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"operator must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("operator has non-finite entries")
    return a


def assert_hermitian(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate Hermiticity of ``a`` within ``tol`` and return it as an array.

    The deviation max |a - a^H| is taken over blocks of rows, each of about
    ``_BLOCK_ENTRIES`` entries; the maximum is the dense formula's, bit for bit.
    """
    a = _as_operator(a)
    step, dev = max(1, _BLOCK_ENTRIES // max(1, len(a))), 0.0
    for i in range(0, len(a), step):
        dev = max(dev, np.max(np.abs(a[i:i + step] - a[:, i:i + step].conj().T)))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return a


def checked_dim(base: int, count: int) -> int:
    """``base**count``, the dimension of ``count`` registers of dimension ``base``.

    Raises ValueError when ``count < 1`` or the power exceeds ``MAX_DIM``.  The
    comparison uses ``base ** min(count, MAX_DIM.bit_length())``: base >= 2 on that
    many registers is already too large, so no huge power is ever formed.
    """
    if count < 1:
        raise ValueError(f"dimension {base}^{count} needs at least one register")
    if base ** min(count, MAX_DIM.bit_length()) > MAX_DIM:
        raise ValueError(f"dimension {base}^{count} exceeds the supported {MAX_DIM}")
    return base ** count


def checked_spin(j) -> float:
    j = float(j)
    if 2 * j + 1 > MAX_DIM:
        raise ValueError(f"spin {j:g} has dimension {2 * j + 1:.0f}, above the supported {MAX_DIM}")
    if not j >= 0 or abs(2 * j - round(2 * j)) > _HALF_INTEGER_TOL:  # not >= also rejects nan
        raise ValueError(f"spin must be a nonnegative half-integer, got {j}")
    return round(2 * j) / 2.0


def seeded_rng(seed: int) -> random.Random:
    """The seeded generator of both references, the Lie decision and the golden suite's sampled
    checks, each at a seed fixed in the code: 0 but for two of those checks.

    Negative seeds are refused: ``random.Random`` would fold -s onto s.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return random.Random(seed)


def kron_all(factors) -> np.ndarray:
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


_LETTERS = "IXZY"  # index = x bit + 2 * z bit, so the product of two letters is the XOR


def pauli_masks(word: str) -> tuple[int, int]:
    """The (x, z) bit masks of a word over I, X, Y, Z (either case), first letter highest."""
    if not word or set(word.upper()) - set(_LETTERS):
        raise ValueError(f"malformed Pauli word {word!r}")
    x = z = 0
    for k in map(_LETTERS.index, word.upper()):
        x, z = 2 * x + (k & 1), 2 * z + (k >> 1)
    return x, z


def pauli_word(x: int, z: int, length: int) -> str:
    """The word of ``length`` letters with masks (x, z): the inverse of :func:`pauli_masks`."""
    return "".join(_LETTERS[(x >> k & 1) + 2 * (z >> k & 1)] for k in reversed(range(length)))


@lru_cache(maxsize=32)  # one array per power of two up to MAX_DIM; callers only read it
def _parity_signs(dim: int) -> np.ndarray:
    """(-1)^|i| for i < dim (a power of two >= 2): the Kronecker product of (1, -1) factors."""
    return kron_all([[1, -1]] * round(np.log2(dim))).real


# Under the numerical reference's work rule a space has at most four blocks, so a fixed
# point finds all of its tables here at every step.  Callers only read the arrays.
@lru_cache(maxsize=4)
def _word_block(block: bytes, dim: int):
    """Indices i, rows i ^ x and entries i^|x & z| (-1)^|i & z|, (words, dim) each, of a block of
    int64 masks: word (x, z) holds its entry in column i, row i ^ x; 1j ** n keeps it exact."""
    x, z = np.frombuffer(block, dtype=np.int64).reshape(-1, 2).T[:, :, None]
    phases = np.array([[1j ** bin(p).count("1")] for p in (x & z).ravel().tolist()])
    idx = np.arange(dim)
    return idx, x ^ idx, phases * _parity_signs(dim)[z & idx]


def _word_blocks(masks, dim: int):
    """(slice, indices, rows, entries) of each block of _BLOCK_ENTRIES // dim words."""
    step = max(1, _BLOCK_ENTRIES // dim)
    for start in range(0, len(masks), step):
        yield (slice(start, start + step), *_word_block(masks[start:start + step].tobytes(), dim))


def _word_sum(masks, weights, dim: int) -> np.ndarray:
    """sum_a weights[a] P_a over the words P_a = i^|x & z| X^x Z^z of the masks."""
    out = np.zeros((dim, dim), dtype=complex)
    for block, idx, rows, entries in _word_blocks(masks, dim):
        np.add.at(out, (rows, idx), weights[block, None] * entries)
    return out


def pauli_string(word: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis named by a word over I, X, Y, Z."""
    return _word_sum(np.array([pauli_masks(word)], dtype=np.int64), np.ones(1),
                     checked_dim(2, len(word)))


def anticommutation_rows(masks, dim: int):
    """For each word (x, z) of ``masks`` in turn, which of the words anticommute with it: those
    (x', z') with an odd symplectic product |x & z'| + |z & x'|.  Words of dimension ``dim``."""
    odd, xs, zs = _parity_signs(dim) < 0, masks[:, 0], masks[:, 1]
    for x, z in masks:
        yield odd[x & zs] != odd[z & xs]


def _decide_lie(masks, dim: int) -> bool:
    """Whether the real span of the words is a Lie algebra represented irreducibly: exact.

    Irreducible (Schur) when the masks span GF(2)^(2L), so only the identity commutes
    with every word; closed when each anticommuting pair's XOR word is in the set,
    since i[P, Q] is then +-2 times that word.
    """
    xs, zs = masks[:, 0], masks[:, 1]
    rows, rank, bit = xs * dim + zs, 0, 1
    while bit < dim * dim:  # Gaussian elimination over GF(2), one bit at a time
        has = rows & bit != 0
        if has.any():
            rows, rank = np.where(has, rows ^ rows[has.argmax()], rows), rank + 1
        bit *= 2
    if 2 ** rank < dim * dim:
        return False
    present = np.zeros(dim * dim, dtype=bool)
    present[xs * dim + zs] = True
    for (x, z), anti in zip(masks, anticommutation_rows(masks, dim)):
        if not present[(x ^ xs[anti]) * dim + (z ^ zs[anti])].all():
            return False
    return True


def _simple_spectrum(w) -> bool:  # sorted, not np.sort, whose kernels add resident pages
    return bool(np.diff(sorted(w)).min() > SPECTRAL_GAP * np.abs(w).max())


def _is_diagonal(x) -> bool:
    return np.count_nonzero(x) == np.count_nonzero(x.diagonal())


def _in_span(residual, norm) -> bool:  # relative above norm 1, absolute below: roundoff is 0
    return residual <= INDEPENDENCE_TOL * max(norm, 1.0)


def _decide_site_lie(space) -> bool:
    """Whether a traceless space of sites is a Lie algebra represented irreducibly, True only
    when proved.  D^2 - 1 site elements x_a on C^D span su(D).  Otherwise each i[x_a, x_b] =
    i(P - P^dagger), P = x_a x_b, lies in the span, and (Schur) ``space.regular_eigenbasis``'s
    element has a simple spectrum and a connected graph on its eigenvectors, with an edge where
    some x_a has an entry above INDEPENDENCE_TOL: only the scalars then commute with every x_a."""
    basis = space.site_basis
    k, d = basis.shape[:2]
    if k == d * d - 1:
        return True
    rows = _real_rows(basis)
    diag = [_is_diagonal(x) for x in basis]
    for a, b in itertools.combinations(range(k), 2):
        p = basis[a] * basis[b].diagonal() if diag[b] else basis[a] @ basis[b]
        r = _real_rows(1j * (p - p.conj().T))
        if not _in_span(np.linalg.norm(r - rows.T @ (rows @ r)), np.linalg.norm(r)):
            return False
    w, v = space.regular_eigenbasis(seeded_rng(0))
    if v is not None:
        if not _simple_spectrum(w):
            return False
        basis = [v.conj().T @ x @ v for x in basis]  # in that element's eigenbasis
    adjacent = np.any([np.abs(x) > INDEPENDENCE_TOL for x in basis], axis=0)
    seen = frontier = np.arange(d) == 0  # breadth-first: each vertex's row is read once
    while frontier.any():
        frontier = adjacent[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return bool(seen.all())


def _factors_with_shift(m) -> bool:
    """Whether m + (EQUALITY_TOL/2) I has a Cholesky factor, read from m's lower triangle as
    ``eigvalsh`` reads it; True proves no eigenvalue below -EQUALITY_TOL (Higham 2002, 10.1)."""
    # left-looking: one matrix-vector product per column, one n x n factor, no shifted copy
    f = np.empty_like(m)
    for k in range(len(m)):
        col = m[k:, k] - f[k:, :k] @ f[k, :k].conj()
        pivot = col[0].real + EQUALITY_TOL / 2
        if not pivot > 0:
            return False
        f[k + 1:, k] = col[1:] / pivot ** 0.5  # the diagonal is never read again
    return True


class QuantumState:
    """A pure state vector or a density operator on dimension ``dim``."""

    __slots__ = ("dim", "_vector", "_rho")

    def __init__(self, vector=None, rho=None):
        if (vector is None) == (rho is None):
            raise ValueError("exactly one of vector or rho is required")
        if vector is not None:
            v = np.asarray(vector, dtype=complex).reshape(-1)
            if not np.all(np.isfinite(v)):
                raise ValueError("pure state has non-finite entries")
            nrm = np.linalg.norm(v)
            if abs(nrm - 1.0) > HERMITICITY_TOL:
                raise ValueError(f"pure state norm {float(nrm)} is not 1")
            # renormalize the residual so downstream algebra sees unit norm
            self._vector = v / nrm
            self._rho = None
            self.dim = v.size
        else:
            m = assert_hermitian(rho)
            tr = np.trace(m).real
            if abs(tr - 1.0) > HERMITICITY_TOL:
                raise ValueError(f"density matrix trace {float(tr)} is not 1")
            if not _factors_with_shift(m):  # eigvalsh decides only what the factor cannot
                least = np.linalg.eigvalsh(m).min()
                if least < -EQUALITY_TOL:
                    raise ValueError(f"density matrix has negative eigenvalue {least:.3e}")
            self._vector = None
            self._rho = m
            self.dim = m.shape[0]

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "QuantumState":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls(vector=v)

    @property
    def is_pure(self) -> bool:
        return self._vector is not None

    @property
    def vector(self):
        return None if self._vector is None else self._vector.copy()

    def density(self) -> np.ndarray:
        if self._vector is not None:
            return np.outer(self._vector, self._vector.conj())
        return self._rho.copy()

    def purity(self) -> float:
        if self.is_pure:
            return 1.0
        return float(np.vdot(self._rho, self._rho).real)  # sum |rho_ij|^2 = Tr rho^2, rho Hermitian

    def tensor(self, other: "QuantumState") -> "QuantumState":
        if self.is_pure and other.is_pure:
            return QuantumState(vector=np.kron(self._vector, other._vector))
        return QuantumState(rho=np.kron(self.density(), other.density()))

    def __repr__(self):
        kind = "pure" if self.is_pure else "density"
        return f"QuantumState(dim={self.dim}, kind={kind})"


def expectation(state: QuantumState, x) -> float:
    """Expectation value Tr(rho x) of a Hermitian observable, as a real number."""
    x = _as_operator(x)
    if x.shape[0] != state.dim:
        raise DimensionMismatch(f"dimension mismatch: state {state.dim} vs operator {x.shape[0]}")
    if state.is_pure:
        v = state._vector
        val = v.conj() @ (x @ v)
    else:
        val = np.trace(state._rho @ x)
    if abs(val.imag) > EQUALITY_TOL:
        raise ValueError(f"expectation has imaginary part {val.imag:.3e}; observable not Hermitian?")
    return float(val.real)


def partial_trace(state: QuantumState, dims, keep) -> QuantumState:
    """Reduced density operator on the tensor factors listed in ``keep``.

    ``dims`` lists the factor dimensions in tensor order (site 1 first, i.e.
    the most significant index block); ``keep`` is a set of factor positions.
    """
    dims = [int(d) for d in dims]
    n = len(dims)
    if int(np.prod(dims)) != state.dim:
        raise DimensionMismatch(f"factor dims {dims} do not multiply to state dim {state.dim}")
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep set {keep} out of range for {n} factors")
    rho = state.density().reshape(dims + dims)
    col = [n + i if i in keep else i for i in range(n)]  # a traced factor's column is its row
    reduced = np.einsum(rho, [*range(n), *col], [*keep, *(n + i for i in keep)])
    d_keep = int(np.prod([dims[k] for k in keep]))
    reduced = reduced.reshape(d_keep, d_keep)
    # symmetrize away roundoff before re-validating
    reduced = 0.5 * (reduced + reduced.conj().T)
    return QuantumState(rho=reduced)


def _real_rows(ops) -> np.ndarray:
    """Real view, one row per operator: for Hermitian a, b, Re Tr(a b) is a row dot product."""
    ops = np.ascontiguousarray(ops, dtype=complex)
    return ops.reshape(ops.shape[:-2] + (ops.shape[-1] ** 2,)).view(np.float64)


class ObservableSpace:
    """Real-linear span of Hermitian operators with a trace-orthonormal basis.

    ``irreducible_lie``, decided when first read, says whether the span is a Lie algebra
    represented irreducibly (this decides which direction of the maximal-purity
    criterion applies).  ``max_purity`` optionally records the
    analytic maximum of the raw traceless purity over pure states.  A space
    is immutable once built: the catalog hands the same instance to every
    caller.  It keeps its own guard, not :class:`getk.Frozen`'s: a space is compared by
    identity, is a key of ``lru_cache``s, and keeps ``cached_property`` values in its
    ``__dict__``.

    A space is two linear maps: ``coefficients`` takes an operator A to (Tr X_a A)_a
    (a vector psi to (<psi|X_a|psi>)_a), and its adjoint ``element`` takes c to
    sum_a c_a X_a.  No (size, dim, dim) array is held; ``basis`` builds fresh matrices.

    A space of sites is ``sites`` copies of one: ``site_basis`` is a trace-orthonormal basis on
    C^D, and the space holds each x on each site, times 1/sqrt(D) on the other sites, so dim =
    D**sites (at most MAX_DIM) and size = len(basis) * sites.  A dense space is the one-site
    case.  With more than one site the site basis must be traceless (traceless elements on
    different sites are then orthogonal).  Only the D x D basis is validated and held.

    A word space is given Pauli words of one length L (case and duplicates
    collapse), each normalized as P / sqrt(2^L), and keeps their (x, z) ``masks``:
    distinct words are orthonormal, both maps cost O(dim) per word, and the space is
    one site (``sites`` is 1).  Size x dim is checked against MAX_ENTRIES before any mask array.
    """

    def __init__(self, basis, label: str = "", *, max_purity: float | None = None, sites: int = 1):
        basis = list(basis)
        if not basis:
            raise ValueError("an observable space needs at least one basis element")
        if type(sites) is not int or sites != 1 and isinstance(basis[0], str):
            raise ValueError(f"sites must be an int, 1 for Pauli words; got {sites!r}")
        self.label, self.sites = label, sites
        self.max_purity = None if max_purity is None else float(max_purity)
        if isinstance(basis[0], str):
            words = list(dict.fromkeys(w.upper() for w in basis))
            if any(len(w) != len(words[0]) for w in words):
                raise ValueError("Pauli words must have uniform length")
            self.dim, self.size = checked_dim(2, len(words[0])), len(words)
            if self.size * self.dim > MAX_ENTRIES:  # before any mask array
                raise ValueError(f"{self.size} Pauli words of length {len(words[0])} exceed "
                                 f"the supported {MAX_ENTRIES} words x dimension")
            self.masks = np.array([pauli_masks(w) for w in words], dtype=np.int64)
            self.masks.setflags(write=False)
            self.traceless = bool(self.masks.any(axis=1).all())  # set last: now immutable
            return
        self.masks = None
        ops = [np.asarray(b, dtype=complex) for b in basis]
        d = ops[0].shape[0] if ops[0].ndim else 0  # a scalar is refused with the rest
        if any(x.shape != (d, d) for x in ops):  # before np.stack, which refuses in its own words
            raise DimensionMismatch("basis elements have inconsistent dimensions")
        self.dim, self.size = checked_dim(d, self.sites), len(ops) * self.sites  # before stacking
        mats = np.stack(ops)
        mats.setflags(write=False)
        self.site_basis = mats
        for a in mats:
            assert_hermitian(a)
        rows = _real_rows(mats)
        dev = np.max(np.abs(rows @ rows.T - np.eye(len(mats))))
        if dev > EQUALITY_TOL:
            raise ValueError(f"basis is not trace-orthonormal (max deviation {dev:.3e})")
        # set last: from here on __setattr__ refuses every assignment
        self.traceless = bool(np.all(np.abs(np.einsum("aii->a", mats)) <= EQUALITY_TOL))
        if self.sites > 1 and not self.traceless:
            raise ValueError("a space of more than one site needs a traceless site basis")

    def __setattr__(self, name, value):
        if hasattr(self, "traceless"):
            raise AttributeError(f"ObservableSpace is immutable; cannot set {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        raise AttributeError(f"ObservableSpace is immutable; cannot delete {name!r}")

    @cached_property  # stored in the instance dict directly, past __setattr__
    def irreducible_lie(self) -> bool:
        """Decided from the masks, or else from the traceless sector's D x D site basis.  One
        element spans an abelian algebra, reducible on C^D for D >= 2 (a lone 1 has no sector)."""
        if self.masks is not None:
            return _decide_lie(self.masks, self.dim)
        return self.size > 1 and _decide_site_lie(self.traceless_sector())

    @property
    def basis(self) -> list[np.ndarray]:
        """The elements X_a as fresh dim x dim matrices."""
        return [self.element(e) for e in np.eye(self.size)]

    def coefficients(self, a) -> np.ndarray:
        """(Tr X_a a)_a of a dim x dim matrix, or (<a|X_a|a>)_a of a vector, as complex numbers.

        Word (x, z) gives i^|x & z| sum_i conj(a[i ^ x]) (-1)^|i & z| a[i] / sqrt(dim), with
        a[i, i ^ x] for conj(a[i ^ x]) a[i] on a matrix.  Site l's block is x on site l,
        contracted on a reshaped as (left, site, right), times D^(-(n-1)/2).
        """
        a = np.asarray(a, dtype=complex)
        if a.shape not in ((self.dim,), (self.dim, self.dim)):
            raise DimensionMismatch(f"dimension mismatch: operand {a.shape} vs space {self.dim}")
        if self.masks is not None:
            sums = []  # the sum, then 1/sqrt(dim): the order of a word-by-word contraction
            for _, idx, rows, entries in _word_blocks(self.masks, self.dim):
                pairs = a[rows].conj() * a if a.ndim == 1 else a[idx, rows]
                sums.append((pairs * entries).sum(axis=1))
            return np.concatenate(sums) / np.sqrt(self.dim)
        n, d = self.sites, self.site_basis.shape[1]
        # einsum, not a BLAS product: the sums stay exactly zero where they cancel
        vals = [np.einsum("xiy,aij,xjy->a", a.reshape(s).conj(), self.site_basis, a.reshape(s))
                if a.ndim == 1 else np.einsum("xiyxjy,aji->a", a.reshape(s * 2), self.site_basis)
                for s in ((d ** pos, d, d ** (n - pos - 1)) for pos in range(n))]
        return np.concatenate(vals) * d ** (-(n - 1) / 2)

    def regular_eigenbasis(self, rng: random.Random) -> tuple[np.ndarray, np.ndarray | None]:
        """(w, v): eigenvalues and eigenvectors (None: the standard basis) of a seeded element of
        one site, c_a = rng.gauss(0, 1) in turn: sum_a c_a d_a over its diagonal elements (diagonal
        site-basis elements, or words with x = 0) if its entries are distinct, summed elementwise
        (an einsum or a product loads kernels that add resident pages); else eigh of the element
        sum_a c_a x_a of ``site_element``, the stream going on."""
        if self.masks is None:
            diagonals = [x.diagonal().real for x in self.site_basis if _is_diagonal(x)]
        else:
            signs, idx = _parity_signs(self.dim) / np.sqrt(self.dim), np.arange(self.dim)
            diagonals = [signs[z & idx] for x, z in self.masks.tolist() if not x]
        w = sum(rng.gauss(0, 1) * d for d in diagonals)  # 0 when there are none
        if np.size(w) > 1 and _simple_spectrum(w):
            return w, None
        c = [rng.gauss(0, 1) for _ in range(self.size // self.sites)]
        return np.linalg.eigh(self.site_element(c))

    def site_element(self, c) -> np.ndarray:
        """sum_a c_a x_a over one site's basis; a word space is one site, filled from its masks."""
        c, k = np.asarray(c, dtype=float), self.size // self.sites
        if c.shape != (k,):
            raise ValueError(f"expected {k} coefficients a site, got shape {c.shape}")
        if self.masks is not None:
            return _word_sum(self.masks, c * (1 / np.sqrt(self.dim)), self.dim)
        return np.einsum("a,aij->ij", c, self.site_basis)

    def element(self, c) -> np.ndarray:
        """sum_a c_a X_a: sum_l 1 (x) h_l (x) 1 D^(-(n-1)/2), h_l the element of site l."""
        if self.sites == 1:
            return self.site_element(c)
        n, d = self.sites, self.site_basis.shape[1]
        out = sum(kron_all([np.eye(d ** pos), self.site_element(part), np.eye(d ** (n - pos - 1))])
                  for pos, part in enumerate(np.split(np.asarray(c, dtype=float), n)))
        return out * d ** (-(n - 1) / 2)

    def expectation_vector(self, state: QuantumState) -> np.ndarray:
        """Vector of expectation values Tr(rho X_a) of the basis elements in ``state``."""
        if state.dim != self.dim:
            raise DimensionMismatch(f"dimension mismatch: state {state.dim} vs space {self.dim}")
        vals = self.coefficients(state._vector if state.is_pure else state._rho)
        if np.max(np.abs(vals.imag)) > EQUALITY_TOL:
            raise ValueError("expectation vector has a large imaginary part")
        return vals.real

    def project_operator(self, a) -> np.ndarray:
        """Orthogonal projection of a Hermitian operator onto this span."""
        return self.element(self.coefficients(assert_hermitian(a)).real)

    def residual_norm(self, a) -> float:
        return next(self._norms(a))

    def contains(self, a) -> bool:
        return _in_span(*self._norms(a))

    def _norms(self, a):  # one validation for |a - P a| and |a|
        a = assert_hermitian(a)
        for m in (a - self.element(self.coefficients(a).real), a):
            yield float(np.linalg.norm(m))

    def traceless_sector(self) -> "ObservableSpace":
        """Orthonormalize after the identity, then drop it.  Built once and kept in the space's
        own __dict__ (past __setattr__); a method, so it can be wrapped on the class."""
        if self.traceless or "_sector" in vars(self):
            return vars(self).get("_sector", self)
        if self.masks is not None and self.size > 1:  # drop the identity word
            length = round(np.log2(self.dim))
            basis = [pauli_word(x, z, length) for x, z in self.masks if x or z]
        else:
            basis = orthonormalize([np.eye(self.dim), *self.basis])[1:]
            if not len(basis):
                raise ValueError(f"algebra {self.label!r} has no traceless part")
        return vars(self).setdefault("_sector", ObservableSpace(basis, self.label + "-traceless"))

    def __repr__(self):
        return f"ObservableSpace(label={self.label!r}, dim={self.dim}, size={self.size})"


def orthonormalize(ops) -> np.ndarray:
    """Gram-Schmidt in the trace inner product, preserving input order: a (k, d, d) array.

    Two passes of classical Gram-Schmidt on the real rows; an input whose residual and norm
    pass ``_in_span`` is dropped.  Raises if none is kept.
    """
    mats = [assert_hermitian(o) for o in ops]
    if not mats:
        raise ValueError("orthonormalize requires at least one operator")
    d = mats[0].shape[0]
    if any(m.shape[0] != d for m in mats):
        raise DimensionMismatch("operators have inconsistent dimensions")
    stack = np.stack(mats)
    rows = _real_rows(stack)  # a view: the loop below rewrites stack in place
    kept = 0
    for i in range(len(rows)):
        v, done, norm = rows[i], rows[:kept], np.linalg.norm(rows[i])
        for _ in range(2):  # second pass stabilizes nearly-dependent inputs
            v -= done.T @ (done @ v)
        nrm = np.linalg.norm(v)
        if not _in_span(nrm, norm):
            rows[kept] = v / nrm
            kept += 1
    if not kept:
        raise ValueError("all inputs are numerically zero")
    return stack[:kept]


def gell_mann_basis(d: int) -> list[np.ndarray]:
    """Trace-orthonormal Hermitian basis of the traceless operators on C^d.

    Uses the standard symmetric / antisymmetric / diagonal families; for
    d = 2 this reproduces the normalized Paulis in the order x, y, z.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    out: list[np.ndarray] = []
    for k in range(1, d):
        for j in range(k):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            out.append(sym)
            ant = np.zeros((d, d), dtype=complex)
            ant[j, k] = -1.0j / np.sqrt(2.0)
            ant[k, j] = 1.0j / np.sqrt(2.0)
            out.append(ant)
        diag = np.zeros((d, d), dtype=complex)
        diag[:k, :k] = np.eye(k)
        diag[k, k] = -k
        out.append(diag / np.sqrt(k * (k + 1)))
    return out


def spin_generators(j) -> list[np.ndarray]:
    """[J_x, J_y, J_z] of spin J in the basis |J,J>, |J,J-1>, ..., |J,-J>, from its two bands:
    J_z is the diagonal m = J, ..., -J, and the ladder operator J_+ the superdiagonal
    sqrt(J(J+1) - m(m+1)) that takes |J, m> to |J, m+1>."""
    j = checked_spin(j)
    m = j - np.arange(round(2 * j) + 1)
    jplus = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    jminus = jplus.conj().T
    return [0.5 * (jplus + jminus), -0.5j * (jplus - jminus), np.diag(m).astype(complex)]


def spin_basis_state(j, m) -> QuantumState:
    """The eigenstate |J, m> of J_z in the basis of :func:`spin_generators`, built without
    them.  J - m must be a whole number in [0, 2J], within the 1e-12 allowed 2J."""
    j = checked_spin(j)
    dim = round(2 * j) + 1
    index = round(j - m, 0)  # a float: an infinite or nan m fails the range test
    if not 0 <= index < dim:
        raise ValueError(f"m={m} outside -J..J for J={j}")
    if abs(j - m - index) > _HALF_INTEGER_TOL:
        raise ValueError(f"m={m} is not J minus a whole number for J={j}")
    return QuantumState.basis_state(dim, int(index))


def bracket(x, y) -> np.ndarray:
    """Hermitian-preserving Lie bracket i(xy - yx) of Hermitian operators."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return 1.0j * (x @ y - y @ x)


def lie_closure(generators) -> ObservableSpace:
    """Close a set of Hermitian operators under the bracket i[x, y]: the space they generate.

    Repeatedly adjoins brackets of basis pairs and re-orthonormalizes until
    the spanned dimension stabilizes; only the last basis becomes a space.
    """
    ops, size = list(orthonormalize(generators)), 0
    while len(ops) > size:
        size = len(ops)
        pairs = [bracket(a, b) for i, a in enumerate(ops) for b in ops[i + 1:]]
        ops = list(orthonormalize(ops + pairs))
    return ObservableSpace(ops)
