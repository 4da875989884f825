"""Dense complex linear algebra for finite-dimensional quantum systems.

Operators are plain numpy arrays of shape (d, d) and dtype complex; states
are wrapped in :class:`QuantumState` so pure vectors and density matrices
share one interface.  Real-linear spaces of Hermitian observables carry a
trace-orthonormal basis and live in :class:`ObservableSpace`.
"""

import numpy as np

# Fixed numerical policy: dimensions stay small (<= 2**10), so double
# precision leaves several orders of headroom around these cutoffs.
HERMITICITY_TOL = 1e-12
INDEPENDENCE_TOL = 1e-9
EQUALITY_TOL = 1e-10

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class DimensionMismatch(ValueError):
    """Operands live on different Hilbert-space dimensions."""


def _as_operator(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"operator must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("operator has non-finite entries")
    return a


def assert_hermitian(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate Hermiticity of ``a`` within ``tol`` and return it as an array."""
    a = _as_operator(a)
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return a


def trace_inner_product(a, b) -> float:
    """Real trace inner product Re Tr(a b) of two Hermitian operators.

    For exactly Hermitian inputs the imaginary part of Tr(a b) vanishes
    analytically; a residual above 1e-12 signals a non-Hermitian argument.
    """
    a = _as_operator(a)
    b = _as_operator(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    val = np.trace(a @ b)
    if abs(val.imag) > HERMITICITY_TOL * max(1.0, abs(val.real)):
        raise ValueError(f"trace inner product has imaginary part {val.imag:.3e}")
    return float(val.real)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two operators (or vectors)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(factors) -> np.ndarray:
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def pauli_string(word: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis named by a word over I, X, Y, Z."""
    bad = set(word.upper()) - set("IXYZ")
    if not word or bad:
        raise ValueError(f"malformed Pauli word {word!r}")
    return kron_all([PAULI[c] for c in word.upper()])


class QuantumState:
    """A pure state vector or a density operator on dimension ``dim``."""

    __slots__ = ("dim", "_vector", "_rho")

    def __init__(self, vector=None, rho=None):
        if (vector is None) == (rho is None):
            raise ValueError("exactly one of vector or rho is required")
        if vector is not None:
            v = np.asarray(vector, dtype=complex).reshape(-1)
            nrm = np.linalg.norm(v)
            if abs(nrm - 1.0) > HERMITICITY_TOL:
                raise ValueError(f"pure state norm {nrm!r} is not 1")
            # renormalize the residual so downstream algebra sees unit norm
            self._vector = v / nrm
            self._rho = None
            self.dim = v.size
        else:
            m = assert_hermitian(rho)
            tr = np.trace(m).real
            if abs(tr - 1.0) > HERMITICITY_TOL:
                raise ValueError(f"density matrix trace {tr!r} is not 1")
            evals = np.linalg.eigvalsh(m)
            if evals.min() < -1e-10:
                raise ValueError(f"density matrix has negative eigenvalue {evals.min():.3e}")
            self._vector = None
            self._rho = m
            self.dim = m.shape[0]

    @classmethod
    def from_vector(cls, v) -> "QuantumState":
        return cls(vector=v)

    @classmethod
    def from_density(cls, m) -> "QuantumState":
        return cls(rho=m)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "QuantumState":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls(vector=v)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuantumState":
        return cls(rho=np.eye(dim, dtype=complex) / dim)

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
        return float(np.trace(self._rho @ self._rho).real)

    def tensor(self, other: "QuantumState") -> "QuantumState":
        if self.is_pure and other.is_pure:
            return QuantumState(vector=np.kron(self._vector, other._vector))
        return QuantumState(rho=np.kron(self.density(), other.density()))

    def fidelity(self, other: "QuantumState") -> float:
        """Overlap fidelity; at least one of the two states must be pure."""
        if self.is_pure:
            return float((self._vector.conj() @ other.density() @ self._vector).real)
        if other.is_pure:
            return other.fidelity(self)
        raise ValueError("fidelity between two mixed states is not supported")

    def __repr__(self):
        kind = "pure" if self.is_pure else "density"
        return f"QuantumState(dim={self.dim}, kind={kind})"


def random_pure_state(dim: int, rng) -> QuantumState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState(vector=v / np.linalg.norm(v))


def random_density_state(dim: int, rng, rank: int | None = None) -> QuantumState:
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return QuantumState(rho=m / np.trace(m).real)


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
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[:n])
    col = [letters[n + i] if i in keep else letters[i] for i in range(n)]
    out = [letters[i] for i in keep] + [letters[n + i] for i in keep]
    sub = "".join(row) + "".join(col) + "->" + "".join(out)
    reduced = np.einsum(sub, rho)
    d_keep = int(np.prod([dims[k] for k in keep]))
    reduced = reduced.reshape(d_keep, d_keep)
    # symmetrize away roundoff before re-validating
    reduced = 0.5 * (reduced + reduced.conj().T)
    return QuantumState(rho=reduced)


class ObservableSpace:
    """Real-linear span of Hermitian operators with a trace-orthonormal basis.

    ``irreducible_lie`` marks spaces that are Lie algebras represented
    irreducibly on the carrier space (this decides which direction of the
    maximal-purity criterion applies).  ``max_purity`` optionally records the
    analytic maximum of the raw traceless purity over pure states.
    """

    def __init__(self, basis, label: str = "", *, dim: int | None = None,
                 irreducible_lie: bool = False, max_purity: float | None = None,
                 validate: bool = True):
        ops = [np.asarray(b, dtype=complex) for b in basis]
        if not ops and dim is None:
            raise ValueError("empty basis requires an explicit dim")
        self.dim = int(dim) if dim is not None else ops[0].shape[0]
        self.label = label
        self.irreducible_lie = bool(irreducible_lie)
        self.max_purity = None if max_purity is None else float(max_purity)
        self._reference_cache: dict = {}
        if ops:
            self.stack = np.stack(ops)
        else:
            self.stack = np.zeros((0, self.dim, self.dim), dtype=complex)
        if validate:
            self._validate()
        self.traceless = bool(np.all(np.abs(np.einsum("aii->a", self.stack)) <= EQUALITY_TOL)) \
            if self.size else True
        self.stack.setflags(write=False)

    def _validate(self):
        for a in self.stack:
            if a.shape != (self.dim, self.dim):
                raise DimensionMismatch("basis elements have inconsistent dimensions")
            assert_hermitian(a)
        if self.size:
            gram = np.einsum("aij,bji->ab", self.stack, self.stack).real
            dev = np.max(np.abs(gram - np.eye(self.size)))
            if dev > EQUALITY_TOL:
                raise ValueError(f"basis is not trace-orthonormal (max deviation {dev:.3e})")

    @property
    def size(self) -> int:
        return self.stack.shape[0]

    @property
    def basis(self) -> list[np.ndarray]:
        return [self.stack[i] for i in range(self.size)]

    def expectation_vector(self, state: QuantumState) -> np.ndarray:
        """Vector of expectation values of the basis elements in ``state``."""
        if state.dim != self.dim:
            raise DimensionMismatch(f"dimension mismatch: state {state.dim} vs space {self.dim}")
        if self.size == 0:
            return np.zeros(0)
        if state.is_pure:
            v = state._vector
            vals = np.einsum("i,aij,j->a", v.conj(), self.stack, v)
        else:
            vals = np.einsum("aij,ji->a", self.stack, state._rho)
        if vals.size and np.max(np.abs(vals.imag)) > EQUALITY_TOL:
            raise ValueError("expectation vector has a large imaginary part")
        return vals.real

    def project_operator(self, a) -> np.ndarray:
        """Orthogonal projection of a Hermitian operator onto this span."""
        a = assert_hermitian(a)
        if a.shape[0] != self.dim:
            raise DimensionMismatch(f"dimension mismatch: operator {a.shape[0]} vs space {self.dim}")
        if self.size == 0:
            return np.zeros_like(a)
        coeffs = np.einsum("aij,ji->a", self.stack, a).real
        return np.einsum("a,aij->ij", coeffs, self.stack)

    def residual_norm(self, a) -> float:
        a = assert_hermitian(a)
        resid = a - self.project_operator(a)
        return float(np.sqrt(max(trace_inner_product(resid, resid), 0.0)))

    def contains(self, a, tol: float = INDEPENDENCE_TOL) -> bool:
        a = assert_hermitian(a)
        scale = max(np.sqrt(max(trace_inner_product(a, a), 0.0)), 1.0)
        return self.residual_norm(a) <= tol * scale

    def traceless_sector(self) -> "ObservableSpace":
        """Project out the identity component and re-orthonormalize."""
        if self.traceless:
            return self
        eye = np.eye(self.dim)
        shifted = [a - (np.trace(a) / self.dim) * eye for a in self.basis]
        out = orthonormalize(shifted, label=self.label + "-traceless")
        out.irreducible_lie = self.irreducible_lie
        return out

    def __repr__(self):
        return f"ObservableSpace(label={self.label!r}, dim={self.dim}, size={self.size})"


def orthonormalize(ops, label: str = "") -> ObservableSpace:
    """Gram-Schmidt in the trace inner product, preserving input order.

    Inputs that are numerically dependent on earlier ones (residual norm
    below 1e-9) are dropped.  Raises if every input is numerically zero.
    """
    mats = [assert_hermitian(o) for o in ops]
    if not mats:
        raise ValueError("orthonormalize requires at least one operator")
    d = mats[0].shape[0]
    basis: list[np.ndarray] = []
    for a in mats:
        if a.shape[0] != d:
            raise DimensionMismatch("operators have inconsistent dimensions")
        v = a.astype(complex)
        for _ in range(2):  # second pass stabilizes nearly-dependent inputs
            for b in basis:
                v = v - trace_inner_product(b, v) * b
        nrm = np.sqrt(max(trace_inner_product(v, v), 0.0))
        if nrm >= INDEPENDENCE_TOL:
            basis.append(v / nrm)
    if not basis:
        raise ValueError("all inputs are numerically zero")
    return ObservableSpace(basis, label=label)


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


def bracket(x, y) -> np.ndarray:
    """Hermitian-preserving Lie bracket i(xy - yx) of Hermitian operators."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return 1.0j * (x @ y - y @ x)


def commutant_basis(generators, dim: int | None = None, label: str = "") -> ObservableSpace:
    """Trace-orthonormal basis of the traceless Hermitian commutant.

    Solves the linear system [X, g] = 0 for every generator g over the full
    traceless Hermitian operator basis.  With no generators the whole
    traceless space (dimension d**2 - 1) is returned.  The result may be the
    zero-dimensional space.
    """
    gens = [assert_hermitian(g) for g in generators]
    if gens:
        d = gens[0].shape[0]
        if any(g.shape[0] != d for g in gens):
            raise DimensionMismatch("generators have inconsistent dimensions")
        if dim is not None and dim != d:
            raise DimensionMismatch("dim does not match the generators")
    elif dim is None:
        raise ValueError("commutant of an empty set requires an explicit dim")
    else:
        d = int(dim)
    full = gell_mann_basis(d)
    if not gens:
        return ObservableSpace(full, label=label, dim=d, irreducible_lie=True,
                               max_purity=1.0 - 1.0 / d)
    full_stack = np.stack(full)
    blocks = []
    for g in gens:
        ad = 1.0j * (full_stack @ g - g @ full_stack)  # bracket of each basis element with g
        blocks.append(np.einsum("aij,bji->ab", full_stack, ad).real)
    system = np.vstack(blocks)
    _, svals, vt = np.linalg.svd(system)
    n_basis = len(full)
    null_rows = [vt[i] for i in range(n_basis) if i >= len(svals) or svals[i] < INDEPENDENCE_TOL]
    ops = [np.einsum("a,aij->ij", c, full_stack) for c in null_rows]
    ops = [0.5 * (o + o.conj().T) for o in ops]  # scrub roundoff asymmetry
    return ObservableSpace(ops, label=label, dim=d)


def lie_closure(generators, label: str = "") -> ObservableSpace:
    """Close a set of Hermitian operators under the bracket i[x, y].

    Repeatedly adjoins brackets of basis pairs and re-orthonormalizes until
    the spanned dimension stabilizes.
    """
    space = orthonormalize(generators, label=label)
    while True:
        ops = space.basis
        new = [bracket(ops[a], ops[b]) for a in range(len(ops)) for b in range(a + 1, len(ops))]
        candidate = orthonormalize(ops + new, label=label)
        if candidate.size == space.size:
            return candidate
        space = candidate
