"""Dense complex linear algebra for finite-dimensional quantum systems.

Operators are plain numpy arrays of shape (d, d) and dtype complex; states
are wrapped in :class:`QuantumState` so pure vectors and density matrices
share one interface.  Real-linear spaces of Hermitian observables carry a
trace-orthonormal basis and live in :class:`ObservableSpace`.
"""

from functools import cached_property, lru_cache

import numpy as np

MAX_DIM = 1024  # largest Hilbert-space dimension a state or an algebra may allocate

# Fixed numerical policy: dimensions stay small (<= MAX_DIM), so double
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

    exit_code = 3  # the command-line exit status for this error


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
            if not np.all(np.isfinite(v)):
                raise ValueError("pure state has non-finite entries")
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


def _real_rows(ops) -> np.ndarray:
    """Real view, one row per operator: for Hermitian a, b, Re Tr(a b) is a row dot product."""
    ops = np.ascontiguousarray(ops, dtype=complex)
    return ops.reshape(ops.shape[:-2] + (ops.shape[-1] ** 2,)).view(np.float64)


class ObservableSpace:
    """Real-linear span of Hermitian operators with a trace-orthonormal basis.

    ``irreducible_lie`` marks spaces that are Lie algebras represented
    irreducibly on the carrier space (this decides which direction of the
    maximal-purity criterion applies).  ``max_purity`` optionally records the
    analytic maximum of the raw traceless purity over pure states.  A space
    is immutable once built: the catalog hands the same instance to every
    caller.

    With ``sites=n``, ``basis`` is a traceless basis on C^D and the space
    holds each x on each site, times 1/sqrt(D) on the other n - 1 sites.
    Only the D x D basis is validated (traceless elements on different
    sites are orthogonal), expectations come from the single-site
    reductions, and the dense ``stack`` is built when first read.
    """

    def __init__(self, basis, label: str = "", *, dim: int | None = None,
                 irreducible_lie: bool = False, max_purity: float | None = None,
                 sites: int | None = None):
        ops = [np.asarray(b, dtype=complex) for b in basis]
        if not ops and dim is None:
            raise ValueError("empty basis requires an explicit dim")
        d = int(dim) if dim is not None else ops[0].shape[0]
        mats = np.stack(ops) if ops else np.zeros((0, d, d), dtype=complex)
        mats.setflags(write=False)
        if mats.shape[1:] != (d, d):
            raise DimensionMismatch("basis elements have inconsistent dimensions")
        self.label = label
        self.irreducible_lie = bool(irreducible_lie)
        self.max_purity = None if max_purity is None else float(max_purity)
        self.sites = sites
        self.dim, self.size = d ** (sites or 1), len(mats) * (sites or 1)
        setattr(self, "stack" if sites is None else "site_basis", mats)
        for a in mats:
            assert_hermitian(a)
        rows = _real_rows(mats)
        dev = np.max(np.abs(rows @ rows.T - np.eye(len(mats))), initial=0.0)
        if dev > EQUALITY_TOL:
            raise ValueError(f"basis is not trace-orthonormal (max deviation {dev:.3e})")
        # set last: from here on __setattr__ refuses every assignment
        self.traceless = bool(np.all(np.abs(np.einsum("aii->a", mats)) <= EQUALITY_TOL))
        if sites is not None and not self.traceless:
            raise ValueError("a site-factored space needs a traceless site basis")

    def __setattr__(self, name, value):
        if hasattr(self, "traceless"):
            raise AttributeError(f"ObservableSpace is immutable; cannot set {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        raise AttributeError(f"ObservableSpace is immutable; cannot delete {name!r}")

    @cached_property  # writes the instance __dict__ directly, past __setattr__
    def stack(self) -> np.ndarray:
        """The dense (size, dim, dim) basis; only site-factored spaces get here."""
        d = self.site_basis.shape[1]
        factors = [np.eye(d, dtype=complex) / np.sqrt(d)] * self.sites
        stack = np.stack([kron_all(factors[:pos] + [x] + factors[pos + 1:])
                          for pos in range(self.sites) for x in self.site_basis])
        stack.setflags(write=False)
        return stack

    @property
    def basis(self) -> list[np.ndarray]:
        return [self.stack[i] for i in range(self.size)]

    def expectation_vector(self, state: QuantumState) -> np.ndarray:
        """Vector of expectation values of the basis elements in ``state``."""
        if state.dim != self.dim:
            raise DimensionMismatch(f"dimension mismatch: state {state.dim} vs space {self.dim}")
        if self.sites is not None:
            vals = self._site_expectations(state)
        elif state.is_pure:
            v = state._vector
            vals = np.einsum("i,aij,j->a", v.conj(), self.stack, v)
        else:
            vals = np.einsum("aij,ji->a", self.stack, state._rho)
        if vals.size and np.max(np.abs(vals.imag)) > EQUALITY_TOL:
            raise ValueError("expectation vector has a large imaginary part")
        return vals.real

    def _site_expectations(self, state: QuantumState) -> np.ndarray:
        """Tr(rho_l x) D^(-(n-1)/2) from the single-site reductions rho_l."""
        n, d = self.sites, self.site_basis.shape[1]
        shapes = [(d ** pos, d, d ** (n - pos - 1)) for pos in range(n)]  # (left, site, right)
        if state.is_pure:
            vs = [state._vector.reshape(shape) for shape in shapes]
            reduced = [np.einsum("aib,ajb->ij", v, v.conj()) for v in vs]
        else:
            reduced = [np.einsum("aibajb->ij", state._rho.reshape(s * 2)) for s in shapes]
        # einsum, not a BLAS product: the sums stay exactly zero where they cancel
        return np.einsum("lij,aji->la", np.array(reduced), self.site_basis).ravel() \
            * d ** (-(n - 1) / 2)

    def project_operator(self, a) -> np.ndarray:
        """Orthogonal projection of a Hermitian operator onto this span."""
        a = assert_hermitian(a)
        if a.shape[0] != self.dim:
            raise DimensionMismatch(f"dimension mismatch: operator {a.shape[0]} vs space {self.dim}")
        rows = _real_rows(self.stack)
        coeffs = rows @ _real_rows(a)
        return (coeffs @ rows).view(complex).reshape(self.dim, self.dim)

    def residual_norm(self, a) -> float:
        a = assert_hermitian(a)
        resid = a - self.project_operator(a)
        return float(np.sqrt(max(trace_inner_product(resid, resid), 0.0)))

    def contains(self, a, tol: float = INDEPENDENCE_TOL) -> bool:
        a = assert_hermitian(a)
        scale = max(np.sqrt(max(trace_inner_product(a, a), 0.0)), 1.0)
        return self.residual_norm(a) <= tol * scale

    @lru_cache(maxsize=32)  # spaces are immutable and hash by identity
    def traceless_sector(self) -> "ObservableSpace":
        """Project out the identity component and re-orthonormalize; built once per space."""
        if self.traceless:
            return self
        eye = np.eye(self.dim)
        shifted = [a - (np.trace(a) / self.dim) * eye for a in self.basis]
        if all(np.linalg.norm(a) < INDEPENDENCE_TOL for a in shifted):
            raise ValueError(f"algebra {self.label!r} has no traceless part")
        sector = orthonormalize(shifted)
        return ObservableSpace(sector.stack, label=self.label + "-traceless",
                               irreducible_lie=self.irreducible_lie)

    def __repr__(self):
        return f"ObservableSpace(label={self.label!r}, dim={self.dim}, size={self.size})"


def orthonormalize(ops, label: str = "") -> ObservableSpace:
    """Gram-Schmidt in the trace inner product, preserving input order.

    Two passes of classical Gram-Schmidt on the real rows of the operators.
    Inputs that are numerically dependent on earlier ones (residual norm
    below 1e-9) are dropped.  Raises if every input is numerically zero.
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
        v, done = rows[i], rows[:kept]
        for _ in range(2):  # second pass stabilizes nearly-dependent inputs
            v -= done.T @ (done @ v)
        nrm = np.linalg.norm(v)
        if nrm >= INDEPENDENCE_TOL:
            rows[kept] = v / nrm
            kept += 1
    if not kept:
        raise ValueError("all inputs are numerically zero")
    return ObservableSpace(stack[:kept], label=label)


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
    rows = _real_rows(full_stack)
    # block g holds Re Tr(X_a i[X_b, g]) for every pair of basis elements
    system = np.vstack([rows @ _real_rows(1j * (full_stack @ g - g @ full_stack)).T for g in gens])
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
