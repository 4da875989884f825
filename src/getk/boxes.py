"""Exact convex-cone machinery for no-signalling box pairs.

Conditional-probability tables are kept as exact rationals throughout: no
floating point enters this module.  The joint table of a box pair is laid
out as the block matrix whose (k, l) block holds the outcome probabilities
for Alice's measurement k and Bob's measurement l, stored row-major with
row index ma*k + i and column index mb*l + j.
"""

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm

F0 = Fraction(0)
F1 = Fraction(1)

ENUMERATION_CAP = 6  # max n_inputs * n_outputs per side for vertex enumeration
NO_EMPTY_SIDE = "need at least one input and one output per side"


class InfeasibleError(ValueError):
    """The table violates the cone constraints."""

    exit_code = 4  # the command-line exit status for this error and SignallingError


class SignallingError(InfeasibleError):
    """The table's marginals depend on the remote measurement choice."""


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):  # immutable: no copy needed
        return value
    if isinstance(value, float):
        raise TypeError("box tables are exact; pass Fraction, int, or string, not float")
    return Fraction(value)


def whole_number(value) -> int:
    """A JSON number (or numeric string) that must be a whole number; never truncated."""
    if isinstance(value, bool):  # JSON true is not 1
        raise TypeError(f"expected an integer, got {value!r}")
    exact = Fraction(value)
    if exact.denominator != 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return exact.numerator


@dataclass(frozen=True)
class BoxState:
    """A single box: N alternative measurements with M outcomes each.

    ``probs`` is the flat table (p[0|0], ..., p[M-1|0], p[0|1], ...), i.e.
    outcomes grouped by measurement.
    """

    n_inputs: int
    n_outputs: int
    probs: tuple

    def __post_init__(self):
        probs = tuple(_coerce(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) != self.n_inputs * self.n_outputs:
            raise ValueError(f"expected {self.n_inputs * self.n_outputs} entries, got {len(probs)}")
        if any(p < 0 for p in probs):
            raise InfeasibleError("negative probability entry")
        for k in range(self.n_inputs):
            block = probs[k * self.n_outputs:(k + 1) * self.n_outputs]
            if sum(block) != 1:
                raise InfeasibleError(f"outcomes of measurement {k} sum to {sum(block)}, not 1")

    def prob(self, o: int, k: int) -> Fraction:
        return self.probs[k * self.n_outputs + o]

    def is_extremal(self) -> bool:
        """Vertices of the box polytope are exactly the deterministic tables."""
        return all(p == 0 or p == 1 for p in self.probs)

    def tensor(self, other: "BoxState") -> "BipartiteBoxState":
        """Product table p[ij|kl] = p_A[i|k] p_B[j|l]."""
        # Alice's flat index M*k + i is the joint row, Bob's the joint column
        shape = (self.n_inputs, self.n_outputs, other.n_inputs, other.n_outputs)
        return BipartiteBoxState(shape=shape,
                                 probs=tuple(a * b for a in self.probs for b in other.probs))


def deterministic_boxes(n_inputs: int, n_outputs: int) -> list:
    """All M^N deterministic single-box tables, in lexicographic order."""
    out = []
    for assignment in itertools.product(range(n_outputs), repeat=n_inputs):
        probs = [F0] * (n_inputs * n_outputs)
        for k, o in enumerate(assignment):
            probs[k * n_outputs + o] = F1
        out.append(BoxState(n_inputs, n_outputs, tuple(probs)))
    return out


@dataclass(frozen=True)
class BipartiteBoxState:
    """Joint conditional-probability table of a pair of boxes."""

    shape: tuple  # (na, ma, nb, mb)
    probs: tuple

    def __post_init__(self):
        na, ma, nb, mb = self.shape
        if min(self.shape) < 1:
            raise ValueError(NO_EMPTY_SIDE)
        probs = tuple(_coerce(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) != na * ma * nb * mb:
            raise ValueError(f"expected {na * ma * nb * mb} entries, got {len(probs)}")
        # integer numerators over the common denominator: a block sums to 1 iff to den
        den = lcm(*(p.denominator for p in probs))
        nums = [p.numerator * (den // p.denominator) for p in probs]
        if any(n < 0 for n in nums):
            raise InfeasibleError("negative probability entry")
        width = nb * mb
        for k in range(na):
            rows = range(ma * k * width, ma * (k + 1) * width, width)
            for l in range(nb):
                total = sum(sum(nums[r + mb * l:r + mb * (l + 1)]) for r in rows)
                if total != den:
                    raise InfeasibleError(f"block ({k},{l}) sums to {Fraction(total, den)}, not 1")

    def prob(self, i: int, j: int, k: int, l: int) -> Fraction:
        na, ma, nb, mb = self.shape
        return self.probs[(ma * k + i) * (nb * mb) + (mb * l + j)]

    def is_no_signalling(self) -> bool:
        try:
            marginals(self)
        except SignallingError:
            return False
        return True

    def to_json_dict(self) -> dict:
        na, ma, nb, mb = self.shape
        return {
            "n_inputs": [na, nb],
            "n_outputs": [ma, mb],
            "p": [[p.numerator, p.denominator] for p in self.probs],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BipartiteBoxState":
        na, nb = (whole_number(v) for v in obj["n_inputs"])
        ma, mb = (whole_number(v) for v in obj["n_outputs"])
        probs = tuple(Fraction(whole_number(num), whole_number(den)) for num, den in obj["p"])
        return cls(shape=(na, ma, nb, mb), probs=probs)

    @classmethod
    def from_matrix(cls, rows, shape=(2, 2, 2, 2)) -> "BipartiteBoxState":
        """Build from the nested block-matrix layout (rows of the joint table)."""
        flat = tuple(_coerce(v) for row in rows for v in row)
        return cls(shape=tuple(shape), probs=flat)


def marginals(state: BipartiteBoxState):
    """Exact marginal tables (Alice, Bob); the reduction map of this setting.

    Alice's table collects row sums within her blocks, Bob's the column
    sums; no-signalling makes them independent of the remote input, and a
    violation raises :class:`SignallingError`.
    """
    na, ma, nb, mb = state.shape
    alice = None
    for l in range(nb):
        cur = tuple(sum(state.prob(i, j, k, l) for j in range(mb))
                    for k in range(na) for i in range(ma))
        if alice is None:
            alice = cur
        elif cur != alice:
            raise SignallingError(f"Alice's marginal depends on Bob's input (l={l})")
    bob = None
    for k in range(na):
        cur = tuple(sum(state.prob(i, j, k, l) for i in range(ma))
                    for l in range(nb) for j in range(mb))
        if bob is None:
            bob = cur
        elif cur != bob:
            raise SignallingError(f"Bob's marginal depends on Alice's input (k={k})")
    return (BoxState(na, ma, alice), BoxState(nb, mb, bob))


@dataclass(frozen=True)
class PolyhedralCone:
    """Integer parametrization of the no-signalling polytope's affine hull.

    The coordinates are Collins & Gisin's (quant-ph/0306129): 1, then per
    side p(i|k) for every outcome i but the last, whose probability is 1
    minus the others.  Row r of ``matrix`` writes joint-table entry r as a
    linear form in the products of the two sides' coordinates, so the
    matrix is the Kronecker product of the sides' matrices: the joint state
    space is the maximal tensor product of the single-box ones (Barrett
    2007).  Column 0 is the constant; the polytope is {M (1, t) >= 0}.
    """

    shape: tuple
    ambient: int
    matrix: tuple  # ambient rows of integers; row . (1, t) is table entry r


def _side_matrix(n: int, m: int) -> list:
    """One box's (n*m) x (1 + n(m-1)) matrix, rows in the flat order m*k + i."""
    width = 1 + n * (m - 1)
    rows = []
    for k in range(n):
        own = range(1 + (m - 1) * k, 1 + (m - 1) * (k + 1))  # p(i|k) for i < m-1
        rows += [[int(c == col) for c in range(width)] for col in own]
        rows.append([1] + [-int(c in own) for c in range(1, width)])
    return rows


def no_signalling_polytope(na: int, ma: int, nb: int | None = None,
                           mb: int | None = None) -> PolyhedralCone:
    """The normalized no-signalling tables of an (na, ma) x (nb, mb) pair."""
    nb = na if nb is None else nb
    mb = ma if mb is None else mb
    if min(na, ma, nb, mb) < 1:
        raise ValueError(NO_EMPTY_SIDE)
    ambient = na * ma * nb * mb
    if ambient ** 2 > 10_000:
        raise ValueError(f"table size {ambient} too large")
    # Kronecker row (ma*k + i, mb*l + j) is the table's flat index (ma*k + i)*nb*mb + mb*l + j
    matrix = tuple(tuple(a * b for a in row_a for b in row_b)
                   for row_a in _side_matrix(na, ma) for row_b in _side_matrix(nb, mb))
    return PolyhedralCone(shape=(na, ma, nb, mb), ambient=ambient, matrix=matrix)


# ---------------------------------------------------------------------------
# exact linear algebra over Fraction


def _rref(rows):
    m = [[Fraction(x) for x in r] for r in rows]  # an int / int would be a float
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _rank(rows) -> int:
    if not rows:
        return 0
    _, pivots = _rref(rows)
    return len(pivots)


def affine_dimension(cone: PolyhedralCone) -> int:
    """Dimension of the normalized base polytope's affine hull."""
    return len(cone.matrix[0]) - 1


def _integerize(frac_row):
    mult = lcm(*(f.denominator for f in frac_row)) if frac_row else 1
    ints = [int(f * mult) for f in frac_row]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _extreme_rays(rows, dim):
    """Extreme rays of the pointed cone {y : row . y >= 0 for every row}, exactly.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996) over the
    integers: start from the simplicial cone of the first ``dim`` linearly
    independent rows, then add the other rows one at a time.  Each ray
    carries its zero set as an int bitmask over the rows added so far; a
    positive and a negative ray are combined only when they are adjacent,
    i.e. their common zero set has at least ``dim - 2`` rows and lies in no
    third ray's zero set.
    """
    _, basis = _rref([[row[c] for row in rows] for c in range(dim)])
    inv, _ = _rref([list(rows[b]) + [int(i == k) for k in range(dim)]
                    for i, b in enumerate(basis)])
    full = sum(1 << b for b in basis)
    rays = [_integerize([inv[c][dim + i] for c in range(dim)]) for i in range(dim)]
    masks = [full & ~(1 << b) for b in basis]
    done = set(basis)
    for h, row in enumerate(rows):
        if h in done:
            continue
        bit = 1 << h
        vals = [sum(a * y for a, y in zip(row, ray)) for ray in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays = [ray for ray, v in zip(rays, vals) if v >= 0]
        new_masks = [mk | bit if v == 0 else mk for mk, v in zip(masks, vals) if v >= 0]
        for i in pos:
            for j in neg:
                common = masks[i] & masks[j]
                if common.bit_count() < dim - 2:
                    continue
                if any(mk & common == common for k, mk in enumerate(masks)
                       if k != i and k != j):
                    continue
                vi, vj = vals[i], -vals[j]  # both positive; the combination is tight at h
                ray = [vi * yj + vj * yi for yi, yj in zip(rays[i], rays[j])]
                g = gcd(*ray)
                new_rays.append([v // g for v in ray])
                new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    return rays


def enumerate_vertices(cone: PolyhedralCone) -> list:
    """All vertices of the normalized polytope, exactly.

    With the constant column moved last as s, each row of the
    parametrization is an integer row on (t, s) with row . (t, s) = s x_r,
    and the vertices are the extreme rays of the cone of (t, s) on which
    every row is nonnegative, x_r = row . (t, s) / s.  Every block of the
    table sums to s, so that cone is pointed and s > 0 on each ray.
    """
    na, ma, nb, mb = cone.shape
    if na * ma > ENUMERATION_CAP or nb * mb > ENUMERATION_CAP:
        raise ValueError(f"enumeration capped at {ENUMERATION_CAP} input*output per side")
    p = affine_dimension(cone)
    rows = [row[1:] + row[:1] for row in cone.matrix]
    found = [tuple(Fraction(sum(a * y for a, y in zip(row, ray)), ray[p]) for row in rows)
             for ray in _extreme_rays(rows, p + 1)]
    return [BipartiteBoxState(shape=cone.shape, probs=probs) for probs in sorted(found)]


def is_extremal(state: BipartiteBoxState, cone: PolyhedralCone | None = None) -> bool:
    """Exact vertex test: the zero entries pin the table within the affine hull."""
    cone = cone or no_signalling_polytope(*state.shape)
    if state.shape != cone.shape:
        raise ValueError(f"state shape {state.shape} does not match cone shape {cone.shape}")
    marginals(state)  # raises SignallingError on violation
    # the table is M (1, t) for one t, and (1, t) spans the null space of the
    # zero entries' rows exactly when those rows have rank dim
    zeros = [row for row, val in zip(cone.matrix, state.probs) if val == 0]
    return _rank(zeros) == affine_dimension(cone)


class VertexClass(Enum):
    PRODUCT = "product"
    ENTANGLED = "entangled"


def classify_extremal(state: BipartiteBoxState,
                      cone: PolyhedralCone | None = None) -> VertexClass:
    """Split vertices into products and entangled extremal states.

    A vertex is a product exactly when both marginals are vertices of their
    single-box polytopes; in that case the joint table must factorize
    exactly, which is verified.
    """
    cone = cone or no_signalling_polytope(*state.shape)
    if not is_extremal(state, cone):
        raise ValueError("classification is defined for extremal states only")
    return _vertex_class(state)


def _vertex_class(vertex: BipartiteBoxState) -> VertexClass:
    """The marginal rule of :func:`classify_extremal` for a known vertex."""
    a, b = marginals(vertex)
    if a.is_extremal() and b.is_extremal():
        if a.tensor(b).probs != vertex.probs:
            raise AssertionError("deterministic marginals without exact factorization")
        return VertexClass.PRODUCT
    return VertexClass.ENTANGLED


def _side_generators(n: int, m: int) -> list:
    """Generators of one side's relabeling group, as maps from new flat index to old.

    Outcome i of input k has flat index m*k + i.  The maps are an input swap,
    an input cycle, and an outcome swap and an outcome cycle on input 0;
    together they generate all N!(M!)^N relabelings of the side.
    """
    def swap_and_cycle(r):  # a transposition and an r-cycle of range(r)
        return (*range(r)[1::-1], *range(2, r)), (*range(1, r), 0)

    def side_map(inputs=range(n), outcomes=range(m)):
        return tuple(m * inputs[k] + (outcomes[i] if k == 0 else i)
                     for k in range(n) for i in range(m))

    return ([side_map(inputs=p) for p in swap_and_cycle(n)]
            + [side_map(outcomes=p) for p in swap_and_cycle(m)])


def relabeling_orbit(state: BipartiteBoxState) -> list:
    """Orbit of a table under all local relabelings, sorted canonically.

    A breadth-first closure under both sides' generators, lifted to the joint
    table (a Schreier orbit; Holt, Eick & O'Brien 2005): the work grows with
    the orbit, not the group.  Entries are coded by their rank among the
    distinct values, which sorts the members as their probabilities would.
    """
    na, ma, nb, mb = state.shape
    width = nb * mb
    cells = [(r, c) for r in range(na * ma) for c in range(width)]
    moves = [tuple(a[r] * width + c for r, c in cells) for a in _side_generators(na, ma)]
    moves += [tuple(r * width + b[c] for r, c in cells) for b in _side_generators(nb, mb)]
    values = sorted(set(state.probs))
    orbit = [tuple(values.index(p) for p in state.probs)]
    seen = set(orbit)
    for code in orbit:  # the list grows while it is walked: a breadth-first search
        for move in moves:
            image = tuple([code[x] for x in move])
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return [BipartiteBoxState(shape=state.shape, probs=tuple(values[c] for c in code))
            for code in sorted(orbit)]


def _phase1_feasible(columns, target) -> bool:
    """Does target = sum_c mu_c columns[c] admit a solution with mu >= 0?

    Phase-1 simplex with Bland's rule over exact rationals; all target
    entries must be nonnegative (probability tables are).
    """
    m = len(target)
    n = len(columns)
    tab = []
    for r in range(m):
        row = [columns[c][r] for c in range(n)]
        row += [F1 if rr == r else F0 for rr in range(m)]
        row.append(target[r])
        tab.append(row)
    basis = list(range(n, n + m))
    total = n + m
    while True:
        entering = None
        for j in range(total):
            cost = F1 if j >= n else F0
            red = cost - sum(tab[r][j] for r in range(m) if basis[r] >= n)
            if red < 0:
                entering = j
                break
        if entering is None:
            break
        leave = None
        best = None
        for r in range(m):
            a = tab[r][entering]
            if a > 0:
                ratio = tab[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave is None:
            raise ArithmeticError("phase-1 simplex became unbounded")
        pv = tab[leave][entering]
        tab[leave] = [x / pv for x in tab[leave]]
        for r in range(m):
            if r != leave and tab[r][entering] != 0:
                f = tab[r][entering]
                tab[r] = [a - f * b for a, b in zip(tab[r], tab[leave])]
        basis[leave] = entering
    residual = sum(tab[r][-1] for r in range(m) if basis[r] >= n)
    return residual == 0


def in_convex_hull(state: BipartiteBoxState, vertices) -> bool:
    """Exact membership of a table in the convex hull of given tables.

    This is the membership primitive for any tensor product given by a
    user-supplied vertex list (anything between the separable and the
    maximal product is a legal choice of hull generators).
    """
    vertices = list(vertices)
    if any(v.shape != state.shape for v in vertices):
        raise ValueError("hull vertices must share the state's shape")
    if not vertices:
        return False
    return _phase1_feasible([v.probs for v in vertices], state.probs)


def in_separable_tensor_product(state: BipartiteBoxState) -> bool:
    """Exact membership test for the convex hull of product vertices."""
    na, ma, nb, mb = state.shape
    marginals(state)  # separability is asked of no-signalling states only
    products = [a.tensor(b)
                for a in deterministic_boxes(na, ma)
                for b in deterministic_boxes(nb, mb)]
    return in_convex_hull(state, products)


def is_generalized_unentangled_box(state: BipartiteBoxState,
                                   cone: PolyhedralCone | None = None) -> bool:
    """Unentanglement of a box pair relative to the marginal reduction.

    Extremal states are unentangled exactly when both marginals are
    extremal; non-extremal states exactly when they lie in the separable
    tensor product.
    """
    cone = cone or no_signalling_polytope(*state.shape)
    if is_extremal(state, cone):
        return _vertex_class(state) is VertexClass.PRODUCT
    return in_separable_tensor_product(state)


def canonical_product_vertex() -> BipartiteBoxState:
    """The product vertex with outcome 0 certain on every measurement."""
    det = deterministic_boxes(2, 2)[0]
    return det.tensor(det)


def canonical_entangled_vertex() -> BipartiteBoxState:
    """The correlated-box vertex: outcomes agree unless both inputs are 1."""
    probs = (Fraction(1, 2) if (i ^ j) == (k & l) else F0  # row-major: k, i, then l, j
             for k, i, l, j in itertools.product(range(2), repeat=4))
    return BipartiteBoxState(shape=(2, 2, 2, 2), probs=tuple(probs))
