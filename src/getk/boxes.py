"""Exact convex-cone machinery for no-signalling boxes.

Conditional-probability tables are kept as exact rationals throughout: no
floating point enters this module.  A table of N boxes has the flat shape
(n_1, m_1, ..., n_N, m_N): box s has n_s inputs and m_s outcomes, and its
own flat index is m_s*k + i for outcome i of input k.  The joint index is
mixed-radix over the boxes' flat indices, box 1 most significant.  For two
boxes that is the block matrix whose (k, l) block holds the outcomes of
Alice's input k and Bob's input l, row index ma*k + i and column index
mb*l + j.  Every function takes a table or a shape: the no-signalling
polytope of a shape is one integer Collins-Gisin matrix, the N-fold
Kronecker product of the single-box ones, built once per shape.  One box
(N = 1) runs through the same code as a pair; the command line takes two.
Box-table files are read by the package's :func:`getk.read_json_file`, the
reader state files share; it and :func:`getk.whole_number` are re-exported
here.  The module's linear algebra runs on integer rows: ``Fraction``
appears only where a table is read or written.
"""

import itertools
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm, prod

from . import StateParseError, read_json_file, whole_number  # also read as boxes.<name>

ENUMERATION_CAP = 6  # max n_inputs * n_outputs per side for vertex enumeration
SEPARABILITY_CAP = 256  # max product vertices per separability test: (4,2,4,2) takes < 1 s
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


def _boxes(shape) -> list:
    """The (inputs, outcomes) pair of each box in a flat shape (n_1, m_1, ..., n_N, m_N)."""
    if not shape or len(shape) % 2:
        raise ValueError(f"a shape lists inputs and outcomes per box, got {shape}")
    if min(shape) < 1:
        raise ValueError(NO_EMPTY_SIDE)
    return list(zip(shape[::2], shape[1::2]))


def _numerators(probs) -> tuple:
    """Integer numerators of the entries over their common denominator, and that denominator."""
    den = lcm(*(p.denominator for p in probs))
    return [p.numerator * (den // p.denominator) for p in probs], den


@lru_cache(maxsize=32)  # bounded: one entry per table shape
def _cell_inputs(shape: tuple) -> tuple:
    """Each flat cell's joint input (k_1, ..., k_N), in table order."""
    return tuple(itertools.product(*([k for k in range(n) for _ in range(m)]
                                     for n, m in _boxes(shape))))


class BoxState:
    """Conditional-probability table of one or more boxes, in the module's mixed-radix layout.

    Immutable, hashable and equal only to a table of the same class with the
    same ``shape`` (n_1, m_1, ..., n_N, m_N) and ``probs``.
    """

    def __init__(self, shape, probs):
        shape = tuple(shape)
        _boxes(shape)
        probs = tuple(_coerce(p) for p in probs)
        if len(probs) != prod(shape):
            raise ValueError(f"expected {prod(shape)} entries, got {len(probs)}")
        nums, den = _numerators(probs)  # a block sums to 1 iff its numerators sum to den
        if any(n < 0 for n in nums):
            raise InfeasibleError("negative probability entry")
        totals = {}
        for num, inputs in zip(nums, _cell_inputs(shape)):
            totals[inputs] = totals.get(inputs, 0) + num
        for inputs, total in totals.items():
            if total != den:
                block = ",".join(map(str, inputs))
                raise InfeasibleError(f"block ({block}) sums to {Fraction(total, den)}, not 1")
        self.__dict__.update(shape=shape, probs=probs)  # past the __setattr__ guard

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.shape, self.probs) == (other.shape, other.probs)

    def __hash__(self):
        return hash((self.shape, self.probs))

    def __repr__(self):
        return f"{type(self).__qualname__}(shape={self.shape!r}, probs={self.probs!r})"

    def to_json_dict(self) -> dict:
        return {"n_inputs": list(self.shape[::2]), "n_outputs": list(self.shape[1::2]),
                "p": [[p.numerator, p.denominator] for p in self.probs]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BoxState":
        inputs = [whole_number(v) for v in obj["n_inputs"]]
        outputs = [whole_number(v) for v in obj["n_outputs"]]
        if len(inputs) != len(outputs):
            raise ValueError(f"{len(inputs)} input counts but {len(outputs)} output counts")
        probs = tuple(Fraction(whole_number(num), whole_number(den)) for num, den in obj["p"])
        return cls(shape=tuple(itertools.chain(*zip(inputs, outputs))), probs=probs)


def marginals(state: BoxState) -> tuple:
    """Exact single-box marginal tables, one per box; the reduction map of this setting.

    No box may signal: summed over box s's outcomes, the table must not
    depend on box s's input (else :class:`SignallingError`).  Box s's
    marginal then sums out the other boxes' outcomes at any one choice of
    their inputs: the sum over every choice, divided by their number.
    """
    shape = state.shape
    nums, den = _numerators(state.probs)
    out = []
    for s, (n, m) in enumerate(_boxes(shape)):
        inner = prod(shape[2 * s + 2:])  # cells per flat index of box s
        # runs of cells in mixed-radix order (earlier boxes' indices, k, i)
        runs = [nums[c:c + inner] for c in range(0, len(nums), inner)]
        for o in range(0, len(runs), n * m):
            summed = [[sum(col) for col in zip(*runs[o + m * k:o + m * (k + 1)])]
                      for k in range(n)]
            k = next((k for k in range(1, n) if summed[k] != summed[0]), None)
            if k is not None:
                raise SignallingError(f"box {s + 1}'s input signals: the other boxes' "
                                      f"marginal differs between its inputs 0 and {k}")
        choices = prod(shape[::2]) // n
        out.append(BoxState((n, m), tuple(
            Fraction(sum(sum(runs[o + r]) for o in range(0, len(runs), n * m)), den * choices)
            for r in range(n * m))))
    return tuple(out)


def _side_matrix(n: int, m: int) -> list:
    """One box's (n*m) x (1 + n(m-1)) matrix, rows in the flat order m*k + i."""
    width = 1 + n * (m - 1)
    rows = []
    for k in range(n):
        own = range(1 + (m - 1) * k, 1 + (m - 1) * (k + 1))  # p(i|k) for i < m-1
        rows += [[int(c == col) for c in range(width)] for col in own]
        rows.append([1] + [-int(c in own) for c in range(1, width)])
    return rows


def _kron(a, b) -> list:
    """Kronecker product of two lists of integer rows, a's index most significant."""
    return [tuple(x * y for x in ra for y in rb) for ra in a for rb in b]


@lru_cache(maxsize=32)  # bounded: one entry per table shape
def no_signalling_polytope(*shape: int) -> tuple:
    """The normalized no-signalling tables of boxes of shape (n_1, m_1, ..., n_N, m_N).

    They are {M (1, t) >= 0} for the returned integer matrix M, one row tuple per
    table entry, in Collins & Gisin's coordinates (quant-ph/0306129): 1, then per box
    p(i|k) for every outcome i but the last.  Row r writes entry r as a linear form in
    the products of the boxes' coordinates, so M is the Kronecker product of the boxes'
    matrices: the joint state space is the maximal tensor product of the single-box ones
    (Barrett 2007).  Column 0 is the constant; the affine hull has dimension len(M[0]) - 1.
    """
    pairs = _boxes(shape)
    if prod(shape) ** 2 > 10_000:
        raise ValueError(f"table size {prod(shape)} too large")
    # the Kronecker row order is the table's mixed-radix order
    return tuple(reduce(_kron, (_side_matrix(n, m) for n, m in pairs), [(1,)]))


# ---------------------------------------------------------------------------
# exact linear algebra over the integers (fraction-free)


def _primitive(row):
    g = gcd(*row) or 1  # a zero row stays zero
    return [x // g for x in row]


def _pivot(rows, r, c):
    """One fraction-free Gauss-Jordan step in place: every other row becomes pv * row -
    f * rows[r] over its gcd (pv = rows[r][c]), a multiple of the rational step's row,
    by a positive factor when pv > 0."""
    pv, prow = rows[r][c], rows[r]
    for i, row in enumerate(rows):
        if i != r and (f := row[c]):
            rows[i] = _primitive([pv * a - f * b for a, b in zip(row, prow)])


def _rref(rows):
    """Integer rows in reduced echelon form, and the pivot columns; a pivot entry need not
    be 1, but row i over its pivot entry is the rational form's row i."""
    m, pivots = [list(r) for r in rows], []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is not None:
            m[r], m[pr] = m[pr], m[r]
            _pivot(m, r, c)
            pivots.append(c)
    return m, pivots


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
    # row c is p_c (e_c | row c of B^-1): scaled to one common positive pivot, column i is ray i
    scale = lcm(*(row[c] for c, row in enumerate(inv)))
    rays = [_primitive([row[dim + i] * (scale // row[c]) for c, row in enumerate(inv)])
            for i in range(dim)]
    full = sum(1 << b for b in basis)
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
                new_rays.append(_primitive(ray))
                new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    return rays


def enumerate_vertices(*shape: int) -> list:
    """All vertices of the normalized polytope of boxes of the given shape, exactly.

    With the constant column moved last as s, each row of the
    parametrization is an integer row on (t, s) with row . (t, s) = s x_r,
    and the vertices are the extreme rays of the cone of (t, s) on which
    every row is nonnegative, x_r = row . (t, s) / s.  Every block of the
    table sums to s, so that cone is pointed and s > 0 on each ray.
    """
    if any(n * m > ENUMERATION_CAP for n, m in _boxes(shape)):
        raise ValueError(f"enumeration capped at {ENUMERATION_CAP} input*output per side")
    if prod(shape) > ENUMERATION_CAP ** 2:  # the largest two-box table in the cap
        raise ValueError(f"enumeration capped at {ENUMERATION_CAP ** 2} table entries, "
                         f"got {prod(shape)}")
    matrix = no_signalling_polytope(*shape)
    p = len(matrix[0]) - 1
    rows = [row[1:] + row[:1] for row in matrix]
    found = [tuple(Fraction(sum(a * y for a, y in zip(row, ray)), ray[p]) for row in rows)
             for ray in _extreme_rays(rows, p + 1)]
    return [BoxState(shape=shape, probs=probs) for probs in sorted(found)]


def is_extremal(state: BoxState) -> bool:
    """Exact vertex test: the zero entries pin the table within the affine hull."""
    matrix = no_signalling_polytope(*state.shape)
    marginals(state)  # raises SignallingError on violation
    # the table is M (1, t) for one t, and (1, t) spans the null space of the
    # zero entries' rows exactly when those rows have rank len(t)
    zeros = [row for row, val in zip(matrix, state.probs) if val == 0]
    return len(_rref(zeros)[1]) == len(matrix[0]) - 1


class VertexClass(Enum):
    PRODUCT = "product"
    ENTANGLED = "entangled"


def vertex_class(vertex: BoxState) -> VertexClass:
    """Class of a known vertex (see :func:`is_extremal`): a product exactly when every
    marginal is deterministic.  No-signalling then fixes the table to that product: an
    entry is at most each of its marginal probabilities, and every block sums to 1."""
    parts = marginals(vertex)
    if all(p == 0 or p == 1 for part in parts for p in part.probs):
        return VertexClass.PRODUCT
    return VertexClass.ENTANGLED


def _side_generators(n: int, m: int) -> list:
    """Generators of one box's relabeling group, as maps from new flat index to old.

    Outcome i of input k has flat index m*k + i.  The maps are an input swap,
    an input cycle, and an outcome swap and an outcome cycle on input 0;
    together they generate all N!(M!)^N relabelings of the box.
    """
    def swap_and_cycle(r):  # a transposition and an r-cycle of range(r)
        return (*range(r)[1::-1], *range(2, r)), (*range(1, r), 0)

    def side_map(inputs=range(n), outcomes=range(m)):
        return tuple(m * inputs[k] + (outcomes[i] if k == 0 else i)
                     for k in range(n) for i in range(m))

    return ([side_map(inputs=p) for p in swap_and_cycle(n)]
            + [side_map(outcomes=p) for p in swap_and_cycle(m)])


@lru_cache(maxsize=32)
def _lifted_generators(shape: tuple) -> tuple:
    """Every box's relabeling generators, lifted to maps from new joint index to old."""
    pairs = _boxes(shape)
    digits = list(itertools.product(*(range(n * m) for n, m in pairs)))  # per-box flat indices
    cell = {d: c for c, d in enumerate(digits)}
    return tuple(tuple(cell[d[:s] + (g[d[s]],) + d[s + 1:]] for d in digits)
                 for s, (n, m) in enumerate(pairs) for g in _side_generators(n, m))


def relabeling_orbit(state: BoxState) -> list:
    """Orbit of a table under all local relabelings, sorted canonically.

    A breadth-first closure under every box's generators, lifted to the joint
    table (a Schreier orbit; Holt, Eick & O'Brien 2005): the work grows with
    the orbit, not the group.  Entries are coded by their rank among the
    distinct values, which sorts the members as their probabilities would.
    """
    moves = _lifted_generators(state.shape)
    values = sorted(set(state.probs))
    orbit = [tuple(values.index(p) for p in state.probs)]
    seen = set(orbit)
    for code in orbit:  # the list grows while it is walked: a breadth-first search
        for move in moves:
            image = tuple([code[x] for x in move])
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return [BoxState(shape=state.shape, probs=tuple(values[c] for c in code))
            for code in sorted(orbit)]


def _phase1_feasible(columns, target) -> bool:
    """Does target = sum_c mu_c columns[c] admit a solution with mu >= 0?

    Phase-1 simplex with Bland's rule on an integer tableau, one artificial per row; entries
    are integers, target's nonnegative.  Row m is the reduced-cost row of the artificials'
    sum, kept current by each pivot; its last entry, minus that sum, ends at 0 iff feasible.
    Pivots scale rows by positive factors, which keep every ratio and reduced-cost sign.
    """
    m, n = len(target), len(columns)
    tab = [[col[r] for col in columns] + [int(rr == r) for rr in range(m)] + [target[r]]
           for r in range(m)]
    tab.append([-sum(col) for col in columns] + [0] * m + [-sum(target)])
    basis = list(range(n, n + m))
    while (entering := next((j for j, red in enumerate(tab[m][:-1]) if red < 0), None)) is not None:
        ratios = [(Fraction(tab[r][-1], tab[r][entering]), basis[r], r)
                  for r in range(m) if tab[r][entering] > 0]
        if not ratios:
            raise ArithmeticError("phase-1 simplex became unbounded")
        leave = min(ratios)[2]  # least ratio, ties to the least basic index (Bland)
        _pivot(tab, leave, entering)
        basis[leave] = entering
    return tab[m][-1] == 0


def in_convex_hull(state: BoxState, vertices) -> bool:
    """Exact membership of a table in the convex hull of given tables.

    This is the membership primitive for any tensor product given by a
    user-supplied vertex list (anything between the separable and the
    maximal product is a legal choice of hull generators).
    """
    vertices = list(vertices)
    if any(v.shape != state.shape for v in vertices):
        raise ValueError("hull vertices must share the state's shape")
    columns = [_numerators(v.probs)[0] for v in vertices]  # a column scaled by its denominator
    return bool(vertices) and _phase1_feasible(columns, _numerators(state.probs)[0])


def in_separable_tensor_product(state: BoxState) -> bool:
    """Exact membership in the hull of product vertices (a vertex lies in it iff it is one).

    A shape over 100 entries or ``SEPARABILITY_CAP`` product vertices is refused first."""
    marginals(state)  # separability is asked of no-signalling states only
    no_signalling_polytope(*state.shape)  # its table-size rule
    if (count := prod(m ** n for n, m in _boxes(state.shape))) > SEPARABILITY_CAP:
        raise ValueError(f"separability capped at {SEPARABILITY_CAP} product vertices, got {count}")
    return _phase1_feasible(_product_columns(state.shape), _numerators(state.probs)[0])


def _product_columns(shape) -> list:
    """The 0/1 product vertices of a shape, in lexicographic order of each box's outcomes.

    Each is the Kronecker product of one deterministic row per box: p(i|k) = [i == o_k]."""
    return reduce(_kron, ([[int(i == o) for o in outcomes for i in range(m)]  # flat index m*k + i
                           for outcomes in itertools.product(range(m), repeat=n)]
                          for n, m in _boxes(shape)), [(1,)])


def canonical_product_vertex() -> BoxState:
    """The product vertex with outcome 0 certain on every measurement."""
    return BoxState((2, 2, 2, 2), _product_columns((2, 2, 2, 2))[0])


def canonical_entangled_vertex() -> BoxState:
    """The correlated-box vertex: outcomes agree unless both inputs are 1."""
    probs = (Fraction(int((i ^ j) == (k & l)), 2)  # row-major: k, i, then l, j
             for k, i, l, j in itertools.product(range(2), repeat=4))
    return BoxState(shape=(2, 2, 2, 2), probs=tuple(probs))
