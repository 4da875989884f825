import copy
import itertools
import json
import pickle
import random
from fractions import Fraction
from math import factorial, gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from getk import boxes
from getk.boxes import (
    BoxState,
    InfeasibleError,
    SignallingError,
    VertexClass,
    _rref,
    _side_generators,
    canonical_entangled_vertex,
    canonical_product_vertex,
    enumerate_vertices,
    in_convex_hull,
    in_separable_tensor_product,
    is_extremal,
    marginals,
    no_signalling_polytope,
    relabeling_orbit,
    vertex_class,
)

F = Fraction
HALF = F(1, 2)

_SQUARE_PAIR_CACHE = {}


def deterministic_boxes(n_inputs: int, n_outputs: int) -> list:
    """Oracle: all M^N deterministic single-box tables, in lexicographic order of outcomes."""
    return [BoxState((n_inputs, n_outputs), tuple(F(int(i == o))  # flat index M*k + i
                                                  for o in outcomes for i in range(n_outputs)))
            for outcomes in itertools.product(range(n_outputs), repeat=n_inputs)]


def product_table(*tables: BoxState) -> BoxState:
    """Oracle: the product table p[ij|kl] = p_A[i|k] p_B[j|l], the first table's boxes first."""
    return BoxState(sum((t.shape for t in tables), ()),
                    tuple(prod(ps) for ps in itertools.product(*(t.probs for t in tables))))


def square_pair():
    """Shared vertex list for the (2,2)x(2,2) pair (enumeration is the slow part)."""
    if "v" not in _SQUARE_PAIR_CACHE:
        _SQUARE_PAIR_CACHE["v"] = enumerate_vertices(2, 2, 2, 2)
    return _SQUARE_PAIR_CACHE["v"]


def oracle_vertices():
    """Independent construction: deterministic tables and correlated boxes.

    Deterministic: i = alpha*k xor beta, j = gamma*l xor delta.
    Correlated: p = 1/2 on i xor j = k*l xor alpha*k xor beta*l xor gamma.
    """
    out = set()
    for alpha, beta, gamma, delta in itertools.product((0, 1), repeat=4):
        probs = []
        for k in range(2):
            for i in range(2):
                for l in range(2):
                    for j in range(2):
                        hit = i == (alpha * k) ^ beta and j == (gamma * l) ^ delta
                        probs.append(F(1) if hit else F(0))
        out.add(tuple(probs))
    assert len(out) == 16
    for alpha, beta, gamma in itertools.product((0, 1), repeat=3):
        probs = []
        for k in range(2):
            for i in range(2):
                for l in range(2):
                    for j in range(2):
                        hit = (i ^ j) == (k & l) ^ (alpha & k) ^ (beta & l) ^ gamma
                        probs.append(HALF if hit else F(0))
        out.add(tuple(probs))
    assert len(out) == 24
    return out


def h_representation(shape):
    """Independent description of the polytope: its equalities and its unit row.

    Coordinates are the joint-table entries.  Each equality row a has
    a . x = 0: all block sums are equal, Bob's column sums do not depend on
    Alice's input, and Alice's row sums do not depend on Bob's.  The unit
    row sums block (0, 0); its level set 1 is the normalization.
    """
    na, ma, nb, mb = shape
    ambient = na * ma * nb * mb

    def idx(i, j, k, l):
        return (ma * k + i) * (nb * mb) + (mb * l + j)

    eqs = []
    for k in range(na):
        for l in range(nb):
            if (k, l) == (0, 0):
                continue
            row = [F(0)] * ambient
            for i in range(ma):
                for j in range(mb):
                    row[idx(i, j, k, l)] += 1
                    row[idx(i, j, 0, 0)] -= 1
            eqs.append(row)
    for l in range(nb):
        for j in range(mb):
            for k in range(1, na):
                row = [F(0)] * ambient
                for i in range(ma):
                    row[idx(i, j, k, l)] += 1
                    row[idx(i, j, 0, l)] -= 1
                eqs.append(row)
    for k in range(na):
        for i in range(ma):
            for l in range(1, nb):
                row = [F(0)] * ambient
                for j in range(mb):
                    row[idx(i, j, k, l)] += 1
                    row[idx(i, j, k, 0)] -= 1
                eqs.append(row)
    unit = [F(0)] * ambient
    for i in range(ma):
        for j in range(mb):
            unit[idx(i, j, 0, 0)] = F(1)
    return eqs, unit


def fraction_pivot(rows, r, c):
    """One rational Gauss-Jordan step in place: scale row r to 1 at column c, clear c elsewhere."""
    pv = rows[r][c]
    rows[r] = [x / pv for x in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]


def fraction_rref(rows):
    """Reduced row echelon form over the rationals, with pivot entries 1, and its pivots."""
    m = [[F(x) for x in r] for r in rows]  # an int / int would be a float
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is not None:
            m[r], m[pr] = m[pr], m[r]
            fraction_pivot(m, r, c)
            pivots.append(c)
    return m, pivots


def oracle_rank(rows) -> int:
    return len(fraction_rref(rows)[1])


def integerize(frac_row):
    """The primitive integer row that is a positive multiple of a rational row."""
    mult = lcm(*(f.denominator for f in frac_row)) if frac_row else 1
    ints = [int(f * mult) for f in frac_row]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def affine_solution(aug_rows, ncols):
    """Particular solution and nullspace basis of [A | b] over the rationals."""
    m, pivots = fraction_rref(aug_rows)
    assert ncols not in pivots, "equality system is inconsistent"
    x0 = [F(0)] * ncols
    for r, c in enumerate(pivots):
        x0[c] = m[r][ncols]
    free = [c for c in range(ncols) if c not in set(pivots)]
    null = []
    for f in free:
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        null.append(v)
    return x0, null


def brute_force_vertices(shape):
    """Reference enumerator: every independent tight set, solved exactly.

    Parametrizes the affine hull of :func:`h_representation` as x0 + N t,
    picks affine-dimension many linearly independent nonnegativity rows (by
    incremental integer elimination, pruning dependent prefixes), solves the
    square system and keeps the feasible solutions.  A feasible point pinned
    by an independent tight set of full rank is a vertex; duplicates from
    larger tight sets merge.  Combinatorial in the size, so only for small
    polytopes.  Returns the sorted probability tuples.
    """
    eqs, unit = h_representation(shape)
    ambient = len(unit)
    x0, null = affine_solution([e + [F(0)] for e in eqs] + [unit + [F(1)]], ambient)
    p = len(null)
    base_rows = [integerize([null[q][r] for q in range(p)] + [x0[r]])
                 for r in range(ambient)]
    found = set()

    def solve_and_record(pivot_list):
        t = [F(0)] * p
        for col, row in reversed(pivot_list):
            acc = F(row[p]) + sum(row[jj] * t[jj] for jj in range(p) if jj != col and row[jj])
            t[col] = -acc / row[col]
        x = tuple(x0[r] + sum(null[q][r] * t[q] for q in range(p) if t[q])
                  for r in range(ambient))
        if all(v >= 0 for v in x):
            found.add(x)

    def recurse(rows, pivot_list):
        need = p - len(pivot_list)
        if need == 0:
            solve_and_record(pivot_list)
            return
        for s in range(len(rows) - need + 1):
            row = rows[s]
            col = next((j for j in range(p) if row[j]), None)
            if col is None:
                continue
            rc = row[col]
            tail = []
            for r2 in rows[s + 1:]:
                if r2[col]:
                    nr = [rc * a - r2[col] * b for a, b in zip(r2, row)]
                    g = gcd(*nr)
                    tail.append([v // g for v in nr] if g > 1 else nr)
                else:
                    tail.append(r2)
            recurse(tail, pivot_list + [(col, row)])

    recurse(base_rows, [])
    return sorted(found)


def side_relabelings(n, m):
    """Every relabeling of one side, as a map from new flat index m*k + i to old.

    Input slot k reads old input ``inputs[k]``, whose outcome i reads old
    outcome ``outs[k][i]``: all N!(M!)^N maps, the identity first.
    """
    out_perms = list(itertools.permutations(range(m)))
    return [tuple(m * inputs[k] + outs[k][i] for k in range(n) for i in range(m))
            for inputs in itertools.permutations(range(n))
            for outs in itertools.product(out_perms, repeat=n)]


def joint_map(shape, alice, bob):
    """The re-indexing of the joint table by one map per side."""
    na, ma, nb, mb = shape
    cols = nb * mb
    return tuple(alice[r] * cols + bob[c] for r in range(na * ma) for c in range(cols))


def relabel(state, move):
    return BoxState(shape=state.shape, probs=tuple(state.probs[x] for x in move))


def oracle_orbit(state):
    """Reference orbit: walk the whole group, every pair of side maps; sorted tables."""
    na, ma, nb, mb = state.shape
    return sorted({tuple(state.probs[x] for x in joint_map(state.shape, a, b))
                   for a in side_relabelings(na, ma) for b in side_relabelings(nb, mb)})


_VERTEX_CACHE = {}
# every single box (inputs, outputs) that vertex enumeration takes
CAP_SIDES = [(n, m) for n in range(1, 7) for m in range(1, 7) if n * m <= boxes.ENUMERATION_CAP]


def vertices_of(shape):
    if shape not in _VERTEX_CACHE:
        _VERTEX_CACHE[shape] = enumerate_vertices(*shape)
    return _VERTEX_CACHE[shape]


def rational_mixture(shape, rng, terms=3):
    """A seeded mixture of random vertices with random positive integer weights."""
    verts = vertices_of(shape)
    picks = [rng.choice(verts) for _ in range(terms)]
    weights = [rng.randint(1, 9) for _ in picks]
    total = sum(weights)
    probs = tuple(sum(F(w, total) * v.probs[r] for w, v in zip(weights, picks))
                  for r in range(len(verts[0].probs)))
    return BoxState(shape=shape, probs=probs)


def from_matrix(rows, shape=(2, 2, 2, 2)):
    """A two-box table from the nested block-matrix layout (rows of the joint table)."""
    return BoxState(shape=shape, probs=tuple(v for row in rows for v in row))


def no_signalling(state):
    try:
        marginals(state)
    except SignallingError:
        return False
    return True


def entry(state, i, j, k, l):
    """p(i, j | k, l) of a two-box table, read through the block-matrix layout."""
    na, ma, nb, mb = state.shape
    return state.probs[(ma * k + i) * (nb * mb) + (mb * l + j)]


def displayed_entangled_matrix():
    return from_matrix([
        ["1/2", 0, "1/2", 0],
        [0, "1/2", 0, "1/2"],
        ["1/2", 0, 0, "1/2"],
        [0, "1/2", "1/2", 0],
    ])


def displayed_product_matrix():
    return from_matrix([
        [1, 0, 1, 0],
        [0, 0, 0, 0],
        [1, 0, 1, 0],
        [0, 0, 0, 0],
    ])


class TestBoxState:
    """One box: the N = 1 case of the table class."""

    def test_valid(self):
        box = BoxState((2, 2), (F(1), F(0), HALF, HALF))
        assert box.shape == (2, 2)
        assert box.probs[0] == 1  # p(0|0), flat index m*k + i
        assert box.probs[3] == HALF  # p(1|1)
        assert marginals(box) == (box,)

    def test_normalization_enforced(self):
        with pytest.raises(InfeasibleError, match=r"^block \(0\) sums to 2, not 1$"):
            BoxState((2, 2), (F(1), F(1), F(1), F(0)))

    def test_nonnegativity(self):
        with pytest.raises(InfeasibleError):
            BoxState((1, 2), (F(2), F(-1)))

    @pytest.mark.parametrize("shape", [(), (2,), (2, 2, 2)])
    def test_shape_pairs_inputs_with_outcomes(self, shape):
        with pytest.raises(ValueError, match="a shape lists inputs and outcomes per box"):
            BoxState(shape, (HALF, HALF))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            BoxState((1, 2), (0.5, 0.5))

    def test_extremality_is_determinism(self):
        # the module's rank test on a single box: its vertices are the deterministic tables
        assert is_extremal(BoxState((2, 2), (F(1), F(0), F(0), F(1))))
        assert not is_extremal(BoxState((2, 2), (HALF, HALF, F(1), F(0))))
        for n, m in [(1, 3), (2, 2), (3, 2)]:
            verts = enumerate_vertices(n, m)
            assert [v.probs for v in verts] == sorted(d.probs for d in deterministic_boxes(n, m))

    def test_deterministic_census(self):
        assert len(deterministic_boxes(2, 2)) == 4
        assert len(deterministic_boxes(2, 3)) == 9

    def test_value_contract(self):
        # immutable, hashable and compared by value, as a frozen dataclass would be
        box = BoxState(shape=[1, 2, 1, 2], probs=(HALF, 0, "1/4", F(1, 4)))
        same = BoxState((1, 2, 1, 2), (HALF, F(0), F(1, 4), F(1, 4)))
        assert box == same and hash(box) == hash(same) == hash((box.shape, box.probs))
        assert box != BoxState((1, 2, 1, 2), (F(1, 4), F(1, 4), HALF, F(0)))
        assert box != BoxState((1, 4), (HALF, F(0), F(1, 4), F(1, 4)))
        assert box != (box.shape, box.probs)  # equal only to a table of its own class
        assert repr(box) == ("BoxState(shape=(1, 2, 1, 2), probs=(Fraction(1, 2), "
                             "Fraction(0, 1), Fraction(1, 4), Fraction(1, 4)))")
        for name in ("shape", "probs", "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(box, name, ())
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(box, name)
        assert box.shape == (1, 2, 1, 2)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda b: pickle.loads(pickle.dumps(b))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal_and_frozen(self, clone):
        box = canonical_entangled_vertex()
        twin = clone(box)
        assert type(twin) is BoxState and twin == box and hash(twin) == hash(box)
        with pytest.raises(AttributeError):
            twin.probs = ()

    def test_tensor_factorizes(self):
        a = BoxState((2, 2), (F(1), F(0), HALF, HALF))
        b = BoxState((2, 2), (F(0), F(1), F(1), F(0)))
        prod = product_table(a, b)
        assert prod.shape == (2, 2, 2, 2)
        for i, j, k, l in itertools.product(range(2), repeat=4):
            assert entry(prod, i, j, k, l) == a.probs[2 * k + i] * b.probs[2 * l + j]


class TestBipartiteBoxState:
    """Two boxes: the N = 2 case of the table class."""

    def test_block_normalization_enforced(self):
        bad = [[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]]
        with pytest.raises(InfeasibleError):
            from_matrix(bad)

    @pytest.mark.parametrize("changes, error, message", [
        ({0: F(-1, 4)}, InfeasibleError, "negative probability entry"),
        ({2: F(1, 3), 3: F(1, 6), 6: HALF, 7: HALF}, InfeasibleError, "block (0,1) sums to 3/2, not 1"),
        ({15: None}, ValueError, "expected 16 entries, got 15"),
    ], ids=["negative", "block-sum", "entry-count"])
    def test_validation_messages(self, changes, error, message):
        probs = [F(1, 4)] * 16
        for index, value in changes.items():
            probs[index] = value
        with pytest.raises(error) as info:
            BoxState((2, 2, 2, 2), tuple(p for p in probs if p is not None))
        assert str(info.value) == message

    def test_fraction_entries_kept(self):
        probs = (HALF, F(0), F(0), HALF)
        assert all(a is b for a, b in zip(BoxState((1, 2, 1, 2), probs).probs, probs))

    def test_displayed_states_feasible(self):
        assert no_signalling(displayed_entangled_matrix())
        assert no_signalling(displayed_product_matrix())

    def test_canonical_constructors_match_displayed(self):
        assert canonical_entangled_vertex().probs == displayed_entangled_matrix().probs
        assert canonical_product_vertex().probs == displayed_product_matrix().probs

    def test_json_round_trip(self):
        ent = displayed_entangled_matrix()
        blob = json.dumps(ent.to_json_dict())
        back = BoxState.from_json_dict(json.loads(blob))
        assert back.probs == ent.probs and back.shape == ent.shape

    @pytest.mark.parametrize("inputs, outputs", [([2, 2], [2, 2, 2]), ([1, 1, 1], [2, 2])])
    def test_json_counts_must_pair(self, inputs, outputs):
        obj = {"n_inputs": inputs, "n_outputs": outputs, "p": []}
        with pytest.raises(ValueError, match=f"^{len(inputs)} input counts but "
                                             f"{len(outputs)} output counts$"):
            BoxState.from_json_dict(obj)


class TestMarginals:
    def test_product_vertex(self):
        a, b = marginals(displayed_product_matrix())
        assert a.probs == (F(1), F(0), F(1), F(0))
        assert b.probs == (F(1), F(0), F(1), F(0))

    def test_entangled_vertex(self):
        a, b = marginals(displayed_entangled_matrix())
        assert a.probs == (HALF,) * 4
        assert b.probs == (HALF,) * 4

    def test_product_recovers_factors(self):
        a = BoxState((2, 2), (F(1, 3), F(2, 3), HALF, HALF))
        b = BoxState((2, 2), (F(1), F(0), F(1, 4), F(3, 4)))
        got_a, got_b = marginals(product_table(a, b))
        assert got_a.probs == a.probs and got_b.probs == b.probs

    def test_signalling_detected(self):
        # Bob's outcome distribution depends on Alice's input
        bad = from_matrix([
            [1, 0, 1, 0],
            [0, 0, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 0, 0],
        ])
        with pytest.raises(SignallingError):
            marginals(bad)
        assert not no_signalling(bad)


class TestPolytope:
    def test_affine_dimension(self):
        matrix = no_signalling_polytope(2, 2, 2, 2)
        assert len(matrix[0]) - 1 == 8

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 2, 2), (3, 2, 2, 3), (2, 2, 1, 2, 2, 2)])
    def test_matrix_is_built_once_of_int_tuples(self, shape):
        matrix = no_signalling_polytope(*shape)
        assert no_signalling_polytope(*shape) is matrix
        assert type(matrix) is tuple and len(matrix) > 0
        assert all(type(row) is tuple and all(type(x) is int for x in row) for row in matrix)

    def test_parametrization_spans_the_oracle_hull(self):
        # M maps (1, t) into the oracle's affine hull, onto it, and one-to-one
        small = [(n, m) for n in range(1, 5) for m in range(1, 5) if n * m <= 4]
        shapes = [(*a, *b) for a in small for b in small]
        shapes += [(2, 3, 2, 3), (3, 2, 2, 3), (3, 2, 3, 2), (1, 6, 1, 6)]
        for shape in shapes:
            matrix = no_signalling_polytope(*shape)
            eqs, unit = h_representation(shape)
            columns = list(zip(*matrix))
            for e in eqs:
                assert all(sum(a * x for a, x in zip(e, col)) == 0 for col in columns), shape
            assert [sum(a * x for a, x in zip(unit, col)) for col in columns] == \
                [1] + [0] * (len(columns) - 1), shape
            free = [row[1:] for row in matrix]
            hull_dim = len(matrix) - oracle_rank(eqs + [unit])
            assert len(_rref(free)[1]) == hull_dim == len(matrix[0]) - 1, shape

    def test_rref_is_exact_on_integer_rows(self):
        m, pivots = _rref([[2, 1, 0], [1, 3, 5]])
        assert pivots == [0, 1]
        assert all(type(x) is int for row in m for x in row)
        # each row over its pivot entry is the rational form
        assert [[F(x, row[c]) for x in row] for row, c in zip(m, pivots)] == [[1, 0, -1], [0, 1, 2]]

    def test_sizes_capped(self):
        with pytest.raises(ValueError):
            no_signalling_polytope(11, 10, 2, 2)

    def test_enumeration_matches_oracle(self):
        verts = square_pair()
        assert len(verts) == 24
        assert {v.probs for v in verts} == oracle_vertices()

    def test_every_vertex_is_extremal_and_unique(self):
        verts = square_pair()
        assert len({v.probs for v in verts}) == len(verts)
        for v in verts:
            assert is_extremal(v)

    def test_enumeration_is_exact(self):
        for v in square_pair():
            assert all(isinstance(p, Fraction) for p in v.probs)

    def test_trivial_second_side_gives_square(self):
        verts = enumerate_vertices(2, 2, 1, 1)
        assert len(verts) == 4
        for v in verts:
            assert all(p in (F(0), F(1)) for p in v.probs)

    def test_classical_bit_pair_gives_simplex(self):
        verts = enumerate_vertices(1, 2, 1, 2)
        assert len(verts) == 4
        for v in verts:
            assert is_extremal(v) and vertex_class(v) is VertexClass.PRODUCT


class TestDoubleDescription:
    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (1, 3, 2, 2), (2, 2, 1, 3), (3, 2, 1, 2)])
    def test_matches_brute_force(self, shape):
        assert [v.probs for v in enumerate_vertices(*shape)] == brute_force_vertices(shape)

    @pytest.mark.parametrize("shape, total", [((2, 2, 3, 2), 128), ((2, 2, 2, 3), 108)])
    def test_vertices_extremal_and_closed_under_relabelings(self, shape, total):
        na, ma, nb, mb = shape
        verts = enumerate_vertices(*shape)
        values = sorted({p for v in verts for p in v.probs})
        codes = [tuple(values.index(p) for p in v.probs) for v in verts]  # hash ints, not Fractions
        found = set(codes)
        assert len(found) == len(verts) == total
        keep_a, keep_b = tuple(range(na * ma)), tuple(range(nb * mb))
        moves = ([joint_map(shape, a, keep_b) for a in side_relabelings(na, ma)]
                 + [joint_map(shape, keep_a, b) for b in side_relabelings(nb, mb)])
        for v, code in zip(verts, codes):
            assert is_extremal(v)
            for move in moves:
                assert tuple([code[x] for x in move]) in found
        n_prod = sum(1 for v in verts if vertex_class(v) is VertexClass.PRODUCT)
        assert n_prod == ma ** na * mb ** nb

    @pytest.mark.parametrize("shape, total", [
        ((2, 3, 2, 3), 1161), ((3, 2, 3, 2), 1408), ((3, 2, 2, 3), 1512),
    ])
    def test_vertex_and_product_counts(self, shape, total):
        na, ma, nb, mb = shape
        verts = enumerate_vertices(*shape)
        assert len(verts) == total
        n_prod = sum(1 for v in verts if vertex_class(v) is VertexClass.PRODUCT)
        assert n_prod == ma ** na * mb ** nb

    @staticmethod
    def forbid_polytope_work(monkeypatch):
        def no_polytope_work(*args):
            raise AssertionError("polytope work started")

        monkeypatch.setattr(boxes, "no_signalling_polytope", no_polytope_work)
        monkeypatch.setattr(boxes, "_extreme_rays", no_polytope_work)

    def test_over_cap_rejected(self, monkeypatch):
        self.forbid_polytope_work(monkeypatch)
        with pytest.raises(ValueError, match="capped at 6 input"):
            enumerate_vertices(3, 3, 1, 1)

    def test_too_many_boxes_rejected_before_any_ray_work(self, monkeypatch):
        # every box is in the per-side cap, but six of them make a 64-entry table
        self.forbid_polytope_work(monkeypatch)
        with pytest.raises(ValueError, match="capped at 36 table entries, got 64"):
            enumerate_vertices(2, 2, 2, 2, 2, 2)

    @pytest.mark.parametrize("shape", [a + b for a in CAP_SIDES for b in CAP_SIDES
                                       if not {a, b} <= {(2, 3), (3, 2)}])
    def test_vertex_class_agrees_with_factorization(self, shape):
        # a vertex is a product exactly when it is one of the deterministic products; every
        # size in the cap but the four with sides of 2x3 or 3x2 (0.25-0.6 s each to enumerate)
        products = {t.probs for t in product_tables(shape)}
        for v in vertices_of(shape):
            assert (vertex_class(v) is VertexClass.PRODUCT) is (v.probs in products)


class TestExtremality:
    def test_displayed_entangled_is_extremal(self):
        assert is_extremal(displayed_entangled_matrix())

    def test_mixture_not_extremal(self):
        verts = square_pair()
        mix = tuple((a + b) / 2 for a, b in zip(verts[0].probs, verts[1].probs))
        state = BoxState(shape=(2, 2, 2, 2), probs=mix)
        assert not is_extremal(state)

    def test_uniform_interior_not_extremal(self):
        uniform = BoxState(shape=(2, 2, 2, 2), probs=(F(1, 4),) * 16)
        assert not is_extremal(uniform)

    def test_signalling_input_rejected(self):
        bad = from_matrix([
            [1, 0, 1, 0],
            [0, 0, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 0, 0],
        ])
        with pytest.raises(SignallingError):
            is_extremal(bad)

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 2, 3, 2), (1, 3, 2, 2)])
    def test_support_rank_matches_full_tight_set(self, shape):
        # reference: every oracle equality, the unit row and one unit row per zero entry
        entries = len(no_signalling_polytope(*shape))
        eqs, unit = h_representation(shape)
        rng = random.Random(3)
        verts = vertices_of(shape)
        tables = rng.sample(verts, 12) + [rational_mixture(shape, rng, t) for t in (2, 2, 3)]
        for state in tables:
            rows = eqs + [unit]
            rows += [[F(int(c == r)) for c in range(entries)]
                     for r, val in enumerate(state.probs) if val == 0]
            assert is_extremal(state) is (oracle_rank(rows) == entries)


class TestClassification:
    def test_census(self):
        verts = square_pair()
        classes = [vertex_class(v) for v in verts]
        assert sum(1 for c in classes if c is VertexClass.PRODUCT) == 16
        assert sum(1 for c in classes if c is VertexClass.ENTANGLED) == 8

    def test_displayed_states(self):
        for state, cls in ((displayed_product_matrix(), VertexClass.PRODUCT),
                           (displayed_entangled_matrix(), VertexClass.ENTANGLED)):
            assert is_extremal(state) and vertex_class(state) is cls

    def test_product_vertices_factorize(self):
        verts = square_pair()
        for v in verts:
            if vertex_class(v) is VertexClass.PRODUCT:
                a, b = marginals(v)
                assert product_table(a, b).probs == v.probs

    def test_either_marginal_extremal_implies_product(self):
        # for every enumerated vertex: one deterministic marginal forces factorization
        for v in square_pair():
            a, b = marginals(v)
            if is_extremal(a) or is_extremal(b):
                assert product_table(a, b).probs == v.probs


class TestRelabeling:
    def test_identity(self):
        state = displayed_entangled_matrix()
        ident = side_relabelings(2, 2)[0]
        assert ident == tuple(range(4))
        assert relabel(state, joint_map(state.shape, ident, ident)).probs == state.probs

    def test_group_size(self):
        assert len(set(side_relabelings(2, 2))) == 8

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (1, 6)])
    def test_generators_generate_the_side_group(self, n, m):
        gens = _side_generators(n, m)
        group = {tuple(range(n * m))}
        todo = list(group)
        for g in todo:
            for h in gens:
                composed = tuple(g[x] for x in h)
                if composed not in group:
                    group.add(composed)
                    todo.append(composed)
        assert len(group) == factorial(n) * factorial(m) ** n
        assert group == set(side_relabelings(n, m))

    def test_orbit_sizes(self):
        assert len(relabeling_orbit(canonical_entangled_vertex())) == 8
        assert len(relabeling_orbit(canonical_product_vertex())) == 16

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (1, 3, 2, 2), (2, 2, 1, 3), (3, 2, 1, 2)])
    def test_orbit_matches_full_group_walk_on_vertices(self, shape):
        for v in vertices_of(shape):
            assert [m.probs for m in relabeling_orbit(v)] == oracle_orbit(v)

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (1, 1, 2, 2), (1, 2, 1, 1), (2, 3, 1, 2),
                                       (3, 2, 1, 2)])
    def test_orbit_matches_full_group_walk_on_mixtures(self, shape):
        rng = random.Random(sum(shape))
        for _ in range(3):
            mix = rational_mixture(shape, rng)
            assert [m.probs for m in relabeling_orbit(mix)] == oracle_orbit(mix)

    def test_uniform_table_is_fixed(self):
        uniform = BoxState(shape=(1, 6, 1, 6), probs=(F(1, 36),) * 36)
        assert relabeling_orbit(uniform) == [uniform]

    def test_orbits_partition_the_vertices(self):
        verts = {v.probs for v in square_pair()}
        ent = {v.probs for v in relabeling_orbit(canonical_entangled_vertex())}
        prod = {v.probs for v in relabeling_orbit(canonical_product_vertex())}
        assert ent | prod == verts and not ent & prod

    def test_preserves_class_and_extremality(self):
        for state, cls in ((canonical_entangled_vertex(), VertexClass.ENTANGLED),
                        (canonical_product_vertex(), VertexClass.PRODUCT)):
            for ra in side_relabelings(2, 2):
                for rb in side_relabelings(2, 2):
                    moved = relabel(state, joint_map(state.shape, ra, rb))
                    assert is_extremal(moved)
                    assert vertex_class(moved) is cls

    def test_preserves_no_signalling(self):
        state = displayed_entangled_matrix()
        for ra in side_relabelings(2, 2):
            moved = relabel(state, joint_map(state.shape, ra, tuple(range(4))))
            assert no_signalling(moved)


ORBIT_SHAPES = [(1, 2, 1, 2), (1, 3, 1, 2), (2, 2, 1, 2), (1, 2, 2, 2), (2, 2, 2, 2)]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from(ORBIT_SHAPES), seed=st.integers(0, 2 ** 16),
       mixed=st.booleans())
def test_orbit_is_a_class_function(shape, seed, mixed):
    """Relabeling is a group action: every member has the same orbit, extremality and class."""
    rng = random.Random(seed)
    s = rational_mixture(shape, rng) if mixed else rng.choice(vertices_of(shape))
    orbit = relabeling_orbit(s)
    extremal = is_extremal(s)
    cls = vertex_class(s) if extremal else None
    assert s in orbit
    for x in orbit:
        assert relabeling_orbit(x) == orbit
        assert is_extremal(x) is extremal
        if extremal:
            assert vertex_class(x) is cls


class TestSeparability:
    def test_products_are_separable(self):
        a = BoxState((2, 2), (F(1, 3), F(2, 3), HALF, HALF))
        b = BoxState((2, 2), (F(1), F(0), F(1, 4), F(3, 4)))
        assert in_separable_tensor_product(product_table(a, b))

    def test_entangled_vertex_is_not(self):
        assert not in_separable_tensor_product(displayed_entangled_matrix())

    def test_mixture_of_product_vertices(self):
        verts = [v for v in square_pair() if vertex_class(v) is VertexClass.PRODUCT]
        mix = tuple(sum(v.probs[r] for v in verts[:4]) / 4 for r in range(16))
        assert in_separable_tensor_product(BoxState(shape=(2, 2, 2, 2), probs=mix))

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 1, 2), (3, 2, 2, 3), (4, 2, 4, 2),
                                       (1, 3, 2, 2, 2, 1)])
    def test_product_columns_are_the_tensor_products_in_order(self, shape):
        # the integer columns the simplex reads are the oracle's product tables, in its order
        sides = [deterministic_boxes(n, m) for n, m in zip(shape[::2], shape[1::2])]
        want = []
        for dets in itertools.product(*sides):
            want.append(list(product_table(*dets).probs))
        got = boxes._product_columns(shape)
        assert all(type(x) is int for col in got for x in col)
        assert [list(col) for col in got] == want

    def test_product_vertex_cap_checked_before_any_product(self, monkeypatch):
        # (4,2,4,2) has 256 product vertices, the cap; (4,2,5,2) has 512
        def no_products(*args):
            raise LookupError("product tables built")

        def uniform(shape):
            return BoxState(shape, [F(1, shape[1] * shape[3])] * prod(shape))

        monkeypatch.setattr(boxes, "_product_columns", no_products)
        for shape in [(4, 2, 4, 2), (2, 4, 2, 4), (1, 2, 7, 2)]:
            with pytest.raises(LookupError):
                in_separable_tensor_product(uniform(shape))
        with pytest.raises(ValueError, match="capped at 256 product vertices, got 512"):
            in_separable_tensor_product(uniform((4, 2, 5, 2)))
        with pytest.raises(SignallingError):  # signalling is still reported first
            in_separable_tensor_product(BoxState((5, 2, 5, 2), [  # Bob's outcome is k mod 2
                HALF if j == k % 2 else F(0)
                for k, i, l, j in itertools.product(range(5), range(2), range(5), range(2))]))

    def test_uniform_mixture_of_entangled_vertices_recorded(self):
        # no reference value exists; the exact LP decides (it is the uniform
        # table, a product of uniform marginals, hence separable)
        orbit = relabeling_orbit(canonical_entangled_vertex())
        mix = tuple(sum(v.probs[r] for v in orbit) / len(orbit) for r in range(16))
        state = BoxState(shape=(2, 2, 2, 2), probs=mix)
        assert mix == (F(1, 4),) * 16
        assert in_separable_tensor_product(state)


class TestConvexHullMembership:
    def test_vertex_in_full_hull(self):
        verts = square_pair()
        assert in_convex_hull(displayed_entangled_matrix(), verts)

    def test_entangled_vertex_outside_product_hull(self):
        dets = deterministic_boxes(2, 2)
        products = [product_table(a, b) for a in dets for b in dets]
        assert not in_convex_hull(displayed_entangled_matrix(), products)

    def test_mixture_in_two_vertex_hull(self):
        verts = square_pair()
        mix = tuple((a + b) / 2 for a, b in zip(verts[0].probs, verts[5].probs))
        state = BoxState(shape=(2, 2, 2, 2), probs=mix)
        assert in_convex_hull(state, [verts[0], verts[5]])
        # a vertex is never a mixture of the others
        assert not in_convex_hull(verts[0], verts[1:])

    def test_shape_mismatch(self):
        small = product_table(deterministic_boxes(1, 2)[0], deterministic_boxes(1, 2)[0])
        with pytest.raises(ValueError):
            in_convex_hull(displayed_entangled_matrix(), [small])

    def test_empty_hull(self):
        assert not in_convex_hull(displayed_entangled_matrix(), [])


class TestGeneralizedUnentangledBox:
    """A box table is generalized unentangled exactly when it is separable."""

    def test_product_vertices(self):
        assert in_separable_tensor_product(canonical_product_vertex())

    def test_entangled_vertices(self):
        for v in relabeling_orbit(canonical_entangled_vertex()):
            assert not in_separable_tensor_product(v)

    def test_mixture_of_two_product_vertices(self):
        dets = deterministic_boxes(2, 2)
        v1 = product_table(dets[0], dets[1])
        v2 = product_table(dets[2], dets[3])
        mix = tuple((a + b) / 2 for a, b in zip(v1.probs, v2.probs))
        assert in_separable_tensor_product(BoxState(shape=(2, 2, 2, 2), probs=mix))

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 2, 3, 2)])
    def test_a_vertex_is_separable_exactly_when_it_is_a_product(self, shape):
        # a vertex lies in the hull of the product vertices only as one of them
        for v in vertices_of(shape):
            assert in_separable_tensor_product(v) is (vertex_class(v) is VertexClass.PRODUCT)


def phase1_oracle(columns, target, pivot=fraction_pivot) -> bool:
    """The phase-1 simplex that recomputes every reduced cost before each pivot.

    Bland's rule over exact rationals, one artificial per row; each step is
    ``pivot``, the rational Gauss-Jordan step unless a recorder is passed.
    """
    m = len(target)
    n = len(columns)
    tab = []
    for r in range(m):
        row = [columns[c][r] for c in range(n)]
        row += [F(1) if rr == r else F(0) for rr in range(m)]
        row.append(target[r])
        tab.append(row)
    basis = list(range(n, n + m))
    total = n + m
    while True:
        entering = None
        for j in range(total):
            cost = F(1) if j >= n else F(0)
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
        pivot(tab, leave, entering)
        basis[leave] = entering
    residual = sum(tab[r][-1] for r in range(m) if basis[r] >= n)
    return residual == 0


def product_tables(shape):
    """Every deterministic product box of a two-box shape."""
    na, ma, nb, mb = shape
    return [product_table(a, b) for a in deterministic_boxes(na, ma)
            for b in deterministic_boxes(nb, mb)]


class TestPhase1OracleSimplex:
    """The integer simplex pivots exactly as the rational oracle does."""

    @staticmethod
    def solve_both(table, hull, monkeypatch):
        """Verdict and pivots of in_convex_hull (the integer tableau on the tables'
        numerators), then of the oracle on their probabilities."""
        new, old = [], []
        real = boxes._pivot

        def recorder(rows, r, c):
            new.append((r, c))
            real(rows, r, c)

        def oracle_recorder(rows, r, c):
            old.append((r, c))
            fraction_pivot(rows, r, c)

        with monkeypatch.context() as patch:
            patch.setattr(boxes, "_pivot", recorder)
            verdict = in_convex_hull(table, hull)
        return (verdict, new), (phase1_oracle([v.probs for v in hull], table.probs,
                                              oracle_recorder), old)

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 2, 3, 2), (2, 2, 2, 3)])
    def test_same_verdicts_and_pivots(self, shape, monkeypatch):
        rng = random.Random(2003)
        hull = product_tables(shape)
        tables = vertices_of(shape) + [rational_mixture(shape, rng) for _ in range(20)]
        verdicts = set()
        for table in tables:
            new, old = self.solve_both(table, hull, monkeypatch)
            assert new == old
            assert new[1]  # at least one pivot
            verdicts.add(new[0])
        assert verdicts == {True, False}

    def test_same_pivots_on_hulls_of_all_vertices(self, monkeypatch):
        # columns that are not product tables: the full vertex list, one vertex left out
        verts = square_pair()
        for k in (0, 5, len(verts) - 1):
            new, old = self.solve_both(verts[k], verts[:k] + verts[k + 1:], monkeypatch)
            assert new == old
            assert new[0] is False

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 2, 2)])
    def test_same_pivots_on_columns_with_unequal_denominators(self, shape, monkeypatch):
        # each column is scaled by its own denominator, the target by another
        rng = random.Random(1968)
        hull = [rational_mixture(shape, rng, terms) for terms in (2, 2, 3, 3, 4, 5)]
        assert len({lcm(*(p.denominator for p in v.probs)) for v in hull}) > 2
        weights = [rng.randint(1, 7) for _ in hull]
        inside = BoxState(shape, tuple(sum(F(w, sum(weights)) * v.probs[r]
                                           for w, v in zip(weights, hull))
                                       for r in range(prod(shape))))
        mixtures = [rational_mixture(shape, rng) for _ in range(8)]
        tables = [inside, *mixtures, *vertices_of(shape)[:4]]
        verdicts = set()
        for table in tables:
            new, old = self.solve_both(table, hull, monkeypatch)
            assert new == old and new[1]
            verdicts.add(new[0])
        assert verdicts == {True, False}


class TestIntegerElimination:
    """The fraction-free core against the rational oracle; no row it touches holds a Fraction."""

    @staticmethod
    def seeded_matrices():
        """Integer products of random low-rank factors: negative and zero entries, zero
        columns, and rows that vanish on elimination."""
        rng = random.Random(1967)
        out = [[[0, 2, -3], [-4, 1, 0], [2, 0, 5]], [[0, 0], [0, 0]], [[-6, 4, 2]]]
        for _ in range(80):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            rank = rng.randint(0, min(rows, cols))
            left = [[rng.choice((-3, -2, -1, 0, 0, 1, 2)) for _ in range(rank)]
                    for _ in range(rows)]
            right = [[rng.choice((-2, -1, 0, 0, 1, 3)) for _ in range(cols)]
                     for _ in range(rank)]
            out.append([[sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(cols)]
                        for i in range(rows)])
        return out

    def test_rank_and_rows_equal_the_rational_oracle(self, monkeypatch):
        signs = []
        real = boxes._pivot

        def recorder(rows, r, c):
            signs.append(rows[r][c] > 0)
            real(rows, r, c)

        monkeypatch.setattr(boxes, "_pivot", recorder)
        matrices = self.seeded_matrices()
        for rows in matrices:
            m, pivots = _rref(rows)
            want, want_pivots = fraction_rref(rows)
            assert pivots == want_pivots, rows
            assert all(type(x) is int for row in m for x in row)
            assert [[F(x, row[c]) for x in row] for row, c in zip(m, pivots)] == \
                want[:len(pivots)], rows
            assert not any(x for row in m[len(pivots):] for x in row)
        # the seeds reach negative pivots, leading zeros that need a row swap, and lost rank
        assert False in signs and True in signs
        assert any(rows[0][0] == 0 and any(row[0] for row in rows) for rows in matrices)
        assert any(len(_rref(rows)[1]) < min(len(rows), len(rows[0])) for rows in matrices)

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 2, 3, 2)])
    def test_every_pivoted_row_holds_only_ints(self, shape, monkeypatch):
        calls = []
        real = boxes._pivot

        def int_only(rows, r, c):
            assert all(type(x) is int for row in rows for x in row)
            real(rows, r, c)
            assert all(type(x) is int for row in rows for x in row)
            calls.append(c)

        monkeypatch.setattr(boxes, "_pivot", int_only)
        rng = random.Random(17)
        verts = vertices_of(shape)
        mixture = rational_mixture(shape, rng)
        hull = [rational_mixture(shape, rng, terms) for terms in (2, 3, 4)] + verts[:2]
        tables = (verts[0], verts[-1], mixture)
        runs = [("enumerate_vertices", lambda: enumerate_vertices(*shape)),
                ("is_extremal", lambda: [is_extremal(t) for t in tables]),
                ("in_separable_tensor_product",
                 lambda: [in_separable_tensor_product(t) for t in tables]),
                ("in_convex_hull", lambda: [in_convex_hull(t, hull) for t in (mixture, verts[-1])])]
        for name, run in runs:
            before = len(calls)
            run()
            assert len(calls) > before, name


def with_labelling_box(two_box_probs, position):
    """A (2,2,2,2) table with a one-input, two-outcome box inserted as box ``position``
    (counted from 0), once per certain outcome c of that box.

    Such a box only labels slices: the table is the two-box table where the
    label is c and zero elsewhere.
    """
    sizes = [4, 4]
    sizes.insert(position, 2)  # each box's n*m flat indices, in mixed-radix order
    tables = []
    for c in range(2):
        probs = []
        for cell in itertools.product(*map(range, sizes)):
            a, b = cell[:position] + cell[position + 1:]
            probs.append(two_box_probs[4 * a + b] if cell[position] == c else F(0))
        tables.append(tuple(probs))
    return tables


class TestThreeBoxes:
    """Three boxes through the same code as two; every expected value is derived here."""

    @pytest.mark.parametrize("shape, position", [((2, 2, 2, 2, 1, 2), 2), ((2, 2, 1, 2, 2, 2), 1)])
    def test_labelling_box_doubles_the_vertices(self, shape, position):
        expected = set()
        for v in oracle_vertices():
            expected.update(with_labelling_box(v, position))
        verts = enumerate_vertices(*shape)
        assert len(verts) == len(expected) == 2 * 24
        assert {v.probs for v in verts} == expected
        n_prod = sum(1 for v in verts if vertex_class(v) is VertexClass.PRODUCT)
        assert n_prod == 2 * 16
        assert all(is_extremal(v) for v in verts[::5])

    def test_orbit_of_the_all_zero_product_vertex(self):
        dets = [deterministic_boxes(n, m) for n, m in [(2, 2), (2, 2), (1, 2)]]
        vertex = product_table(dets[0][0], dets[1][0], dets[2][0])
        assert vertex.shape == (2, 2, 2, 2, 1, 2)
        orbit = relabeling_orbit(vertex)
        # relabelings move each box's deterministic table to every other one: 4 * 4 * 2
        assert len(orbit) == 4 * 4 * 2 == len({m.probs for m in orbit})
        products = {product_table(*abc).probs for abc in itertools.product(*dets)}
        assert {m.probs for m in orbit} == products

    def test_marginals_recover_the_factors(self):
        a = BoxState((2, 2), (F(1, 3), F(2, 3), HALF, HALF))
        b = BoxState((1, 3), (F(1, 6), F(1, 2), F(1, 3)))
        c = BoxState((2, 2), (F(1), F(0), F(1, 4), F(3, 4)))
        assert marginals(product_table(a, b, c)) == (a, b, c)

    def test_box_three_copying_box_one_input_signals(self):
        # p(i, j, c | k, l) = [i = 0][j = 0][c = k]: box 1's input shows in box 3's outcome
        probs = tuple(F(int(i == 0 and j == 0 and c == k))
                      for k, i, l, j, c in itertools.product(range(2), repeat=5))
        table = BoxState((2, 2, 2, 2, 1, 2), probs)
        with pytest.raises(SignallingError) as info:
            marginals(table)
        assert str(info.value) == ("box 1's input signals: the other boxes' marginal "
                                   "differs between its inputs 0 and 1")
        with pytest.raises(SignallingError):
            is_extremal(table)
