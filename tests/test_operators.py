import itertools
import math
import re

import numpy as np
import pytest

from getk import catalog, fermion, operators, purity
from getk.operators import (
    EQUALITY_TOL,
    INDEPENDENCE_TOL,
    DimensionMismatch,
    ObservableSpace,
    QuantumState,
    _real_rows,
    anticommutation_rows,
    assert_hermitian,
    bracket,
    expectation,
    gell_mann_basis,
    kron_all,
    lie_closure,
    orthonormalize,
    partial_trace,
    pauli_masks,
    pauli_string,
    pauli_word,
)
from getk.purity import omega_purity, rescaled_purity
from random_states import maximally_mixed, random_density_state, random_pure_state
from test_exact_references import generic_highest_weight

SX, SY, SZ, ID = map(pauli_string, "XYZI")


def spectrum_density(d, least, rng, first=None):
    """A seeded Hermitian matrix of dimension d whose eigenvalues are ``least`` (with
    eigenvector ``first`` if given), zeros up to half the spectrum, and positive values that
    bring the trace to 1; at d = 1 it is [[least]]."""
    w = rng.uniform(0.1, 1.0, size=d)
    w[:d // 2] = 0.0
    w[0] = least
    if d > 1:
        w[1:] *= (1.0 - least) / w[1:].sum()
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if first is not None:
        g[:, 0] = first
    q = np.linalg.qr(g)[0]
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2


def eigvalsh_rule(m):
    """The eigvalsh rule's verdict: its refusal message, or None to accept."""
    least = np.linalg.eigvalsh(m).min()
    return f"density matrix has negative eigenvalue {least:.3e}" if least < -EQUALITY_TOL else None


def density_verdict(m):
    try:
        QuantumState(rho=m)
    except ValueError as exc:
        return str(exc)
    return None


def sz_total():
    return 0.5 * (np.kron(SZ, ID) + np.kron(ID, SZ))


def u2_generators():
    s = {k: pauli_string(k) / 2 for k in "IXYZ"}
    r2 = np.sqrt(2.0)
    return [
        np.kron(s["Z"], ID),
        np.kron(ID, s["Z"]),
        r2 * (np.kron(s["X"], s["X"]) + np.kron(s["Y"], s["Y"])),
        r2 * (np.kron(s["X"], s["Y"]) - np.kron(s["Y"], s["X"])),
    ]


def trace_inner_product(a, b) -> float:
    """Re Tr(a b) of Hermitian a, b as the dot product of their ``_real_rows``: the inner
    product that ``orthonormalize`` and the orthonormality check of a space compute."""
    return float(_real_rows(a) @ _real_rows(b))


class TestTraceInnerProduct:
    def test_normalized_pauli(self):
        a = SZ / np.sqrt(2.0)
        assert trace_inner_product(a, a) == pytest.approx(1.0, abs=1e-14)

    def test_pauli_orthogonality(self):
        assert trace_inner_product(SX, SY) == pytest.approx(0.0, abs=1e-14)

    def test_two_qubit_string(self):
        a = np.kron(SX, SX) / 2.0
        assert trace_inner_product(a, a) == pytest.approx(1.0, abs=1e-14)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a, b = g + g.conj().T, g @ g.conj().T
        assert trace_inner_product(a, b) == pytest.approx(trace_inner_product(b, a))
        assert trace_inner_product(a, b) == pytest.approx(np.trace(a @ b).real, abs=1e-12)


def spaces_built(monkeypatch) -> list:
    """The ObservableSpace instances built from here on, in order."""
    built, init = [], ObservableSpace.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ObservableSpace, "__init__", counted)
    return built


class TestOrthonormalize:
    def test_dependent_input_dropped(self):
        basis = orthonormalize([SZ, 2 * SZ, SX])
        assert isinstance(basis, np.ndarray) and basis.shape == (2, 2, 2)
        space = ObservableSpace(basis)
        assert space.contains(SZ) and space.contains(SX)

    def test_already_orthonormal_unchanged(self):
        gens = u2_generators()
        for got, given in zip(orthonormalize(gens), gens):
            assert np.max(np.abs(got - given)) < 1e-12

    def test_hand_gram_schmidt(self):
        # worked by hand: (sx+sz)/2 then (sz-sx)/2
        basis = orthonormalize([SX + SZ, SZ])
        assert np.allclose(basis[0], (SX + SZ) / 2, atol=1e-12)
        assert np.allclose(basis[1], (SZ - SX) / 2, atol=1e-12)
        space = ObservableSpace(basis)
        assert space.contains(SX) and space.contains(SZ)

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            orthonormalize([np.zeros((2, 2)), 1e-12 * SZ])

    def test_no_input_raises(self):
        with pytest.raises(ValueError, match="requires at least one operator"):
            orthonormalize([])

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            orthonormalize([np.array([[0.0, 1.0], [0.0, 0.0]])])

    def test_mixed_dimensions_refused(self):
        with pytest.raises(DimensionMismatch, match="operators have inconsistent dimensions"):
            orthonormalize([SZ, np.diag([1.0, 0.0, -1.0])])

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("first, second", [("Z", "X"), ("XY", "ZI"), ("IXZ", "YYI")])
    def test_the_drop_rule_is_the_span_rule_at_every_scale(self, first, second, scale):
        # an input goes exactly when _in_span holds for its residual and its own norm, so
        # scaling both inputs above norm 1 keeps the count; an absolute 1e-9 residual test
        # would keep the perturbed copy at 1e3 and 1e6 but not at 1
        a, b = pauli_string(first), pauli_string(second)
        assert len(orthonormalize([scale * a, scale * (a + 1e-11 * b)])) == 1
        assert len(orthonormalize([scale * a, scale * (a + 1e-6 * b)])) == 2

    def test_matches_loop_reference(self):
        # the pairwise trace-inner-product loop the row matmuls replaced, dropping by the
        # span rule: residual <= 1e-9 max(norm, 1)
        def loop_gram_schmidt(ops):
            basis = []
            for a in ops:
                v = a.astype(complex)
                for _ in range(2):
                    for b in basis:
                        v = v - np.trace(b @ v).real * b
                nrm = np.sqrt(max(np.trace(v @ v).real, 0.0))
                if nrm > 1e-9 * max(np.sqrt(np.trace(a @ a).real), 1.0):
                    basis.append(v / nrm)
            return basis

        rng = np.random.default_rng(11)
        for d, n in [(2, 3), (3, 5), (4, 9), (4, 20)]:
            gs = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
            ops = [g + g.conj().T for g in gs]
            ops.insert(2, 2.0 * ops[0] - ops[1])  # dependent: dropped by both
            want = loop_gram_schmidt(ops)
            got = orthonormalize(ops)
            assert len(got) == len(want) == min(n, d * d)
            assert max(np.max(np.abs(a - b)) for a, b in zip(got, want)) < 1e-12


class TestExpectation:
    def test_ground_state_sz(self):
        assert expectation(QuantumState.basis_state(2, 0), SZ) == pytest.approx(1.0)

    def test_maximally_mixed_traceless(self):
        st = maximally_mixed(2)
        for x in (SX, SY, SZ):
            assert expectation(st, x) == pytest.approx(0.0, abs=1e-14)

    def test_correlated_pair(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2.0)
        assert expectation(QuantumState(vector=v), np.kron(SX, SX)) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation(QuantumState.basis_state(2, 0), np.kron(SX, SX))

    @pytest.mark.parametrize("op, message", [
        (np.zeros((2, 3)), r"operator must be square, got shape \(2, 3\)"),
        (np.zeros(2), r"operator must be square, got shape \(2,\)"),
        (np.diag([np.nan, 1.0]), "operator has non-finite entries"),
        (np.diag([np.inf, 1.0]), "operator has non-finite entries"),
    ], ids=["non-square", "vector", "nan", "inf"])
    def test_malformed_operator_refused(self, op, message):
        with pytest.raises(ValueError, match=message):
            expectation(QuantumState.basis_state(2, 0), op)
        with pytest.raises(ValueError, match=message):
            assert_hermitian(op)


BLOCK_SIDE = math.isqrt(operators._BLOCK_ENTRIES)  # the largest matrix checked in one block


@pytest.mark.parametrize("n", [1, BLOCK_SIDE - 1, BLOCK_SIDE, BLOCK_SIDE + 1, 243])
@pytest.mark.parametrize("scale", [1e-13, 1e-3])
def test_hermitian_deviation_is_the_dense_formulas(n, scale):
    # the blockwise deviation is the dense max |a - a^H| bit for bit: a tol of exactly
    # that passes, the next float below it fails with the dense formula's message
    rng = np.random.default_rng(n)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = g + g.conj().T + scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    dense = np.max(np.abs(a - a.conj().T))
    assert dense > 0
    assert np.array_equal(assert_hermitian(a, tol=dense), a)
    with pytest.raises(ValueError) as refused:
        assert_hermitian(a, tol=np.nextafter(dense, 0))
    assert str(refused.value) == f"matrix is not Hermitian (max deviation {dense:.3e})"


class TestTensor:
    def test_identity_factor(self):
        full = kron_all([ID, SX])
        assert np.allclose(full[:2, :2], SX) and np.allclose(full[2:, 2:], SX)
        assert np.allclose(full[:2, 2:], 0)

    def test_basis_vectors(self):
        v0 = np.array([1.0, 0.0])
        v1 = np.array([0.0, 1.0])
        out = kron_all([v0, v1])
        assert np.array_equal(out, np.array([0.0, 1.0, 0.0, 0.0]))

    def test_entries_by_hand(self):
        m = kron_all([SX, SZ])
        assert m[0, 2] == 1.0 and m[1, 3] == -1.0

    def test_long_pauli_word_rejected(self):
        # 2^11 > MAX_DIM: refused before the 64 MB product is built
        with pytest.raises(ValueError, match="supported 1024"):
            pauli_string("X" * 11)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        a = random_pure_state(2, rng)
        b = random_pure_state(3, rng)
        red = partial_trace(a.tensor(b), [2, 3], [0])
        assert np.max(np.abs(red.density() - a.density())) < 1e-12

    def test_bell_reduction(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2.0)
        st = QuantumState(vector=v)
        for q in (0, 1):
            red = partial_trace(st, [2, 2], [q])
            assert np.max(np.abs(red.density() - np.eye(2) / 2)) < 1e-12

    def test_w_state_pair_reduction(self):
        # trace out qubit 3 by hand: |00><00|/3 + (2/3)|psi+><psi+|
        v = np.zeros(8, dtype=complex)
        v[1] = v[2] = v[4] = 1 / np.sqrt(3.0)
        psi_plus = np.zeros(4, dtype=complex)
        psi_plus[1] = psi_plus[2] = 1 / np.sqrt(2.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1 / 3
        expected += (2 / 3) * np.outer(psi_plus, psi_plus.conj())
        red = partial_trace(QuantumState(vector=v), [2, 2, 2], [0, 1])
        assert np.max(np.abs(red.density() - expected)) < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        st = random_density_state(8, rng)
        red = partial_trace(st, [2, 2, 2], [1])
        assert np.trace(red.density()).real == pytest.approx(1.0)

    def test_inconsistent_dims(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(QuantumState.basis_state(4, 0), [2, 3], [0])

    def test_empty_keep(self):
        with pytest.raises(ValueError):
            partial_trace(QuantumState.basis_state(4, 0), [2, 2], [])

    def test_many_unit_factors(self):
        # fourteen factors need 28 einsum labels; a 26-letter alphabet ran out
        red = partial_trace(QuantumState.basis_state(2, 0), [1] * 13 + [2], [13])
        assert np.array_equal(red.density(), np.diag([1, 0]).astype(complex))

    def test_more_factors_than_einsum_labels(self):
        with pytest.raises(ValueError):
            partial_trace(QuantumState.basis_state(2, 0), [1] * 26 + [2], [26])


def pauli_commutant_oracle(generator):
    """Independent route: brute-force nullspace over the 15 Pauli strings."""
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=2)][1:]
    strings = [pauli_string(w) / 2 for w in words]
    rows = []
    for p in strings:
        com = p @ generator - generator @ p
        rows.append(np.concatenate([com.real.ravel(), com.imag.ravel()]))
    mat = np.array(rows).T  # columns indexed by the strings
    _, svals, vt = np.linalg.svd(mat.T @ mat)
    coeffs = [vt[i] for i in range(15) if svals[i] < 1e-9]
    return [sum(c * s for c, s in zip(vec, strings)) for vec in coeffs]


def commutant_basis(generators, dim: int | None = None) -> list:
    """Trace-orthonormal basis of the traceless Hermitian commutant, as a list of operators.

    Solves the linear system [X, g] = 0 for every generator g over the full
    traceless Hermitian operator basis.  With no generators the whole
    traceless space (dimension d**2 - 1) is returned.  The result may be empty.
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
        return full
    full_stack = np.stack(full)
    rows = _real_rows(full_stack)
    # block g holds Re Tr(X_a i[X_b, g]) for every pair of basis elements
    system = np.vstack([rows @ _real_rows(1j * (full_stack @ g - g @ full_stack)).T for g in gens])
    _, svals, vt = np.linalg.svd(system)
    n_basis = len(full)
    null_rows = [vt[i] for i in range(n_basis) if i >= len(svals) or svals[i] < INDEPENDENCE_TOL]
    ops = [np.einsum("a,aij->ij", c, full_stack) for c in null_rows]
    return [0.5 * (o + o.conj().T) for o in ops]  # scrub roundoff asymmetry


class TestCommutant:
    def test_no_generators_full_space(self):
        space = ObservableSpace(commutant_basis([], dim=2))
        assert space.size == 3

    def test_sz_commutant(self):
        space = ObservableSpace(commutant_basis([sz_total()]))
        assert space.size == 5
        for g in u2_generators():
            assert space.contains(g)
        zz = np.kron(SZ, SZ) / 2
        assert space.contains(zz)
        # the conservation-law u(2) is a proper subspace of this commutant
        u2 = ObservableSpace(orthonormalize(u2_generators()))
        assert u2.size == 4
        assert not u2.contains(zz)

    def test_sz_commutant_matches_bruteforce(self):
        space = ObservableSpace(commutant_basis([sz_total()]))
        oracle_ops = pauli_commutant_oracle(sz_total())
        assert len(oracle_ops) == space.size
        oracle_space = ObservableSpace(orthonormalize(oracle_ops))
        for a in space.basis:
            assert oracle_space.contains(a)
        for a in oracle_space.basis:
            assert space.contains(a)

    def test_irreducible_set_has_empty_commutant(self):
        assert commutant_basis([SX, SY, SZ]) == []

    def test_outputs_traceless_hermitian(self):
        for a in commutant_basis([sz_total()]):
            assert np.max(np.abs(a - a.conj().T)) < 1e-12
            assert abs(np.trace(a)) < 1e-10


class TestLieClosure:
    def test_su2(self):
        assert lie_closure([SX, SY]).size == 3

    def test_u2_already_closed(self):
        assert lie_closure(u2_generators()).size == 4

    def test_growth_from_two_generators(self):
        # worked by hand: {XX, Z1} closes on span{XX, YX, Z1}
        space = lie_closure([np.kron(SX, SX), np.kron(SZ, ID)])
        assert space.size == 3
        assert space.size > 2
        assert space.contains(np.kron(SY, SX) / 2)

    def test_idempotent(self):
        space = lie_closure([np.kron(SX, SX), np.kron(SZ, ID)])
        again = lie_closure(space.basis)
        assert again.size == space.size

    def test_rounds_build_no_space(self, monkeypatch):
        # two rounds of Gram-Schmidt stay (k, d, d) arrays; only the closed basis is a space
        built = spaces_built(monkeypatch)
        space = lie_closure([np.kron(SX, SX), np.kron(SZ, ID)])
        assert built == [space]


class TestObservableSpace:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            ObservableSpace([SZ, SZ])

    def test_traceless_flag(self):
        assert ObservableSpace([SZ / np.sqrt(2)]).traceless
        mixed = ObservableSpace([ID / np.sqrt(2)])
        assert not mixed.traceless
        sector_ready = ObservableSpace(orthonormalize([ID + SZ, SZ]))
        assert not sector_ready.traceless
        sector = sector_ready.traceless_sector()
        assert sector.traceless and sector.size == 1
        assert sector.contains(SZ)

    def test_traceless_sector_builds_one_space(self, monkeypatch):
        space = ObservableSpace(orthonormalize([ID + SZ, SZ, SX]))
        built = spaces_built(monkeypatch)
        sector = space.traceless_sector()
        assert built == [sector] and sector.size == 2

    def test_traceless_sector_keeps_the_lie_flag(self):
        # the flag of a space with an identity part is its sector's, decided from the sector:
        # {S_z} on C^2 is abelian, so reducible; u(2) = 1 + su(2) is irreducible
        abelian = ObservableSpace([ID / np.sqrt(2), SZ / np.sqrt(2)])
        assert not abelian.irreducible_lie and not abelian.traceless_sector().irreducible_lie
        u2 = ObservableSpace([p / np.sqrt(2) for p in (ID, SX, SY, SZ)])
        assert u2.irreducible_lie and u2.traceless_sector().irreducible_lie

    def test_projection_matches_loop_reference(self):
        rng = np.random.default_rng(12)
        space = lie_closure([np.kron(SX, SX), np.kron(SZ, ID)])
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = g + g.conj().T
        want = sum(np.trace(x @ a).real * x for x in space.basis)
        assert np.max(np.abs(space.project_operator(a) - want)) < 1e-12

    def test_empty_basis_refused(self):
        with pytest.raises(ValueError, match="needs at least one basis element"):
            ObservableSpace([])

    @pytest.mark.parametrize("basis", [[np.eye(2) / np.sqrt(2), np.eye(3) / np.sqrt(3)],
                                       [np.ones((2, 3)), np.ones((2, 3))], [1.0]],
                             ids=["mixed-dimensions", "non-square", "scalar"])
    def test_inconsistent_dimensions_refused(self, basis):
        # checked before the elements are stacked, so numpy's own error never shows
        with pytest.raises(DimensionMismatch, match="basis elements have inconsistent dimensions"):
            ObservableSpace(basis)

    def test_contains_validates_its_operand_once(self, monkeypatch):
        space, checked = catalog.omega1(), []
        monkeypatch.setattr(operators, "assert_hermitian",
                            lambda a, _check=assert_hermitian: checked.append(1) or _check(a))
        assert space.contains(np.kron(np.kron(SX, ID), ID) / 2) and checked == [1]
        assert space.residual_norm(np.kron(np.kron(SX, SX), ID)) == pytest.approx(2 ** 1.5)
        assert checked == [1, 1]
        with pytest.raises(ValueError, match="not Hermitian"):
            space.contains(np.triu(np.ones((8, 8))))
        with pytest.raises(DimensionMismatch):
            space.contains(np.eye(4))

    @pytest.mark.parametrize("name", ["omega4", "u2", "local:3x2"])  # words, dense, 3 sites
    def test_norms_are_the_trace_form(self, name):
        # |m| as the Frobenius norm, dim^2 work, is sqrt(Tr m^2) for Hermitian m, a dim^3 product
        space, rng = catalog.named_algebra(name), np.random.default_rng(45)
        for _ in range(4):
            g = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
            a = g + g.conj().T
            residual = a - space.element(space.coefficients(a).real)
            for got, m in zip(space._norms(a), (residual, a)):
                want = np.sqrt(np.trace(m @ m).real)
                assert abs(got - want) <= 1e-12 * want
            assert space.residual_norm(a) == next(space._norms(a))

    @pytest.mark.parametrize("basis, sites", [
        (["XI", "IZ"], 3), (["XI", "IZ"], 0), (["X" * 11], 2), (gell_mann_basis(2), 2.9),
        (gell_mann_basis(2), 2.0), (gell_mann_basis(2), True), (["XI", "IZ"], False)],
        ids=["words-3", "words-0", "long-words-2", "float", "whole-float", "true", "false"])
    def test_sites_is_an_int_and_one_for_words(self, basis, sites):
        # refused before any mask or matrix exists: the 11-letter word would exceed MAX_DIM,
        # and a float never reaches int(), which would truncate 2.9 to 2 sites
        message = f"sites must be an int, 1 for Pauli words; got {sites!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ObservableSpace(basis, sites=sites)

    def test_a_sector_within_roundoff_of_the_identity_is_refused(self):
        # the sector's refusal reads the span rule: a unit element's traceless part is its
        # residual off the identity, in the span at 1e-11 and kept at 1e-6
        def near_identity(eps):
            x = ID + eps * SZ
            return ObservableSpace([x / np.sqrt(np.trace(x @ x).real)], "near-identity")

        with pytest.raises(ValueError, match="'near-identity' has no traceless part"):
            near_identity(1e-11).traceless_sector()
        assert near_identity(1e-6).traceless_sector().size == 1

    def test_total_dimension_capped(self):
        with pytest.raises(ValueError, match="2\\^11 exceeds the supported 1024"):
            ObservableSpace(gell_mann_basis(2), sites=11)
        assert ObservableSpace(gell_mann_basis(2), sites=10).dim == 1024


class TestInvariants:
    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            ops = [g + g.conj().T, 1j * (g - g.conj().T)]
            for basis in (orthonormalize(ops), lie_closure(ops).basis):
                for a in basis:
                    assert np.max(np.abs(a - a.conj().T)) < 1e-12

    def test_partial_trace_of_products_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            factors = [random_pure_state(2, rng) for _ in range(3)]
            full = factors[0].tensor(factors[1]).tensor(factors[2])
            for q in range(3):
                red = partial_trace(full, [2, 2, 2], [q])
                assert np.max(np.abs(red.density() - factors[q].density())) < 1e-10

    def test_unitary_invariance_of_expectation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rho = random_density_state(4, rng)
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = g + g.conj().T
            w, v = np.linalg.eigh(h)
            u = (v * np.exp(1j * w)) @ v.conj().T
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            x = x + x.conj().T
            rotated = QuantumState(rho=u @ rho.density() @ u.conj().T)
            assert expectation(rotated, u @ x @ u.conj().T) == pytest.approx(
                expectation(rho, x), abs=1e-10)

    def test_bracket_hermitian(self):
        rng = np.random.default_rng(17)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a, b = g + g.conj().T, g @ g.conj().T
        c = bracket(a, b)
        assert np.max(np.abs(c - c.conj().T)) < 1e-10


class TestGellMann:
    def test_qubit_case_is_paulis(self):
        basis = gell_mann_basis(2)
        expected = [SX / np.sqrt(2), SY / np.sqrt(2), SZ / np.sqrt(2)]
        for got, want in zip(basis, expected):
            assert np.max(np.abs(got - want)) < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_counts_and_orthonormality(self, d):
        basis = gell_mann_basis(d)
        assert len(basis) == d * d - 1
        ObservableSpace(basis)  # validates orthonormality and hermiticity

    def test_traceless(self):
        for a in gell_mann_basis(4):
            assert abs(np.trace(a)) < 1e-14

    @pytest.mark.parametrize("d", [1, 0])
    def test_dimension_below_two_refused(self, d):
        with pytest.raises(ValueError, match="dimension must be at least 2"):
            gell_mann_basis(d)


class TestQuantumState:
    def test_norm_validation(self):
        with pytest.raises(ValueError):
            QuantumState(vector=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, bad):
        # a nan amplitude gives a nan norm, which no norm tolerance rejects
        with pytest.raises(ValueError, match="non-finite"):
            QuantumState(vector=np.array([bad, 1.0]))

    def test_density_validation(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            QuantumState(rho=np.array([[0.5, 0.0], [0.1, 0.5]]))
        with pytest.raises(ValueError, match="negative eigenvalue -5.000e-01"):
            QuantumState(rho=np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16, 64, 243])
    def test_positivity_verdict_is_the_eigvalsh_rule(self, d):
        # the least eigenvalue at or above 0 (rank-deficient), near the factor's shift
        # -EQUALITY_TOL/2, near the threshold -EQUALITY_TOL, and far below it
        rng = np.random.default_rng(d)
        bands = (0.0, -EQUALITY_TOL / 2, -EQUALITY_TOL, -1e-3)
        for least in [1.0] if d == 1 else [band * scale for band in bands for scale in (0.9, 1.1)]:
            m = spectrum_density(d, least, rng)
            assert density_verdict(m) == eigvalsh_rule(m), (d, least)

    @pytest.mark.parametrize("lower_accepts", [True, False])
    def test_positivity_reads_the_lower_triangle(self, lower_accepts):
        # a PSD matrix A with null vector u = (1, ..., 1)/sqrt(d), and B = A - 0.9e-12 (J - I),
        # J the all-ones matrix: off the diagonal |A - B| = 0.9e-12, within HERMITICITY_TOL,
        # but B's least eigenvalue is about -0.9e-12 d = -2.2e-10.  The verdict follows the
        # lower triangle, as eigvalsh's does
        d = 243
        a = spectrum_density(d, 0.0, np.random.default_rng(7), first=np.full(d, d ** -0.5))
        b = a - 0.9e-12 * (np.ones((d, d)) - np.eye(d))
        low, high = (a, b) if lower_accepts else (b, a)
        m = np.tril(low) + np.triu(high, 1)
        assert density_verdict(m) == eigvalsh_rule(m)
        assert (density_verdict(m) is None) == lower_accepts

    def test_positive_semidefinite_densities_never_call_eigvalsh(self, monkeypatch):
        def no_eigvalsh(m):
            raise AssertionError("eigvalsh ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        for d in (2, 8, 243):
            assert random_density_state(d, np.random.default_rng(d), rank=4).dim == d
        with pytest.raises(AssertionError, match="eigvalsh ran"):
            QuantumState(rho=np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("kwargs", [{}, {"vector": [1.0], "rho": [[1.0]]}],
                             ids=["neither", "both"])
    def test_exactly_one_of_vector_or_rho(self, kwargs):
        with pytest.raises(ValueError, match="exactly one of vector or rho is required"):
            QuantumState(**kwargs)

    @pytest.mark.parametrize("pure_first", [True, False])
    def test_pure_tensor_mixed_is_a_density(self, pure_first):
        pure, mixed = QuantumState.basis_state(2, 1), maximally_mixed(3)
        a, b = (pure, mixed) if pure_first else (mixed, pure)
        out = a.tensor(b)
        assert not out.is_pure and out.dim == 6
        assert np.array_equal(out.density(), np.kron(a.density(), b.density()))

    def test_purity(self):
        assert QuantumState.basis_state(3, 1).purity() == 1.0
        assert maximally_mixed(4).purity() == pytest.approx(0.25)

    @pytest.mark.parametrize("dim", [2, 7, 64, 243])
    def test_purity_is_the_trace_of_the_square(self, dim):
        # purity() sums |rho_ij|^2, which equals Tr rho^2 only because rho is Hermitian
        state = random_density_state(dim, np.random.default_rng(dim), rank=max(1, dim // 3))
        rho = state.density()
        assert abs(state.purity() - np.trace(rho @ rho).real) <= 1e-14


# Pauli words written out by hand, independent of the mask arithmetic in getk.operators
DENSE = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
         "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}


def dense_word(word: str) -> np.ndarray:
    """The Kronecker product of the word's letters, as a complex matrix."""
    return kron_all([DENSE[c] for c in word.upper()])


def random_words(rng, length: int, count: int) -> list:
    return ["".join(rng.choice(list("IXYZ"), size=length)) for _ in range(count)]


class TestPauliWords:
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_matrix_and_masks_match_the_kronecker_product(self, length):
        for letters in itertools.product("IXYZ", repeat=length):
            word = "".join(letters)
            assert np.array_equal(pauli_string(word), dense_word(word))
            assert pauli_word(*pauli_masks(word), length) == word
            assert pauli_masks(word.lower()) == pauli_masks(word)

    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    def test_anticommutation_rows_match_the_dense_products(self, length):
        # every word up to two letters; 30 drawn words of three and five
        words = (["".join(w) for w in itertools.product("IXYZ", repeat=length)] if length < 3
                 else list(dict.fromkeys(random_words(np.random.default_rng(length), length, 30))))
        masks = np.array([pauli_masks(w) for w in words], dtype=np.int64)
        rows = list(anticommutation_rows(masks, 2 ** length))
        mats = [dense_word(w) for w in words]
        assert [[not np.any(p @ q + q @ p) for q in mats] for p in mats] == [
            row.tolist() for row in rows]

    @pytest.mark.parametrize("word", ["", "XQ", "X Y", "1"])
    def test_malformed_word_refused(self, word):
        with pytest.raises(ValueError, match="malformed Pauli word"):
            pauli_masks(word)


def forbid_dense_elements(patch):
    """Make building any element X_a, alone or as the dense basis, fail."""
    def no_matrix(*args):
        raise LookupError("dense element built")

    patch.setattr(ObservableSpace, "element", no_matrix)
    patch.setattr(ObservableSpace, "basis", property(no_matrix))


class TestWordSpaceExpectations:
    """A word space's expectations, from the masks, against a dense stack built here."""

    def test_a_fixed_point_fits_the_block_cache(self):
        # under the numerical reference's work rule (words x dim^2 <= MAX_ENTRIES) a word
        # space has at most as many blocks as _word_block keeps, so no step rebuilds one
        counts = []
        for length in range(1, 11):
            words = min(4 ** length, operators.MAX_ENTRIES // 4 ** length)
            step = max(1, operators._BLOCK_ENTRIES // 2 ** length)
            counts.append(-(-words // step))
        assert counts[5] == max(counts) == 4 <= operators._word_block.cache_info().maxsize

    @pytest.mark.parametrize("kind", ["pure", "density"])
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
    def test_equal_to_a_dense_contraction(self, length, kind, monkeypatch):
        rng = np.random.default_rng(40 + length)
        for _ in range(3):
            words = random_words(rng, length, int(rng.integers(1, 12)))
            words += [w.lower() for w in words[:2]]  # lowercase duplicates collapse
            space = ObservableSpace(words)
            distinct = list(dict.fromkeys(w.upper() for w in words))
            stack = np.stack([dense_word(w) for w in distinct]) / np.sqrt(2.0 ** length)
            assert space.size == len(distinct)
            if kind == "pure":
                state = random_pure_state(2 ** length, rng)
                v = state.vector
                dense = np.einsum("i,aij,j->a", v.conj(), stack, v).real
            else:
                state = random_density_state(2 ** length, rng)
                dense = np.einsum("aij,ji->a", stack, state.density()).real
            with monkeypatch.context() as patch:  # the expectations build no dense element
                forbid_dense_elements(patch)
                assert np.max(np.abs(space.expectation_vector(state) - dense)) <= 1e-14
            assert "site_basis" not in vars(space)
            assert np.max(np.abs(np.stack(space.basis) - stack)) <= 1e-15

    @pytest.mark.parametrize("kind", ["pure", "density"])
    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_identity_word_leaves_in_the_traceless_sector(self, length, kind, monkeypatch):
        rng = np.random.default_rng(70 + length)
        words = ["I" * length, "i" * length] + random_words(rng, length, 6)
        forbid_dense_elements(monkeypatch)  # the sector and its expectations build none
        space = ObservableSpace(words)
        sector = space.traceless_sector()
        kept = [w for w in dict.fromkeys(w.upper() for w in words) if set(w) != {"I"}]
        assert not space.traceless and sector.traceless and sector.size == len(kept)
        stack = np.stack([dense_word(w) for w in kept]) / np.sqrt(2.0 ** length)
        state = (random_pure_state if kind == "pure" else random_density_state)(2 ** length, rng)
        dense = np.einsum("aij,ji->a", stack, state.density()).real
        assert np.max(np.abs(sector.expectation_vector(state) - dense)) <= 1e-14


def dense_oracle(space) -> np.ndarray:
    """The elements X_a as a (size, dim, dim) array built here, never read from ``basis``:
    Pauli words written out by hand, or each site element embedded by Kronecker products."""
    if space.masks is not None:
        length = space.dim.bit_length() - 1
        words = [dense_word(pauli_word(x, z, length)) for x, z in space.masks]
        return np.stack(words) / np.sqrt(space.dim)
    d, n = space.site_basis.shape[1], space.sites
    ident = np.eye(d) / np.sqrt(d)
    return np.stack([kron_all([x if k == pos else ident for k in range(n)])
                     for pos in range(n) for x in space.site_basis])


ORACLE_SPACES = [
    *[lambda name=name: catalog.named_algebra(name) for name in (
        "omega1", "omega2-literal", "omega2-paper-values", "omega3", "omega4", "omega-prime-loc",
        "u2", "so4-fermi", "su2-spin:3/2", "local:2x2", "local:3x3", "local:2x4")],
    lambda: catalog.restricted_local_spins(1), lambda: catalog.restricted_local_spins(1.5),
]


def seeded_word_spaces():
    """Seeded word sets at L <= 5 with lowercase duplicates and the identity word."""
    rng = np.random.default_rng(2003)
    for length in range(1, 6):
        words = random_words(rng, length, int(rng.integers(length, 8 * length)))
        yield ObservableSpace(words + [w.lower() for w in words[:2]] + ["i" * length])


class TestTheTwoMaps:
    """``element`` and ``coefficients``, and their composite ``project_operator``, against a
    dense oracle."""

    @staticmethod
    def check(space, rng):
        oracle = dense_oracle(space)
        assert not hasattr(space, "stack") and (space.masks is None) == hasattr(space, "site_basis")
        c = rng.normal(size=space.size)
        assert np.max(np.abs(space.element(c) - np.einsum("a,aij->ij", c, oracle))) <= 1e-14
        g = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
        a, v = g / np.linalg.norm(g), g[0] / np.linalg.norm(g[0])
        want = np.einsum("aij,ji->a", oracle, a)
        assert np.max(np.abs(space.coefficients(a) - want)) <= 1e-14
        want = np.einsum("i,aij,j->a", v.conj(), oracle, v)
        assert np.max(np.abs(space.coefficients(v) - want)) <= 1e-14
        h = a + a.conj().T
        want = np.einsum("a,aij->ij", np.einsum("aij,ji->a", oracle, h).real, oracle)
        assert np.max(np.abs(space.project_operator(h) - want)) <= 1e-14

    @pytest.mark.parametrize("factory", ORACLE_SPACES)
    def test_catalog_spaces(self, factory):
        space = factory()
        self.check(space, np.random.default_rng(space.dim * space.size))

    @pytest.mark.parametrize("entries", [operators._BLOCK_ENTRIES, 64])
    def test_seeded_word_sets(self, entries, monkeypatch):
        # at 64 entries a block holds two words at L = 5: both maps cross block edges
        monkeypatch.setattr(operators, "_BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(5)
        for space in seeded_word_spaces():
            self.check(space, rng)

    @pytest.mark.parametrize("factory", [catalog.omega3, catalog.z_conserving_u2,
                                         catalog.omega1])
    def test_wrong_lengths_and_dimensions_refused(self, factory):
        space = factory()
        for size in (space.size - 1, space.size + 1, 2 * space.size):
            with pytest.raises(ValueError):
                space.element(np.ones(size))
        with pytest.raises(ValueError, match="coefficients a site"):
            space.site_element(np.ones(space.size // space.sites + 1))
        for shape in ((space.dim + 1,), (space.dim - 1, space.dim - 1), (2 * space.dim,)):
            with pytest.raises(DimensionMismatch):
                space.coefficients(np.ones(shape))
        with pytest.raises(DimensionMismatch):
            space.project_operator(np.eye(space.dim + 1))


def dense_lie_oracle(ops) -> bool:
    """Dense route: the span equals its bracket closure, and its traceless commutant is empty."""
    return lie_closure(ops).size == len(orthonormalize(ops)) and commutant_basis(ops) == []


def lie_oracle(words) -> bool:
    return dense_lie_oracle([dense_word(w) for w in words])


def dense_word_space(words) -> ObservableSpace:
    """The words as a dense one-site space: their matrices over sqrt(2^L)."""
    return ObservableSpace([dense_word(w) / np.sqrt(2 ** len(w)) for w in words])


def direct_sums(ops) -> list:
    """Two reducible forms of a trace-orthonormal set, x (x) 1 on one more qubit (1 (x) Z
    commutes with it) and x (+) -conj(x), the set beside its dual (so does 1 (+) 0): each is
    closed exactly when the set is."""
    d = ops[0].shape[0]
    zero = np.zeros((d, d))
    return [[np.kron(x, np.eye(2)) / np.sqrt(2) for x in ops],
            [np.block([[x, zero], [zero, -x.conj()]]) / np.sqrt(2) for x in ops]]


def closed_word_set(rng, length: int) -> list:
    """Every word in the dense bracket closure of a few seeded words: a closed set."""
    count = int(rng.integers(length, 2 * length + 2))  # irreducible needs 2 * length or more
    closure = lie_closure([dense_word(w) for w in random_words(rng, length, count)])
    return ["".join(w) for w in itertools.product("IXYZ", repeat=length)
            if closure.contains(dense_word("".join(w)))]


class TestWordLieStructure:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_decided_flag_equals_the_dense_oracle(self, length, seed):
        rng = np.random.default_rng(1000 * length + seed)
        drawn = list(dict.fromkeys(random_words(rng, length, int(rng.integers(1, 2 * length + 4)))))
        for words in (drawn, closed_word_set(rng, length)):
            flag = ObservableSpace(words).irreducible_lie
            assert flag == dense_word_space(words).irreducible_lie == lie_oracle(words), words
            for ops in direct_sums(dense_word_space(words).basis):
                assert not ObservableSpace(ops).irreducible_lie, words

    def test_oracle_sees_both_answers(self):
        # the seeded sets above hold irreducible algebras as well as reducible and open sets
        rng = np.random.default_rng(5)
        answers = [lie_oracle(closed_word_set(rng, 2)) for _ in range(8)]
        assert True in answers and False in answers

    def test_two_local_su2_are_irreducible(self):
        # XI .. IZ span su(2) + su(2) on C^2 x C^2, which only multiples of 1 commute with;
        # a product of two Bloch vectors of length 1 reaches (1 + 1) / 4 = 1/2
        words = ["XI", "YI", "ZI", "IX", "IY", "IZ"]
        assert lie_oracle(words)
        space = ObservableSpace(words)
        assert space.irreducible_lie
        report = rescaled_purity(QuantumState.basis_state(4, 0), space, "auto")
        assert report.reference_source == "highest-weight"
        assert report.max_reference == pytest.approx(0.5, abs=1e-12)
        assert report.theorem_direction == "iff" and report.unentangled(1e-8)
        assert rescaled_purity(QuantumState.basis_state(4, 0), space).unentangled(1e-8)
        # the same as dense matrices conjugated by a unitary, Hermitian only to roundoff: two
        # commuting elements have a roundoff bracket, in the span by the threshold of ``contains``.
        # Rotating qubit 2 alone leaves Z (x) 1/2 the one diagonal element, whose combination
        # repeats a value, so the decision and the highest weight both take the eigh path
        rng = np.random.default_rng(3)
        u4, u2 = (np.linalg.qr(g[0] + 1j * g[1])[0]
                  for g in (rng.normal(size=(2, d, d)) for d in (4, 2)))
        dense, second = [pauli_string(w) / 2 for w in words], kron_all([ID, u2])
        for ops in ([u4 @ x @ u4.conj().T for x in dense],
                    [x if w[1] == "I" else second @ x @ second.conj().T
                     for w, x in zip(words, dense)]):
            space = ObservableSpace(ops)
            assert space.irreducible_lie
            report = rescaled_purity(QuantumState.basis_state(4, 0), space, "auto")
            assert report.reference_source == "highest-weight" and report.theorem_direction == "iff"
            assert report.max_reference == pytest.approx(0.5, abs=1e-12)

    def test_spin_half_beside_spin_one_is_reducible(self):
        # su(2) on C^2 (+) C^3 is closed, and J_z (+) J_z has the simple spectrum 1/2, -1/2,
        # 1, 0, -1: no rotated entry joins the two blocks, so the graph has two components
        half, one = operators.spin_generators(0.5), operators.spin_generators(1)
        ops = orthonormalize([np.block([[a, np.zeros((2, 3))], [np.zeros((3, 2)), b]])
                              for a, b in zip(half, one)])
        assert lie_closure(ops).size == 3 and commutant_basis(ops) != []
        assert not ObservableSpace(ops).irreducible_lie

    def test_su3_adjoint_is_decided_false(self):
        # the adjoint representation of su(3) is irreducible, but weight 0 appears twice in it,
        # so every element's spectrum is degenerate: no element proves irreducibility, and a
        # flag that is True only when proved reads False
        su3 = np.stack(gell_mann_basis(3))
        ops = [np.einsum("cij,bji->cb", su3, bracket(x, su3)).real * 1j for x in su3]
        ops = [h / np.sqrt(np.trace(h @ h).real) for h in ops]
        assert dense_lie_oracle(ops)
        space = ObservableSpace(ops)
        assert not space.irreducible_lie
        # the highest weight asks only for a simple top eigenvalue, which weight 0 leaves alone
        for seed in (0, 7):
            state = purity.highest_weight_state(space, seed)
            assert state is not None
            assert abs(omega_purity(state, space) - generic_highest_weight(space, seed)) <= 1e-12

    def test_x_and_z_are_not_closed(self):
        # i[X, Z] = 2Y, and Y is not in span{X, Z}
        assert np.array_equal(bracket(DENSE["X"], DENSE["Z"]), 2 * DENSE["Y"])
        assert not ObservableSpace(["X", "Z"]).irreducible_lie
        assert lie_closure([DENSE["X"], DENSE["Z"]]).size == 3

    def test_so4_fermi_is_closed_but_reducible(self):
        # the parity word ZZ commutes with each of the six quadratic words
        words = fermion.quadratic_words(2)
        zz = dense_word("ZZ")
        assert all(np.array_equal(zz @ dense_word(w), dense_word(w) @ zz) for w in words)
        assert lie_closure([dense_word(w) for w in words]).size == 6
        assert not fermion.fermionic_so4().irreducible_lie
        assert not lie_oracle(words)
