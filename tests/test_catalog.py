import itertools
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from getk import catalog, cli, coherent, fermion, operators, states
from getk.operators import (
    ObservableSpace,
    QuantumState,
    expectation,
    lie_closure,
    pauli_string,
)
from getk.purity import rescaled_purity
from random_states import random_density_state, random_pure_state
from spin_oracle import ORACLE_SPINS, dense_spin_generators

SX, SY, SZ, ID = map(pauli_string, "XYZI")


def forbid_dense_elements(monkeypatch):
    """Make building any element X_a, alone or as the dense basis, fail."""
    def no_matrix(*args):
        raise LookupError("dense element built")

    monkeypatch.setattr(ObservableSpace, "element", no_matrix)
    monkeypatch.setattr(ObservableSpace, "basis", property(no_matrix))


ALL_SPACES = [
    lambda: catalog.local_algebra(1, 2),
    lambda: catalog.local_algebra(2, 2),
    lambda: catalog.local_algebra(2, 3),
    lambda: catalog.omega1(),
    lambda: catalog.omega_prime_loc(),
    lambda: catalog.z_conserving_u2(),
    lambda: catalog.bilocal_pair_algebra(),
    lambda: catalog.first_pair_algebra(),
    lambda: catalog.omega3(),
    lambda: catalog.omega4(),
    lambda: catalog.spin_algebra(1.5),
    lambda: catalog.restricted_local_spins(1),
    lambda: catalog.local_algebra(1, 4, label="full:4"),
]


@pytest.mark.parametrize("factory", ALL_SPACES)
def test_catalog_spaces_are_valid(factory):
    space = factory()
    # the constructor re-validates orthonormality and hermiticity
    ObservableSpace(space.basis)
    assert space.traceless


# the one-site spaces next to their multi-site counterparts
ORACLE_SPACES = ALL_SPACES + [
    lambda: catalog.restricted_local_spins(0.5),
    lambda: catalog.restricted_local_spins(2.5),
    # su(D) on one site, labelled as the complete traceless space on C^D
    *(lambda d=d: catalog.local_algebra(1, d, label=f"full:{d}") for d in (2, 3, 7)),
]


@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize("factory", ORACLE_SPACES, ids=lambda factory: factory().label)
def test_expectations_match_a_dense_oracle(factory, kind):
    # the oracle is Tr(rho x) one basis element at a time, by matrix products
    space = factory()
    rng = np.random.default_rng(space.dim * space.size)
    for _ in range(3):
        if kind == "pure":
            state = random_pure_state(space.dim, rng)
        else:
            state = random_density_state(space.dim, rng)
        oracle = [expectation(state, x) for x in space.basis]
        assert np.max(np.abs(space.expectation_vector(state) - oracle)) <= 1e-14


class TestSharedSpacesImmutable:
    @pytest.mark.parametrize("attr, value", [("max_purity", 0.1), ("label", "mine"),
                                             ("irreducible_lie", False), ("stack", None)])
    def test_assignment_raises(self, attr, value):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(catalog.omega1(), attr, value)
        assert catalog.omega1().max_purity == 0.375
        assert catalog.omega1().label == "omega1" and catalog.omega1().irreducible_lie

    def test_deletion_raises(self):
        with pytest.raises(AttributeError, match="immutable"):
            del catalog.omega1().max_purity
        assert catalog.omega1().max_purity == 0.375

    def test_site_basis_read_only(self):
        with pytest.raises(ValueError):
            catalog.omega1().site_basis[0, 0, 0] = 1.0

    @pytest.mark.parametrize("factory", [catalog.omega1, catalog.omega3, catalog.z_conserving_u2])
    def test_basis_elements_are_fresh(self, factory):
        # basis builds new matrices on every read: writing into one changes no shared space
        before = np.stack(factory().basis)
        for x in factory().basis:
            x[...] = 7.0
        assert np.array_equal(np.stack(factory().basis), before)


class TestLocalAlgebra:
    def test_two_qubits_matches_pauli_embedding(self):
        space = catalog.local_algebra(2, 2)
        assert space.size == 6
        expected = [np.kron(p, ID) / 2 for p in (SX, SY, SZ)]
        expected += [np.kron(ID, p) / 2 for p in (SX, SY, SZ)]
        for got, want in zip(space.basis, expected):
            assert np.max(np.abs(got - want)) < 1e-14

    def test_single_site(self):
        space = catalog.local_algebra(1, 2)
        expected = [p / np.sqrt(2) for p in (SX, SY, SZ)]
        for got, want in zip(space.basis, expected):
            assert np.max(np.abs(got - want)) < 1e-14

    def test_three_qubits_is_omega1(self):
        space = catalog.local_algebra(3, 2)
        assert space.size == 9
        omega1 = catalog.omega1()
        for a in space.basis:
            assert omega1.contains(a)

    @pytest.mark.parametrize("n,d0", [(1, 2), (2, 2), (3, 2), (2, 3), (1, 4)])
    def test_element_count(self, n, d0):
        assert catalog.local_algebra(n, d0).size == n * (d0 * d0 - 1)

    def test_closed_under_bracket(self):
        space = catalog.local_algebra(2, 2)
        assert lie_closure(space.basis).size == space.size

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            catalog.local_algebra(11, 2)

    def test_huge_site_count_refused_without_forming_the_power(self):
        # 2 ** 10**9 is a 125 MB integer that takes seconds to build and divide
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exceeds the supported {catalog.MAX_DIM}"):
            catalog.local_algebra(10 ** 9, 2)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("d0", [33, 64, 1024])
    def test_site_dimension_cap_before_the_site_basis(self, d0, monkeypatch):
        # local:1x1024 passes the total-dimension check, but its site basis is ~17.6 TB
        def no_basis(d):
            raise AssertionError(f"gell_mann_basis({d}) was called")

        monkeypatch.setattr(catalog, "gell_mann_basis", no_basis)
        with pytest.raises(ValueError, match=f"site dimension {d0} exceeds the supported 32"):
            catalog.local_algebra(1, d0)

    def test_largest_site_is_built(self):
        space = catalog.local_algebra.__wrapped__(1, catalog.MAX_SITE_DIM)
        assert (space.dim, space.size) == (32, 32 * 32 - 1)


class TestSiteFactoredLocalAlgebra:
    """``local_algebra`` computes expectations from single-site reductions."""

    @pytest.mark.parametrize("kind", ["pure", "density"])
    @pytest.mark.parametrize("n,d0", [(1, 2), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4)])
    def test_matches_dense_stack(self, n, d0, kind):
        space = catalog.local_algebra(n, d0)
        rng = np.random.default_rng(100 * n + d0)
        for _ in range(3):
            if kind == "pure":
                state = random_pure_state(d0 ** n, rng)
                v = state.vector
                dense = np.einsum("i,aij,j->a", v.conj(), np.stack(space.basis), v).real
            else:
                state = random_density_state(d0 ** n, rng)
                dense = np.einsum("aij,ji->a", np.stack(space.basis), state.density()).real
            got = space.expectation_vector(state)
            assert got.shape == (space.size,)
            assert np.max(np.abs(got - dense)) <= 1e-14

    def test_basis_equals_the_kron_embedding(self):
        space = catalog.local_algebra(2, 3)
        ident = np.eye(3) / np.sqrt(3)
        expected = [np.kron(x, ident) for x in space.site_basis]
        expected += [np.kron(ident, x) for x in space.site_basis]
        assert np.max(np.abs(np.stack(space.basis) - np.stack(expected))) <= 1e-15

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ghz_is_exactly_zero(self, n):
        ghz = states.builtin_state(f"ghz:{n}")
        assert not np.any(catalog.local_algebra(n, 2).expectation_vector(ghz))
        report = rescaled_purity(ghz, catalog.local_algebra(n, 2))
        assert report.raw == 0.0 and report.rescaled == 0.0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_w_rescaled(self, n):
        report = rescaled_purity(states.builtin_state(f"w:{n}"), catalog.local_algebra(n, 2))
        want = float(Fraction(n - 2, n) ** 2)
        assert abs(report.rescaled - want) <= 1e-14
        assert f"{report.rescaled:.12g}" == f"{want:.12g}"

    def test_purity_leaves_the_stack_unbuilt(self, monkeypatch):
        space = catalog.local_algebra.__wrapped__(10, 2)  # a fresh, uncached instance
        w10 = states.builtin_state("w:10")
        forbid_dense_elements(monkeypatch)
        report = rescaled_purity(w10, space)
        assert (report.raw, report.max_reference) == (pytest.approx(0.00625), 0.009765625)
        assert rescaled_purity(w10, space).unentangled(1e-8) is False

    def test_auto_reference_leaves_the_stack_unbuilt(self, monkeypatch):
        # the highest-weight vector of a sum of site terms is a product of site eigenvectors
        space = catalog.local_algebra.__wrapped__(3, 2)
        forbid_dense_elements(monkeypatch)
        report = rescaled_purity(states.builtin_state("w:3"), space, "auto")
        assert report.reference_source == "highest-weight"
        assert report.max_reference == pytest.approx(0.375, abs=1e-12)

    def test_site_basis_is_validated(self):
        with pytest.raises(ValueError, match="traceless site basis"):
            ObservableSpace([np.eye(2) / np.sqrt(2)], sites=3)
        with pytest.raises(ValueError, match="trace-orthonormal"):
            ObservableSpace([SZ, SX], sites=2)


class TestPauliStringSpace:
    def test_omega_prime(self):
        space = catalog.omega_prime_loc()
        assert space.size == 4
        assert space.contains(np.kron(SX, SX) / 2)
        assert space.contains(np.kron(SY, SZ) / 2)

    def test_omega_prime_not_bracket_closed(self):
        # purity needs no Lie structure; this span genuinely is not one
        closure = lie_closure(catalog.omega_prime_loc().basis)
        assert closure.size > 4

    def test_duplicates_collapse(self):
        space = ObservableSpace(["XX", "xx", "ZZ"])
        assert space.size == 2

    def test_distinct_count(self):
        space = ObservableSpace(["XI", "IY", "ZZ"])
        assert space.size == 3

    def test_malformed_word(self):
        with pytest.raises(ValueError):
            ObservableSpace(["XQ"])
        with pytest.raises(ValueError):
            ObservableSpace(["XX", "X"])

    def test_word_count_bounded_before_any_matrix(self, monkeypatch):
        # size x dim is checked before any mask array exists: 4,096 ten-letter words fill
        # MAX_ENTRIES and one more is refused; the numerical reference refuses size x dim^2
        # over MAX_ENTRIES before any dim x dim matrix exists
        def no_masks(word):
            raise LookupError(f"masks read for {word}")

        def no_matrix(*args):
            raise LookupError("matrix built")

        words = ["".join(w) for w in itertools.islice(itertools.product("XYZ", repeat=10), 4097)]
        assert 4096 * 2 ** 10 == operators.MAX_ENTRIES == 4 * 4 ** 10
        with monkeypatch.context() as patch:
            patch.setattr(operators, "pauli_masks", no_masks)
            with pytest.raises(LookupError):
                ObservableSpace(words[:4096])
            with pytest.raises(ValueError, match="^4097 Pauli words of length 10 exceed"):
                ObservableSpace(words)
        monkeypatch.setattr(ObservableSpace, "element", no_matrix)
        monkeypatch.setattr(ObservableSpace, "site_element", no_matrix)
        with pytest.raises(LookupError):
            coherent.max_purity_estimate(ObservableSpace(words[:4]))
        for space in (ObservableSpace(words[:5]), ObservableSpace(words[:64]),
                      catalog.local_algebra(10, 2)):
            with pytest.raises(ValueError, match=f"^a numerical reference for {space.size} "
                                                 "observables of dimension 1024 exceeds"):
                coherent.max_purity_estimate(space)

    def test_omega4_census(self):
        # 9 two-body strings per pair, three pairs
        space = catalog.omega4()
        assert space.size == 27
        words = set()
        for a in "XYZ":
            for b in "XYZ":
                words.update({f"{a}{b}I", f"I{a}{b}", f"{a}I{b}"})
        assert len(words) == 27
        norm = np.sqrt(8.0)
        for w in words:
            assert space.contains(pauli_string(w) / norm)

    def test_omega3_census(self):
        assert catalog.omega3().size == 18


class TestZConservingU2:
    def test_closure_dimension(self):
        space = catalog.z_conserving_u2()
        assert lie_closure(space.basis).size == 4

    def test_commutes_with_sz(self):
        space = catalog.z_conserving_u2()
        sz = 0.5 * (np.kron(SZ, ID) + np.kron(ID, SZ))
        for x in space.basis:
            assert np.max(np.abs(x @ sz - sz @ x)) < 1e-12

    def test_zz_not_in_span(self):
        space = catalog.z_conserving_u2()
        zz = np.kron(SZ, SZ) / 2  # unit trace norm
        assert space.residual_norm(zz) > 0.9


class TestBilocalPair:
    def test_dimension(self):
        assert catalog.bilocal_pair_algebra().size == 18
        assert catalog.first_pair_algebra().size == 15

    def test_contains_omega1(self):
        space = catalog.bilocal_pair_algebra()
        for a in catalog.omega1().basis:
            assert space.contains(a)

    def test_closed_under_bracket(self):
        space = catalog.bilocal_pair_algebra()
        assert lie_closure(space.basis).size == 18


class TestRestrictedLocalSpins:
    def test_half_spin_matches_local_algebra(self):
        restricted = catalog.restricted_local_spins(0.5)
        local = catalog.local_algebra(2, 2)
        assert restricted.size == local.size == 6
        for got, want in zip(restricted.basis, local.basis):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_spin_one_shape(self):
        space = catalog.restricted_local_spins(1)
        assert space.size == 6
        assert space.dim == 9

    def test_spin_zero_rejected(self):
        with pytest.raises(ValueError, match="spin 0 has no su"):
            catalog.restricted_local_spins(0)

    @pytest.mark.parametrize("j", [0.5, 1, 2.5])
    def test_stack_equals_the_kron_construction(self, j):
        generators = dense_spin_generators(j)
        d = len(generators[2])
        nrm = np.sqrt(j * (j + 1) * d / 3.0) * np.sqrt(d)
        eye = np.eye(d, dtype=complex)
        ops = [np.kron(g, eye) / nrm for g in generators]
        ops += [np.kron(eye, g) / nrm for g in generators]
        basis = np.stack(catalog.restricted_local_spins(j).basis)
        assert np.max(np.abs(basis - np.stack(ops))) <= 1e-15

    def test_above_max_dim_rejected(self):
        # 33^2 = 1089 > MAX_DIM: the space refuses it before any stack exists
        with pytest.raises(ValueError, match=rf"33\^2 exceeds the supported {catalog.MAX_DIM}"):
            catalog.restricted_local_spins(16)

    def test_largest_spin_builds_without_its_stack(self, monkeypatch):
        forbid_dense_elements(monkeypatch)
        space = catalog.restricted_local_spins.__wrapped__(15.5)  # built here, under the guard
        assert space.dim == catalog.MAX_DIM == 1024


class TestSpinAlgebra:
    def test_labels_and_max(self):
        space = catalog.spin_algebra(2)
        assert space.label == "su2-spin:2"
        assert space.max_purity == pytest.approx(6 / 15)
        half = catalog.spin_algebra(1.5)
        assert half.label == "su2-spin:3/2"

    def test_label_writes_j_as_its_fraction(self):
        # J is written from 2J, exactly as Fraction writes it, for every spin under MAX_DIM
        assert all(catalog._spin_text(two_j + 1) == str(Fraction(two_j, 2))
                   for two_j in range(1, catalog.MAX_DIM))
        for two_j in (1, 2, 3, 4, 7, 8, 31):  # both spaces, up to the largest two-site spin
            j = Fraction(two_j, 2)
            assert catalog.spin_algebra(two_j / 2).label == f"su2-spin:{j}"
            assert catalog.restricted_local_spins(two_j / 2).label == f"su2x2-spin:{j}"

    @pytest.mark.parametrize("j", ORACLE_SPINS)
    def test_site_basis_is_the_dense_construction(self, j):
        # the generators filled in entry by entry, each divided by sqrt(J(J+1)(2J+1)/3)
        generators = dense_spin_generators(j)
        want = np.stack([g / np.sqrt(j * (j + 1) * len(g) / 3.0) for g in generators])
        space = catalog.spin_algebra.__wrapped__(j)  # built here: the cache keeps 32 spaces
        assert space.site_basis.tobytes() == want.tobytes()
        assert space.max_purity == 3.0 * j / ((j + 1) * (2 * j + 1))

    def test_closed(self):
        assert lie_closure(catalog.spin_algebra(1).basis).size == 3

    def test_spin_zero_rejected(self):
        with pytest.raises(ValueError, match="spin 0 has no su"):
            catalog.spin_algebra(0)

    def test_cache_is_bounded(self):
        # su2-spin:J holds 3 (2J+1)^2 entries: forty spins keep the latest 32 spaces alive
        for k in range(1, 41):
            catalog.spin_algebra(k / 2)
        assert catalog.spin_algebra.cache_info().currsize == 32
        assert catalog.named_algebra("su2-spin:3/2") is catalog.named_algebra("su2-spin:3/2")
        for factory in (catalog.local_algebra, catalog.restricted_local_spins):
            assert factory.cache_info().maxsize == 32


class TestNamedAlgebra:
    @pytest.mark.parametrize("name,size", [
        ("omega1", 9),
        ("omega2-literal", 18),
        ("omega2-paper-values", 15),
        ("omega3", 18),
        ("omega4", 27),
        ("omega-prime-loc", 4),
        ("u2", 4),
        ("so4-fermi", 6),
        ("local:2x2", 6),
        ("local:2x3", 16),
        ("su2-spin:2", 3),
        ("su2-spin:3/2", 3),
    ])
    def test_resolves(self, name, size):
        assert catalog.named_algebra(name).size == size

    # each catalog name, a builtin state of its dimension and the direction classify prints
    @pytest.mark.parametrize("name,state,direction", [
        ("omega1", "w:3", "iff"),
        ("omega2-literal", "ghz:3", "iff"),
        ("local:2x2", "bell:phi+", "iff"),
        ("local:2x3", "spin:4,0", "iff"),
        ("su2-spin:3/2", "spin:3/2,1/2", "iff"),
        ("su2-spin:100", "spin:100,100", "iff"),
        ("omega2-paper-values", "bisep:13", "sufficient"),
        ("omega3", "w:3", "sufficient"),
        ("omega4", "bisep:23", "sufficient"),
        ("omega-prime-loc", "bell:phi+", "sufficient"),
        ("u2", "bell:psi+", "sufficient"),
        ("so4-fermi", "fock:m2:11", "sufficient"),
    ])
    def test_decided_structure_is_the_printed_direction(self, capsys, name, state, direction):
        assert catalog.named_algebra(name).irreducible_lie == (direction == "iff")
        assert cli.main(["classify", "--state", state, "--algebra", name]) == 0
        assert f"theorem_direction={direction}\n" in capsys.readouterr().out

    # library spaces that no catalog name reaches, two lie_closure results among them
    @pytest.mark.parametrize("factory,irreducible", [
        (lambda: catalog.restricted_local_spins(0.5), True),
        (lambda: catalog.restricted_local_spins(1), True),
        (lambda: catalog.restricted_local_spins(2), True),
        (lambda: catalog.restricted_local_spins(3.5), True),
        (lambda: catalog.restricted_local_spins(15.5), True),
        (lambda: catalog.local_algebra(1, 2), True),
        (lambda: catalog.local_algebra(1, 4), True),
        (fermion.fermionic_u2, False),
        (lambda: lie_closure(operators.spin_generators(1)[::2]), True),
        (lambda: lie_closure(catalog.z_conserving_u2().basis), False),
    ], ids=["su2x2-spin:1/2", "su2x2-spin:1", "su2x2-spin:2", "su2x2-spin:7/2",
            "su2x2-spin:31/2", "full:2", "full:4", "u2-fermi", "closure-spin-1", "closure-u2"])
    def test_library_spaces_decide_their_direction(self, factory, irreducible):
        space = factory()
        report = rescaled_purity(QuantumState.basis_state(space.dim, 0), space)
        assert space.irreducible_lie is irreducible
        assert report.theorem_direction == ("iff" if irreducible else "sufficient")

    def test_custom_file(self, tmp_path):
        path = tmp_path / "strings.txt"
        path.write_text("XX\nZZ\n# comment\nXY\n")
        space = catalog.named_algebra(f"custom:{path}")
        assert space.size == 3

    @pytest.mark.parametrize("comment", ["# note", "  # note", "\t#note"],
                             ids=["column-0", "indented", "tab"])
    def test_custom_file_skips_comment_lines(self, tmp_path, comment):
        # an indented comment was once read as a word: "Pauli words must have uniform length"
        path = tmp_path / "words.txt"
        path.write_text(f"XX\n{comment}\n\n  ZZ\n")
        space = catalog.named_algebra(f"custom:{path}")
        assert space.size == 2 and space.contains(pauli_string("ZZ"))

    def test_identity_only_custom_file(self, tmp_path):
        path = tmp_path / "identity.txt"
        path.write_text("II\n")
        space = catalog.named_algebra(f"custom:{path}")
        message = re.escape(f"algebra 'custom:{path}' has no traceless part")
        with pytest.raises(ValueError, match=message):
            space.traceless_sector()

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog.named_algebra("omega9")

    def test_bad_local_spec(self):
        with pytest.raises(ValueError):
            catalog.named_algebra("local:2by2")
