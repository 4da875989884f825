import numpy as np
import pytest

from getk import catalog
from getk.operators import PAULI, ObservableSpace, lie_closure, pauli_string

SX, SY, SZ, ID = PAULI["X"], PAULI["Y"], PAULI["Z"], PAULI["I"]


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
    lambda: catalog.full_traceless_algebra(4),
]


@pytest.mark.parametrize("factory", ALL_SPACES)
def test_catalog_spaces_are_valid(factory):
    space = factory()
    # the constructor re-validates orthonormality and hermiticity
    ObservableSpace(space.basis, dim=space.dim)
    assert space.traceless


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

    def test_stack_read_only(self):
        with pytest.raises(ValueError):
            catalog.omega1().stack[0, 0, 0] = 1.0


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
        space = catalog.pauli_string_space(["XX", "xx", "ZZ"])
        assert space.size == 2

    def test_distinct_count(self):
        space = catalog.pauli_string_space(["XI", "IY", "ZZ"])
        assert space.size == 3

    def test_malformed_word(self):
        with pytest.raises(ValueError):
            catalog.pauli_string_space(["XQ"])
        with pytest.raises(ValueError):
            catalog.pauli_string_space(["XX", "X"])

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


class TestSpinAlgebra:
    def test_labels_and_max(self):
        space = catalog.spin_algebra(2)
        assert space.label == "su2-spin:2"
        assert space.max_purity == pytest.approx(6 / 15)
        half = catalog.spin_algebra(1.5)
        assert half.label == "su2-spin:3/2"

    def test_closed(self):
        assert lie_closure(catalog.spin_algebra(1).basis).size == 3


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

    def test_custom_file(self, tmp_path):
        path = tmp_path / "strings.txt"
        path.write_text("XX\nZZ\n# comment\nXY\n")
        space = catalog.named_algebra(f"custom:{path}")
        assert space.size == 3

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog.named_algebra("omega9")

    def test_bad_local_spec(self):
        with pytest.raises(ValueError):
            catalog.named_algebra("local:2by2")
