import re
from fractions import Fraction

import numpy as np
import pytest

from getk import catalog, states
from getk.operators import (
    PAULI,
    ObservableSpace,
    lie_closure,
    pauli_string,
    random_density_state,
    random_pure_state,
)
from getk.purity import is_generalized_unentangled, rescaled_purity

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
                dense = np.einsum("i,aij,j->a", v.conj(), space.stack, v).real
            else:
                state = random_density_state(d0 ** n, rng)
                dense = np.einsum("aij,ji->a", space.stack, state.density()).real
            got = space.expectation_vector(state)
            assert got.shape == (space.size,)
            assert np.max(np.abs(got - dense)) <= 1e-14

    def test_lazy_stack_equals_the_kron_embedding(self):
        space = catalog.local_algebra(2, 3)
        ident = np.eye(3) / np.sqrt(3)
        expected = [np.kron(x, ident) for x in space.site_basis]
        expected += [np.kron(ident, x) for x in space.site_basis]
        assert np.array_equal(space.stack, np.stack(expected))
        assert not space.stack.flags.writeable

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

    def test_purity_leaves_the_stack_unbuilt(self):
        space = catalog.local_algebra.__wrapped__(10, 2)  # a fresh, uncached instance
        w10 = states.builtin_state("w:10")
        report = rescaled_purity(w10, space)
        verdict = is_generalized_unentangled(w10, space)
        assert "stack" not in vars(space)
        assert (report.raw, report.max_reference) == (pytest.approx(0.00625), 0.009765625)
        assert not verdict.unentangled and verdict.rescaled == report.rescaled

    def test_auto_reference_builds_the_stack(self):
        space = catalog.local_algebra.__wrapped__(3, 2)
        report = rescaled_purity(states.builtin_state("w:3"), space, "auto")
        assert "stack" in vars(space)
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

    def test_spin_zero_rejected(self):
        with pytest.raises(ValueError, match="spin 0 has no su"):
            catalog.restricted_local_spins(0)


class TestSpinAlgebra:
    def test_labels_and_max(self):
        space = catalog.spin_algebra(2)
        assert space.label == "su2-spin:2"
        assert space.max_purity == pytest.approx(6 / 15)
        half = catalog.spin_algebra(1.5)
        assert half.label == "su2-spin:3/2"

    def test_closed(self):
        assert lie_closure(catalog.spin_algebra(1).basis).size == 3

    def test_spin_zero_rejected(self):
        with pytest.raises(ValueError, match="spin 0 has no su"):
            catalog.spin_algebra(0)


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
