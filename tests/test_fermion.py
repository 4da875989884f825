import numpy as np
import pytest

from getk import catalog, fermion, states
from getk.fermion import (
    annihilators,
    fermionic_so4,
    fermionic_u2,
    jw_state_dictionary,
    majorana_words,
    number_operator,
    quadratic_words,
)
from getk.operators import ObservableSpace, QuantumState, lie_closure, orthonormalize, pauli_string
from getk.purity import omega_purity, rescaled_purity
from random_states import random_pure_state
from test_import_graph import CATALOG_STATES


def anticommutator(a, b):
    return a @ b + b @ a


def vacuum(m):
    return QuantumState.basis_state(2 ** m, 0).vector


def creators(m):
    return [c.conj().T for c in annihilators(m)]


def bit_loop_annihilators(m):
    """The parity-string construction on the occupation basis, mode j in bit j - 1:
    the oracle for ``annihilators``."""
    dim = 2 ** m
    cs = []
    for j in range(1, m + 1):
        bit = 1 << (j - 1)
        mat = np.zeros((dim, dim), dtype=complex)
        for b in range(dim):
            if b & bit:
                mat[b ^ bit, b] = (-1) ** bin(b & (bit - 1)).count("1")
        cs.append(mat)
    return cs


def gram_schmidt_so4():
    """Gram-Schmidt of the six Hermitian bilinears of the bit-loop mode operators:
    the oracle for ``fermionic_so4``."""
    c1, c2 = bit_loop_annihilators(2)
    d1, d2 = c1.conj().T, c2.conj().T
    eye = np.eye(4, dtype=complex)
    hop, pair = d1 @ c2, d1 @ d2
    s = np.sqrt(2.0)
    raw = [(hop + hop.conj().T) / s, 1.0j * (hop - hop.conj().T) / s,
           (pair + pair.conj().T) / s, 1.0j * (pair - pair.conj().T) / s,
           d1 @ c1 - 0.5 * eye, d2 @ c2 - 0.5 * eye]
    return ObservableSpace(orthonormalize(raw), "so4-fermi")


def anticommute(p, q):
    """Two Pauli words anticommute when they differ, both non-identity, at an odd
    number of positions."""
    return sum(a != "I" and b != "I" and a != b for a, b in zip(p, q)) % 2 == 1


FOUR_DIM_STATES = [state for _, state in CATALOG_STATES if states.builtin_state(state).dim == 4]


class TestMajoranaWords:
    def test_two_modes(self):
        assert majorana_words(2) == ["IX", "IY", "XZ", "YZ"]
        assert quadratic_words(2) == ["IZ", "XY", "YY", "XX", "YX", "ZI"]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_majoranas_anticommute_pairwise(self, m):
        gammas = majorana_words(m)
        assert len(gammas) == 2 * m and all(len(g) == m for g in gammas)
        for i, p in enumerate(gammas):
            for q in gammas[i + 1:]:
                assert anticommute(p, q), (p, q)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_quadratic_word_count(self, m):
        words = quadratic_words(m)
        assert len(words) == len(set(words)) == m * (2 * m - 1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_quadratic_words_are_bilinears_up_to_phase(self, m):
        gammas = [pauli_string(g) for g in majorana_words(m)]
        pairs = [(a, b) for a in range(2 * m) for b in range(a + 1, 2 * m)]
        for (a, b), word in zip(pairs, quadratic_words(m)):
            bilinear, p = 1.0j * gammas[a] @ gammas[b], pauli_string(word)
            assert np.array_equal(bilinear, p) or np.array_equal(bilinear, -p)

    def test_ten_modes_build_no_matrix(self, monkeypatch):
        def forbidden(word):
            raise AssertionError("words need no matrix")

        monkeypatch.setattr(fermion, "pauli_string", forbidden)
        assert len(majorana_words(10)) == 20
        assert len(quadratic_words(10)) == 190

    @pytest.mark.parametrize("m", [0, 11])
    def test_mode_count_validated(self, m):
        with pytest.raises(ValueError):
            majorana_words(m)


class TestFockRegister:
    """The mode operators on the 2^m occupation basis."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_annihilators_equal_bit_loop(self, m):
        for got, want in zip(annihilators(m), bit_loop_annihilators(m), strict=True):
            assert np.array_equal(got, want)

    def test_single_mode_creator(self):
        assert np.array_equal(creators(1)[0], np.array([[0, 0], [1, 0]], dtype=complex))

    def test_vacuum_annihilated(self):
        for c in annihilators(3):
            assert np.max(np.abs(c.conj().T @ c @ vacuum(3))) == 0.0

    def test_two_mode_signs(self):
        d1, d2 = creators(2)
        vac = vacuum(2)
        assert np.array_equal(d1 @ vac, QuantumState.basis_state(4, 1).vector)
        assert np.array_equal(d2 @ vac, QuantumState.basis_state(4, 2).vector)
        # creation in decreasing mode order carries + sign
        assert np.array_equal(d1 @ (d2 @ vac), QuantumState.basis_state(4, 3).vector)
        # swapping the order flips the sign
        assert np.array_equal(d2 @ (d1 @ vac), -QuantumState.basis_state(4, 3).vector)

    def test_entries_are_integers(self):
        for mat in annihilators(3) + creators(3):
            assert np.array_equal(mat, np.round(mat.real))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_anticommutation_exact(self, m):
        c, cdag = annihilators(m), creators(m)
        eye = np.eye(2 ** m)
        for i in range(m):
            for j in range(m):
                assert np.max(np.abs(anticommutator(c[i], c[j]))) == 0.0
                assert np.max(np.abs(anticommutator(cdag[i], cdag[j]))) == 0.0
                want = eye if i == j else 0.0
                got = anticommutator(cdag[i], c[j])
                assert np.max(np.abs(got - want)) == 0.0

    def test_mode_count_validated(self):
        with pytest.raises(ValueError):
            annihilators(0)
        with pytest.raises(ValueError):
            annihilators(11)


class TestNumberOperator:
    def test_vacuum_eigenvalue(self):
        assert np.max(np.abs(number_operator(2) @ vacuum(2))) == 0.0

    def test_single_particle_eigenvalue(self):
        one = creators(2)[0] @ vacuum(2)
        assert np.array_equal(number_operator(2) @ one, one)

    def test_spectrum(self):
        evals = sorted(np.diag(number_operator(3)).real)
        assert evals == [0, 1, 1, 1, 2, 2, 2, 3]

    def test_identity_shift_of_sz(self):
        # under the occupation/word dictionary: N + S_z = identity exactly
        eye2 = np.eye(2)
        sz = 0.5 * (np.kron(pauli_string("Z"), eye2) + np.kron(eye2, pauli_string("Z")))
        assert np.max(np.abs(number_operator(2) + sz - np.eye(4))) == 0.0


class TestFermionicU2:
    def test_span_matches_spin_u2(self):
        fu2 = fermionic_u2()
        u2 = catalog.z_conserving_u2()
        for x in fu2.basis:
            assert u2.contains(x)
        for x in u2.basis:
            assert fu2.contains(x)

    def test_commutes_with_number_exactly(self):
        nhat = number_operator(2)
        for x in fermionic_u2().basis:
            assert np.max(np.abs(x @ nhat - nhat @ x)) == 0.0

    def test_purity_extremes(self):
        fu2 = fermionic_u2()
        for word in ("00", "01", "10", "11"):
            st = jw_state_dictionary(word)
            assert omega_purity(st, fu2) == pytest.approx(0.5, abs=1e-14)
        for kind in ("phi+", "phi-"):
            st = states.builtin_state(f"bell:{kind}")
            assert omega_purity(st, fu2) == pytest.approx(0.5, abs=1e-14)
        for kind in ("psi+", "psi-"):
            st = states.builtin_state(f"bell:{kind}")
            assert omega_purity(st, fu2) == 0.0

    def test_slater_determinants_maximal(self):
        # one-particle states over a (theta, phi) grid all sit at raw purity 1/2
        fu2 = fermionic_u2()
        d1, d2 = creators(2)
        vac = vacuum(2)
        for theta in np.linspace(0.0, np.pi / 2, 11):
            for phi in np.linspace(0.0, 2 * np.pi, 12, endpoint=False):
                vec = (np.cos(theta) * d1 + np.exp(1j * phi) * np.sin(theta) * d2) @ vac
                st = QuantumState(vector=vec)
                assert omega_purity(st, fu2) == pytest.approx(0.5, abs=1e-9)


class TestFermionicSO4:
    def test_dimension(self):
        assert fermionic_so4().size == 6

    def test_bracket_closed(self):
        assert lie_closure(fermionic_so4().basis).size == 6

    def test_contains_u2(self):
        so4 = fermionic_so4()
        for x in fermionic_u2().basis:
            assert so4.contains(x)

    def test_spans_the_gram_schmidt_bilinears(self):
        so4, oracle = fermionic_so4(), gram_schmidt_so4()
        assert oracle.size == 6
        assert max(oracle.residual_norm(x) for x in so4.basis) <= 1e-12
        assert max(so4.residual_norm(x) for x in oracle.basis) <= 1e-12

    @pytest.mark.parametrize("name", FOUR_DIM_STATES)
    def test_purity_equals_gram_schmidt(self, name):
        st = states.builtin_state(name)
        oracle = omega_purity(st, gram_schmidt_so4())
        assert abs(omega_purity(st, fermionic_so4()) - oracle) <= 1e-12

    def test_links_number_sectors(self):
        # summed over an orthonormal basis of the span, so the same in every basis
        d1, d2 = creators(2)
        vac = vacuum(2)
        double = d1 @ d2 @ vac
        weight = sum(abs(vac.conj() @ (x @ double)) ** 2 for x in fermionic_so4().basis)
        assert weight > 0.5

    def test_some_element_breaks_conservation(self):
        nhat = number_operator(2)
        norms = [np.linalg.norm(x @ nhat - nhat @ x) for x in fermionic_so4().basis]
        assert max(norms) > 0.5

    def test_purity_hierarchy(self):
        rng = np.random.default_rng(6)
        fu2, so4 = fermionic_u2(), fermionic_so4()
        for _ in range(30):
            st = random_pure_state(4, rng)
            assert omega_purity(st, so4) >= omega_purity(st, fu2) - 1e-12

    def test_number_superpositions_maximal_for_so4(self):
        # with pairing terms available the |00>+-|11> images become extremal
        so4 = fermionic_so4()
        for kind in ("psi+", "psi-"):
            st = states.builtin_state(f"bell:{kind}")
            assert rescaled_purity(st, so4).rescaled == pytest.approx(1.0, abs=1e-8)


class TestJWDictionary:
    def test_words(self):
        d1, d2 = creators(2)
        vac = vacuum(2)
        images = {
            "00": vac,
            "01": d1 @ vac,
            "10": d2 @ vac,
            "11": d1 @ d2 @ vac,
        }
        for word, want in images.items():
            assert np.array_equal(jw_state_dictionary(word).vector, want)

    def test_bell_images(self):
        d1, d2 = creators(2)
        vac = vacuum(2)
        s = 1 / np.sqrt(2)
        phi_plus = s * (d1 + d2) @ vac
        assert np.allclose(states.builtin_state("bell:phi+").vector, phi_plus, atol=1e-14)
        psi_minus = s * (vac - d1 @ d2 @ vac)
        assert np.allclose(states.builtin_state("bell:psi-").vector, psi_minus, atol=1e-14)

    def test_bad_word(self):
        for word in ("02", "1", "+1", "-1", "001", ""):
            with pytest.raises(ValueError):
                jw_state_dictionary(word)
