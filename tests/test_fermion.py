import numpy as np
import pytest

from getk import catalog, states
from getk.fermion import (
    fermionic_so4,
    fermionic_u2,
    fock_register,
    jw_state_dictionary,
    number_operator,
)
from getk.operators import QuantumState, lie_closure
from getk.purity import omega_purity, rescaled_purity
from random_states import random_pure_state


def anticommutator(a, b):
    return a @ b + b @ a


class TestFockRegister:
    def test_single_mode_creator(self):
        reg = fock_register(1)
        assert np.array_equal(reg.cdag[0], np.array([[0, 0], [1, 0]], dtype=complex))

    def test_vacuum_annihilated(self):
        reg = fock_register(3)
        vac = reg.vacuum().vector
        for n in reg.number_ops:
            assert np.max(np.abs(n @ vac)) == 0.0

    def test_two_mode_signs(self):
        reg = fock_register(2)
        vac = reg.vacuum().vector
        assert np.array_equal(reg.cdag[0] @ vac, QuantumState.basis_state(4, 1).vector)
        assert np.array_equal(reg.cdag[1] @ vac, QuantumState.basis_state(4, 2).vector)
        # creation in decreasing mode order carries + sign
        double = reg.cdag[0] @ (reg.cdag[1] @ vac)
        assert np.array_equal(double, QuantumState.basis_state(4, 3).vector)
        # swapping the order flips the sign
        flipped = reg.cdag[1] @ (reg.cdag[0] @ vac)
        assert np.array_equal(flipped, -QuantumState.basis_state(4, 3).vector)

    def test_entries_are_integers(self):
        reg = fock_register(3)
        for mat in reg.c + reg.cdag:
            assert np.array_equal(mat, np.round(mat.real))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_anticommutation_exact(self, m):
        reg = fock_register(m)
        eye = np.eye(2 ** m)
        for i in range(m):
            for j in range(m):
                assert np.max(np.abs(anticommutator(reg.c[i], reg.c[j]))) == 0.0
                assert np.max(np.abs(anticommutator(reg.cdag[i], reg.cdag[j]))) == 0.0
                want = eye if i == j else 0.0
                got = anticommutator(reg.cdag[i], reg.c[j])
                assert np.max(np.abs(got - want)) == 0.0

    def test_mode_count_validated(self):
        with pytest.raises(ValueError):
            fock_register(0)
        with pytest.raises(ValueError):
            fock_register(11)


class TestNumberOperator:
    def test_vacuum_eigenvalue(self):
        reg = fock_register(2)
        assert np.max(np.abs(number_operator(reg) @ reg.vacuum().vector)) == 0.0

    def test_single_particle_eigenvalue(self):
        reg = fock_register(2)
        one = reg.cdag[0] @ reg.vacuum().vector
        assert np.array_equal(number_operator(reg) @ one, one)

    def test_spectrum(self):
        reg = fock_register(3)
        evals = sorted(np.diag(number_operator(reg)).real)
        assert evals == [0, 1, 1, 1, 2, 2, 2, 3]

    def test_identity_shift_of_sz(self):
        # under the occupation/word dictionary: N + S_z = identity exactly
        from getk.operators import PAULI
        reg = fock_register(2)
        eye2 = np.eye(2)
        sz = 0.5 * (np.kron(PAULI["Z"], eye2) + np.kron(eye2, PAULI["Z"]))
        assert np.max(np.abs(number_operator(reg) + sz - np.eye(4))) == 0.0


class TestFermionicU2:
    def test_span_matches_spin_u2(self):
        fu2 = fermionic_u2(fock_register(2))
        u2 = catalog.z_conserving_u2()
        for x in fu2.basis:
            assert u2.contains(x)
        for x in u2.basis:
            assert fu2.contains(x)

    def test_commutes_with_number_exactly(self):
        reg = fock_register(2)
        nhat = number_operator(reg)
        for x in fermionic_u2(reg).basis:
            assert np.max(np.abs(x @ nhat - nhat @ x)) == 0.0

    def test_mode_count(self):
        with pytest.raises(ValueError):
            fermionic_u2(fock_register(3))

    def test_purity_extremes(self):
        fu2 = fermionic_u2(fock_register(2))
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
        reg = fock_register(2)
        fu2 = fermionic_u2(reg)
        vac = reg.vacuum().vector
        for theta in np.linspace(0.0, np.pi / 2, 11):
            for phi in np.linspace(0.0, 2 * np.pi, 12, endpoint=False):
                vec = (np.cos(theta) * reg.cdag[0] + np.exp(1j * phi) * np.sin(theta) * reg.cdag[1]) @ vac
                st = QuantumState(vector=vec)
                assert omega_purity(st, fu2) == pytest.approx(0.5, abs=1e-9)


class TestFermionicSO4:
    def test_dimension(self):
        assert fermionic_so4(fock_register(2)).size == 6

    def test_bracket_closed(self):
        so4 = fermionic_so4(fock_register(2))
        assert lie_closure(so4.basis).size == 6

    def test_contains_u2(self):
        reg = fock_register(2)
        so4 = fermionic_so4(reg)
        for x in fermionic_u2(reg).basis:
            assert so4.contains(x)

    def test_links_number_sectors(self):
        reg = fock_register(2)
        so4 = fermionic_so4(reg)
        vac = reg.vacuum().vector
        double = reg.cdag[0] @ reg.cdag[1] @ vac
        best = max(abs(vac.conj() @ (x @ double)) for x in so4.basis)
        assert best > 0.5

    def test_some_element_breaks_conservation(self):
        reg = fock_register(2)
        nhat = number_operator(reg)
        norms = [np.linalg.norm(x @ nhat - nhat @ x) for x in fermionic_so4(reg).basis]
        assert max(norms) > 0.5

    def test_purity_hierarchy(self):
        rng = np.random.default_rng(6)
        reg = fock_register(2)
        fu2, so4 = fermionic_u2(reg), fermionic_so4(reg)
        for _ in range(30):
            st = random_pure_state(4, rng)
            assert omega_purity(st, so4) >= omega_purity(st, fu2) - 1e-12

    def test_number_superpositions_maximal_for_so4(self):
        # with pairing terms available the |00>+-|11> images become extremal
        so4 = fermionic_so4(fock_register(2))
        for kind in ("psi+", "psi-"):
            st = states.builtin_state(f"bell:{kind}")
            assert rescaled_purity(st, so4).rescaled == pytest.approx(1.0, abs=1e-8)


class TestJWDictionary:
    def test_words(self):
        reg = fock_register(2)
        vac = reg.vacuum().vector
        images = {
            "00": vac,
            "01": reg.cdag[0] @ vac,
            "10": reg.cdag[1] @ vac,
            "11": reg.cdag[0] @ reg.cdag[1] @ vac,
        }
        for word, want in images.items():
            assert np.array_equal(jw_state_dictionary(word).vector, want)

    def test_bell_images(self):
        reg = fock_register(2)
        vac = reg.vacuum().vector
        s = 1 / np.sqrt(2)
        phi_plus = s * (reg.cdag[0] + reg.cdag[1]) @ vac
        assert np.allclose(states.builtin_state("bell:phi+").vector, phi_plus, atol=1e-14)
        psi_minus = s * (vac - reg.cdag[0] @ reg.cdag[1] @ vac)
        assert np.allclose(states.builtin_state("bell:psi-").vector, psi_minus, atol=1e-14)

    def test_bad_word(self):
        with pytest.raises(ValueError):
            jw_state_dictionary("02")
