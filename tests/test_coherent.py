import numpy as np
import pytest

from getk import catalog
from getk.coherent import (
    highest_weight_purity,
    max_purity_estimate,
    orbit_sample,
    scs,
    spin_basis_state,
    spin_system,
)
from getk.operators import (
    ObservableSpace,
    QuantumState,
    orthonormalize,
    partial_trace,
    pauli_string,
)
from getk.purity import numeric_max_reference, omega_purity, rescaled_purity
from random_states import random_pure_state


def raw_purity_and_gradient(omega: ObservableSpace, psi: np.ndarray):
    """Raw purity sum_a <X_a>^2 of a unit vector and its Euclidean gradient.

    The gradient is taken with respect to the real and imaginary parts of
    the unnormalized amplitudes: grad = 4 sum_a <X_a> X_a psi.
    """
    xpsi = np.stack(omega.basis) @ psi
    evals = (psi.conj()[None, :] @ xpsi[..., None]).ravel().real
    value = float(np.dot(evals, evals))
    grad = 4.0 * np.einsum("a,ai->i", evals, xpsi)
    return value, grad


class TestSpinSystem:
    def test_half_spin_is_half_paulis(self):
        system = spin_system(0.5)
        assert np.allclose(system.jx, pauli_string("X") / 2)
        assert np.allclose(system.jy, pauli_string("Y") / 2)
        assert np.allclose(system.jz, pauli_string("Z") / 2)

    def test_spin_one_jz(self):
        system = spin_system(1)
        assert np.allclose(system.jz, np.diag([1.0, 0.0, -1.0]))

    def test_spin_three_halves_spectrum(self):
        system = spin_system(1.5)
        assert np.allclose(np.diag(system.jz), [1.5, 0.5, -0.5, -1.5])

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 3])
    def test_ladder_relations(self, j):
        system = spin_system(j)
        jplus = system.jx + 1j * system.jy
        for k, m in enumerate(j - np.arange(system.dim)):
            v = np.zeros(system.dim)
            v[k] = 1.0
            out = jplus @ v
            want = np.sqrt(j * (j + 1) - m * (m + 1)) if m < j else 0.0
            if m < j:
                assert out[k - 1] == pytest.approx(want, abs=1e-12)
            else:
                assert np.max(np.abs(out)) < 1e-12

    @pytest.mark.parametrize("j", [0.5, 1, 2.5])
    def test_standard_commutator(self, j):
        system = spin_system(j)
        comm = system.jx @ system.jy - system.jy @ system.jx
        assert np.max(np.abs(comm - 1j * system.jz)) < 1e-12

    def test_casimir(self):
        system = spin_system(2)
        casimir = sum(g @ g for g in system.generators)
        assert np.allclose(casimir, 2 * 3 * np.eye(5))

    def test_invalid_spin(self):
        with pytest.raises(ValueError):
            spin_system(0.3)


class TestSpinBasisState:
    @pytest.mark.parametrize("j", [0, 0.5, 1, 1.5, 3, 7.5])
    def test_is_the_jz_eigenstate(self, j):
        jz = spin_system(j).jz
        for k in range(round(2 * j) + 1):
            v = spin_basis_state(j, j - k).vector
            assert v[k] == 1.0 and np.linalg.norm(v) == 1.0
            assert np.array_equal(jz @ v, (j - k) * v)

    @pytest.mark.parametrize("j, m", [(1, 1 + 1e-13), (1.5, -1.5 - 1e-13), (2, 3e-13)])
    def test_m_within_roundoff_of_the_grid(self, j, m):
        assert spin_basis_state(j, m).vector[round(j - m)] == 1.0

    @pytest.mark.parametrize("j, m", [(1, -1.4), (1, 0.4), (1.5, 1 / 3), (1.5, 1), (2, 1e-9)])
    def test_off_grid_m_refused(self, j, m):
        # these once rounded to the nearest basis state
        with pytest.raises(ValueError, match=f"m={m} is not J minus a whole number"):
            spin_basis_state(j, m)

    @pytest.mark.parametrize("j, m", [(1, 2), (1, -1.6), (0.5, 1.5), (1, float("inf")),
                                      (1, float("nan"))])
    def test_m_outside_the_range_refused(self, j, m):
        with pytest.raises(ValueError, match=f"m={m} outside -J..J"):
            spin_basis_state(j, m)

    def test_builds_no_generators(self, monkeypatch):
        # spin:511.5,M names one vector: the three 1024 x 1024 generators are never built
        monkeypatch.setattr("getk.coherent.spin_system", None)
        assert spin_basis_state(511.5, 511.5).dim == 1024


class TestSCS:
    def test_north_pole(self):
        system = spin_system(2)
        st = scs(system, [0, 0, 1])
        north = spin_basis_state(2, 2).vector
        assert abs(np.vdot(st.vector, north)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_south_pole(self):
        system = spin_system(2)
        st = scs(system, [0, 0, -1])
        south = spin_basis_state(2, -2).vector
        assert abs(np.vdot(st.vector, south)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_x_direction_qubit(self):
        st = scs(spin_system(0.5), [1, 0, 0])
        assert np.allclose(st.vector, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)

    def test_requires_unit_direction(self):
        with pytest.raises(ValueError):
            scs(spin_system(1), [0, 0, 2])

    def test_eigenvalue_residual_randomized(self):
        rng = np.random.default_rng(2)
        count = 0
        for j in (0.5, 1, 1.5, 2, 3, 5):
            system = spin_system(j)
            ndotj = None
            for _ in range(20):
                n = rng.normal(size=3)
                n /= np.linalg.norm(n)
                st = scs(system, n)
                ndotj = n[0] * system.jx + n[1] * system.jy + n[2] * system.jz
                resid = np.linalg.norm(ndotj @ st.vector - j * st.vector)
                assert resid < 1e-9
                count += 1
        assert count >= 100

    def test_phase_deterministic(self):
        system = spin_system(1.5)
        a = scs(system, [0.6, 0.0, 0.8]).vector
        b = scs(system, [0.6, 0.0, 0.8]).vector
        assert np.array_equal(a, b)
        k = int(np.argmax(np.abs(a)))
        assert a[k].imag == pytest.approx(0.0, abs=1e-14) and a[k].real > 0


class TestOrbitSample:
    def test_zero_angles_identity(self):
        space = catalog.spin_algebra(1)
        ref = spin_basis_state(1, 1)
        out = orbit_sample(space, ref, [0.0, 0.0, 0.0])
        assert abs(np.vdot(out.vector, ref.vector)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_spin_orbit_stays_extremal(self):
        rng = np.random.default_rng(12)
        space = catalog.spin_algebra(2)
        ref = spin_basis_state(2, 2)
        for _ in range(10):
            out = orbit_sample(space, ref, rng.normal(size=3))
            assert rescaled_purity(out, space).rescaled == pytest.approx(1.0, abs=1e-9)

    def test_local_orbit_of_product_is_product(self):
        rng = np.random.default_rng(13)
        space = catalog.local_algebra(2, 2)
        ref = QuantumState.basis_state(4, 0)
        for _ in range(10):
            out = orbit_sample(space, ref, rng.normal(size=6))
            red = partial_trace(out, [2, 2], [0])
            assert red.purity() == pytest.approx(1.0, abs=1e-10)

    def test_orbit_purity_constant_for_closed_spaces(self):
        rng = np.random.default_rng(14)
        for space in (catalog.z_conserving_u2(), catalog.local_algebra(2, 2)):
            ref = random_pure_state(4, rng)
            base = omega_purity(ref, space)
            for _ in range(10):
                out = orbit_sample(space, ref, rng.normal(size=space.size))
                assert omega_purity(out, space) == pytest.approx(base, abs=1e-9)

    def test_angle_count_checked(self):
        with pytest.raises(ValueError):
            orbit_sample(catalog.spin_algebra(1), spin_basis_state(1, 1), [0.0])

    def test_density_reference_refused(self):
        mixed = QuantumState(rho=np.eye(3) / 3)
        with pytest.raises(ValueError, match="needs a pure reference state"):
            orbit_sample(catalog.spin_algebra(1), mixed, [0.0, 0.0, 0.0])


class TestExpIHermitian:
    """The unitary exp(i h) that ``orbit_sample`` applies, read off its images of a basis."""

    def test_unitary(self):
        # the images of an orthonormal basis stay orthonormal
        rng = np.random.default_rng(15)
        space = catalog.local_algebra(1, 4)
        angles = rng.normal(size=space.size)
        u = np.stack([orbit_sample(space, QuantumState.basis_state(4, k), angles).vector
                      for k in range(4)], axis=1)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_matches_series_on_pauli(self):
        theta = 0.7
        space = ObservableSpace([pauli_string("Z") / np.sqrt(2.0)])
        u = np.stack([orbit_sample(space, QuantumState.basis_state(2, k), [theta * np.sqrt(2.0)])
                      .vector for k in range(2)], axis=1)
        want = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
        assert np.allclose(u, want, atol=1e-12)


def numeric_gradient(space, psi, h=1e-5):
    d = psi.size
    x0 = np.concatenate([psi.real, psi.imag])

    def f(x):
        v = x[:d] + 1j * x[d:]
        vals = np.einsum("i,aij,j->a", v.conj(), np.stack(space.basis), v).real
        return float(np.dot(vals, vals))

    grad = np.zeros(2 * d)
    for i in range(2 * d):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2 * h)
    return grad[:d] + 1j * grad[d:]


class TestMaxPurityEstimate:
    def test_full_traceless_space(self):
        space = catalog.local_algebra(1, 3)
        est = max_purity_estimate(space, restarts=8, seed=0)
        assert est == pytest.approx(1 - 1 / 3, abs=1e-6)

    def test_u2_against_sampling_oracle(self):
        space = catalog.z_conserving_u2()
        est = max_purity_estimate(space, restarts=16, seed=0)
        # oracle 1: dense random sampling never exceeds the estimate by much
        rng = np.random.default_rng(99)
        draws = rng.normal(size=(100_000, 4)) + 1j * rng.normal(size=(100_000, 4))
        draws /= np.linalg.norm(draws, axis=1)[:, None]
        vals = np.einsum("si,aij,sj->sa", draws.conj(), np.stack(space.basis), draws).real
        sampled_max = float(np.max(np.sum(vals ** 2, axis=1)))
        assert sampled_max <= est + 1e-6
        # oracle 2: the analytic value attained on the one-particle pair state
        v = np.zeros(4, dtype=complex)
        v[1] = v[2] = 1 / np.sqrt(2)
        attained = omega_purity(QuantumState(vector=v), space)
        assert attained == pytest.approx(0.5, abs=1e-14)
        assert est == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("j", [1, 1.5, 2])
    def test_spin_maximum_rescales_to_one(self, j):
        space = catalog.spin_algebra(j)
        est = max_purity_estimate(space, restarts=8, seed=0)
        assert est / space.max_purity == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_for_fixed_seed(self):
        space = catalog.z_conserving_u2()
        a = max_purity_estimate(space, restarts=4, seed=7)
        b = max_purity_estimate(space, restarts=4, seed=7)
        assert a == b

    def test_bound_respected(self):
        space = catalog.omega_prime_loc()
        est = max_purity_estimate(space, restarts=8, seed=1)
        assert est <= 1 - 1 / 4 + 1e-8

    @pytest.mark.parametrize("name, maximum", [
        ("omega1", 3 / 8), ("omega2-literal", 1 / 2), ("omega2-paper-values", 3 / 8),
        ("local:3x2", 3 / 8), ("su2-spin:1", 1 / 2), ("su2-spin:3/2", 9 / 20),
        ("su2-spin:2", 2 / 5), ("su2-spin:5/2", 5 / 14),
        # no maximum attached; a Bell pair (times a product factor) attains each value
        ("omega3", 3 / 8), ("omega4", 3 / 8), ("omega-prime-loc", 1 / 2), ("u2", 1 / 2),
        ("so4-fermi", 1 / 2),
    ])
    def test_reaches_the_analytic_maximum(self, name, maximum):
        space = catalog.named_algebra(name)
        assert max_purity_estimate(space, seed=0) == pytest.approx(maximum, abs=1e-12)
        if space.max_purity is not None:
            assert space.max_purity == pytest.approx(maximum, abs=1e-15)

    def test_reaches_the_full_space_maximum(self):
        space = catalog.local_algebra(1, 3)
        assert max_purity_estimate(space, seed=0) == pytest.approx(2 / 3, abs=1e-12)

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            max_purity_estimate(catalog.z_conserving_u2(), restarts=0)


class TestHighestWeightPurity:
    @pytest.mark.parametrize("space", [
        catalog.omega1(), catalog.bilocal_pair_algebra(),
        catalog.local_algebra(2, 2), catalog.local_algebra(5, 2), catalog.local_algebra(10, 2),
        catalog.local_algebra(2, 3), catalog.local_algebra(4, 3), catalog.local_algebra(3, 4),
        catalog.local_algebra(2, 5),
        catalog.spin_algebra(0.5), catalog.spin_algebra(1.5), catalog.spin_algebra(5),
        catalog.spin_algebra(200),
        catalog.restricted_local_spins(0.5), catalog.restricted_local_spins(1),
        catalog.restricted_local_spins(2.5),
        # su(D) on one site, labelled as the complete traceless space on C^D
        *(catalog.local_algebra(1, d, label=f"full:{d}") for d in (2, 3, 7)),
    ], ids=lambda space: space.label)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_the_analytic_maximum(self, space, seed):
        assert space.irreducible_lie
        assert highest_weight_purity(space, seed) == pytest.approx(space.max_purity, abs=1e-12)

    @pytest.mark.parametrize("name", ["omega-prime-loc", "u2", "so4-fermi"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_lower_bound_on_any_space(self, name, seed):
        # these carry no irreducible_lie flag; the value is still the purity of a state
        value = highest_weight_purity(catalog.named_algebra(name), seed)
        assert 0.0 <= value <= 0.5 + 1e-12

    @pytest.mark.parametrize("name", ["omega3", "omega4", "omega2-paper-values"])
    def test_catalog_spaces_with_a_shared_top_eigenvalue(self, name):
        # omega2-paper-values acts as A x 1 on qubit 3, so every top eigenvalue is double
        assert highest_weight_purity(catalog.named_algebra(name), seed=0) is None

    @pytest.mark.parametrize("sites", [1, 2])
    def test_degenerate_top_eigenvalue_gives_no_value(self, sites):
        # every element c * diag(1, 1, -1, -1) / 2 has a doubly degenerate top eigenvalue;
        # the span is abelian on C^4, so it is decided reducible and gets the fixed point
        space = ObservableSpace([np.diag([1.0, 1.0, -1.0, -1.0]) / 2], sites=sites)
        assert not space.irreducible_lie
        assert highest_weight_purity(space, seed=0) is None
        value, source = numeric_max_reference(space, 0)
        assert source == "numerical"
        assert value == pytest.approx(0.25 if sites == 1 else 0.125, abs=1e-12)

    def test_negative_seed_refused(self):
        for estimate in (highest_weight_purity, max_purity_estimate):
            with pytest.raises(ValueError, match="non-negative"):
                estimate(catalog.omega1(), seed=-1)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        spaces = [catalog.z_conserving_u2(), catalog.omega_prime_loc(),
                  catalog.spin_algebra(1.5)]
        checked = 0
        for space in spaces:
            for _ in range(40):
                psi = random_pure_state(space.dim, rng).vector
                _, grad = raw_purity_and_gradient(space, psi)
                num = numeric_gradient(space, psi)
                rel = np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12)
                assert rel < 1e-6
                checked += 1
        assert checked >= 100

    def test_random_spans_too(self):
        rng = np.random.default_rng(78)
        for _ in range(5):
            g1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            g2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            space = ObservableSpace(orthonormalize([g1 + g1.conj().T, 1j * (g2 - g2.conj().T)]))
            psi = random_pure_state(4, rng).vector
            _, grad = raw_purity_and_gradient(space, psi)
            num = numeric_gradient(space, psi)
            assert np.linalg.norm(grad - num) / np.linalg.norm(num) < 1e-6
