import itertools
import random
import tracemalloc

import numpy as np
import pytest

from getk import catalog
from getk.coherent import max_purity_estimate, orbit_sample, scs
from getk.operators import (
    ROUNDOFF_ALLOWANCE,
    ObservableSpace,
    QuantumState,
    orthonormalize,
    partial_trace,
    pauli_string,
    spin_basis_state,
    spin_generators,
)
from getk.purity import (
    STABILIZER_WORD_CAP,
    highest_weight_state,
    numeric_max_reference,
    omega_purity,
    rescaled_purity,
    stabilizer_bracket,
)
from random_states import random_pure_state
from spin_oracle import ORACLE_SPINS, dense_spin_generators, eigh_scs


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


def highest_weight_purity(omega: ObservableSpace, seed: int = 0) -> float | None:
    """Raw purity of the seeded highest-weight state, or None when it has none."""
    state = highest_weight_state(omega, seed)
    return None if state is None else omega_purity(state, omega)


def unit_directions(seed: int, count: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [n / np.linalg.norm(n) for n in rng.normal(size=(count, 3))]


class TestSpinSystem:
    def test_half_spin_is_half_paulis(self):
        jx, jy, jz = spin_generators(0.5)
        assert np.allclose(jx, pauli_string("X") / 2)
        assert np.allclose(jy, pauli_string("Y") / 2)
        assert np.allclose(jz, pauli_string("Z") / 2)

    def test_spin_one_jz(self):
        assert np.allclose(spin_generators(1)[2], np.diag([1.0, 0.0, -1.0]))

    def test_spin_three_halves_spectrum(self):
        assert np.allclose(np.diag(spin_generators(1.5)[2]), [1.5, 0.5, -0.5, -1.5])

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 3])
    def test_ladder_relations(self, j):
        jx, jy, _ = spin_generators(j)
        jplus = jx + 1j * jy
        for k, m in enumerate(j - np.arange(len(jx))):
            v = np.zeros(len(jx))
            v[k] = 1.0
            out = jplus @ v
            want = np.sqrt(j * (j + 1) - m * (m + 1)) if m < j else 0.0
            if m < j:
                assert out[k - 1] == pytest.approx(want, abs=1e-12)
            else:
                assert np.max(np.abs(out)) < 1e-12

    @pytest.mark.parametrize("j", [0.5, 1, 2.5])
    def test_standard_commutator(self, j):
        jx, jy, jz = spin_generators(j)
        assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-12

    def test_casimir(self):
        casimir = sum(g @ g for g in spin_generators(2))
        assert np.allclose(casimir, 2 * 3 * np.eye(5))

    @pytest.mark.parametrize("j", ORACLE_SPINS)
    def test_bit_equal_to_the_dense_oracle(self, j):
        got, want = spin_generators(j), dense_spin_generators(j)
        assert [(g.dtype, g.shape, g.tobytes()) for g in got] == \
            [(g.dtype, g.shape, g.tobytes()) for g in want]

    def test_spin_zero_is_three_zero_scalars(self):
        assert [(g.shape, g[0, 0]) for g in spin_generators(0)] == [((1, 1), 0)] * 3

    def test_invalid_spin(self):
        # off the half-integer grid, negative, nan, and past MAX_DIM: refused by both builders
        for j, message in [(0.3, "nonnegative half-integer, got 0.3"),
                           (-1, "nonnegative half-integer, got -1"),
                           (float("nan"), "nonnegative half-integer, got nan"),
                           (512, "spin 512 has dimension 1025, above the supported 1024")]:
            for build in (spin_generators, lambda j: scs(j, [0, 0, 1])):
                with pytest.raises(ValueError, match=message):
                    build(j)


class TestSpinBasisState:
    @pytest.mark.parametrize("j", [0, 0.5, 1, 1.5, 3, 7.5])
    def test_is_the_jz_eigenstate(self, j):
        jz = spin_generators(j)[2]
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
        monkeypatch.setattr("getk.operators.spin_generators", None)
        assert spin_basis_state(511.5, 511.5).dim == 1024


class TestSCS:
    def test_north_pole(self):
        for j in ORACLE_SPINS[:-1]:
            north = spin_basis_state(j, j).vector
            assert np.max(np.abs(scs(j, [0, 0, 1]).vector - north)) <= 1e-15

    def test_south_pole(self):
        for j in ORACLE_SPINS[:-1]:
            south = spin_basis_state(j, -j).vector
            assert np.max(np.abs(scs(j, [0, 0, -1]).vector - south)) <= 1e-15

    def test_x_direction_qubit(self):
        st = scs(0.5, [1, 0, 0])
        assert np.allclose(st.vector, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)

    def test_requires_unit_direction(self):
        with pytest.raises(ValueError):
            scs(1, [0, 0, 2])

    @pytest.mark.parametrize("j", ORACLE_SPINS)
    def test_equals_the_eigh_oracle(self, j):
        # +-z, +x and seeded directions; the rest of the equator, where two amplitudes tie
        # in magnitude, is test_equator_ties_go_to_the_first_amplitude
        directions = [[0, 0, 1], [0, 0, -1], [1, 0, 0]] + unit_directions(int(2 * j), 6)
        for n in directions:
            assert np.max(np.abs(scs(j, n).vector - eigh_scs(j, n).vector)) <= 1e-12

    @pytest.mark.parametrize("j", [k / 2 for k in range(1, 28)])
    def test_equator_ties_go_to_the_first_amplitude(self, j):
        # on the equator amplitudes k and 2J - k have equal magnitude: the first of them is
        # made real and positive, whichever of the two roundoff leaves larger
        for phi in np.arange(12) * np.pi / 6:
            n = [np.cos(phi), np.sin(phi), 0.0]
            v = scs(j, n).vector
            first = int(np.argmax(np.abs(v) >= np.abs(v).max() * (1 - 1e-12)))
            assert v[first].real > 0 and abs(v[first].imag) <= 1e-15
            assert np.max(np.abs(v - eigh_scs(j, n).vector)) <= 1e-12

    def test_eigenvalue_residual_randomized(self):
        count = 0
        for j in (0.5, 1, 1.5, 2, 3, 5):
            jx, jy, jz = dense_spin_generators(j)
            for n in unit_directions(2 + count, 20):
                st = scs(j, n)
                ndotj = n[0] * jx + n[1] * jy + n[2] * jz
                assert np.linalg.norm(ndotj @ st.vector - j * st.vector) < 1e-9
                assert np.vdot(st.vector, ndotj @ st.vector).real == pytest.approx(j, abs=1e-12)
                count += 1
        assert count >= 100

    def test_phase_deterministic(self):
        a = scs(1.5, [0.6, 0.0, 0.8]).vector
        b = scs(1.5, [0.6, 0.0, 0.8]).vector
        assert np.array_equal(a, b)
        k = int(np.argmax(np.abs(a)))
        assert a[k].imag == pytest.approx(0.0, abs=1e-14) and a[k].real > 0

    def test_largest_spin_builds_no_matrix(self):
        # 1024 amplitudes: a single 1024 x 1024 complex array would take 16 MiB
        tracemalloc.start()
        try:
            st = scs(511.5, unit_directions(511, 1)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.dim == 1024 and peak < 2 ** 20


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
        est = max_purity_estimate(space, seed=0)
        assert est == pytest.approx(1 - 1 / 3, abs=1e-6)

    def test_u2_against_sampling_oracle(self):
        space = catalog.z_conserving_u2()
        est = max_purity_estimate(space, seed=0)
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
        est = max_purity_estimate(space, seed=0)
        assert est / space.max_purity == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_for_fixed_seed(self):
        space = catalog.z_conserving_u2()
        a = max_purity_estimate(space, seed=7)
        b = max_purity_estimate(space, seed=7)
        assert a == b

    def test_bound_respected(self):
        space = catalog.omega_prime_loc()
        est = max_purity_estimate(space, seed=1)
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
        value, source = numeric_max_reference(space)
        assert source == "numerical"
        assert value == pytest.approx(0.25 if sites == 1 else 0.125, abs=1e-12)

    @pytest.mark.parametrize("space", [
        *map(catalog.named_algebra, ["omega1", "omega2-literal", "local:3x2", "local:10x2",
                                     "local:2x5", "su2-spin:1/2", "su2-spin:5", "su2-spin:200"]),
        catalog.restricted_local_spins(1), catalog.restricted_local_spins(2.5),
    ], ids=lambda space: space.label)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_reference_is_omega_purity_of_the_state(self, space, seed):
        # one measurement of the raw purity: the reference is omega_purity's value of the
        # seed-0 state, bit for bit; another seed's regular element reaches the same highest
        # weight, so its state's purity agrees to roundoff
        assert space.irreducible_lie
        value, source = numeric_max_reference(space)
        assert source == "highest-weight"
        purity = omega_purity(highest_weight_state(space, seed), space)
        if seed == 0:
            assert purity == value
        else:
            assert purity == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_negative_seed_refused(self):
        for estimate in (highest_weight_purity, max_purity_estimate):
            with pytest.raises(ValueError, match="non-negative"):
                estimate(catalog.omega1(), seed=-1)


def seeded_words(seed: int, length: int, count: int) -> list[str]:
    """``count`` distinct words of ``length`` letters other than the identity, drawn in order
    by ``random.Random(seed)``."""
    rng, words = random.Random(seed), []
    while len(words) < count:
        word = "".join(rng.choice("IXYZ") for _ in range(length))
        if word != "I" * length and word not in words:
            words.append(word)
    return words


def brute_force_bracket(words) -> tuple[int, int]:
    """The largest pairwise-commuting subset's size and the fewest pairwise-anticommuting sets
    covering the words, over every subset, with commutation read from dense products."""
    mats = [pauli_string(w) for w in words]
    n = len(words)
    anti = [[not np.any(a @ b + b @ a) for b in mats] for a in mats]

    def pairwise(subset, relation):
        members = [a for a in range(n) if subset >> a & 1]
        return all(relation(anti[a][b]) for a in members for b in members if a < b)

    alpha = max(bin(s).count("1") for s in range(1 << n) if pairwise(s, lambda x: not x))
    anticommuting = {s for s in range(1, 1 << n) if pairwise(s, bool)}
    cover = [0] * (1 << n)
    for subset in range(1, 1 << n):
        low, rest, best = subset & -subset, subset ^ (subset & -subset), n
        part = rest
        while True:  # every part of the subset that holds its lowest word
            if part | low in anticommuting:
                best = min(best, cover[subset ^ (part | low)] + 1)
            if not part:
                break
            part = (part - 1) & rest
        cover[subset] = best
    return alpha, cover[-1]


def joint_eigenvector(words, members) -> np.ndarray:
    """The top eigenvector of a seeded generic sum of the commuting words ``members``: a joint
    eigenvector of all of them (their sign patterns give the sum distinct eigenvalues)."""
    rng = np.random.default_rng(len(words))
    h = sum(c * pauli_string(words[a]) for c, a in zip(rng.normal(size=len(members)), members))
    return np.linalg.eigh(h)[1][:, -1]


def check_certificates(words, commuting, split):
    """The commuting set commutes pairwise; the split, if any, has as many sets, each of them
    pairwise anticommuting, and holds every word once."""
    mats = [pauli_string(w) for w in words]
    for a, b in itertools.combinations(commuting, 2):
        assert np.array_equal(mats[a] @ mats[b], mats[b] @ mats[a]), (words, a, b)
    if split is not None:
        assert len(split) == len(commuting)
        assert sorted(a for part in split for a in part) == list(range(len(words)))
        for part in split:
            for a, b in itertools.combinations(part, 2):
                assert not np.any(mats[a] @ mats[b] + mats[b] @ mats[a]), (words, a, b)


FIVE_CYCLE = ["IX", "IY", "XX", "YI", "ZY"]  # they commute along a 5-cycle: no 2-colouring


class TestStabilizerBracket:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_brute_force_bracket(self, seed):
        rng = random.Random(seed)
        length = rng.randint(1, 4)
        words = seeded_words(seed, length, rng.randint(1, min(10, 4 ** length - 1)))
        commuting, split = stabilizer_bracket(ObservableSpace(words))
        check_certificates(words, commuting, split)
        alpha, cover = brute_force_bracket(words)
        assert (len(commuting), split is not None) == (alpha, cover == alpha), words

    def test_brute_force_sees_both_answers(self):
        brackets = [brute_force_bracket(seeded_words(seed, 3, 8)) for seed in range(20)]
        assert any(a == c for a, c in brackets) and any(a < c for a, c in brackets)

    def test_five_cycle_stays_open(self):
        # alpha = 2 and the cover is 3, so the fixed point keeps the reference
        space = ObservableSpace(FIVE_CYCLE)
        commuting, split = stabilizer_bracket(space)
        check_certificates(FIVE_CYCLE, commuting, split)
        assert (len(commuting), split) == (2, None)
        assert brute_force_bracket(FIVE_CYCLE) == (2, 3)
        value, source = numeric_max_reference(space)
        assert source == "numerical" and 2 / 4 - 1e-12 <= value <= 3 / 4 + 1e-12

    @pytest.mark.parametrize("name, value", [
        ("omega3", 3 / 8), ("omega-prime-loc", 1 / 2), ("so4-fermi", 1 / 2)])
    def test_catalog_references_are_exact(self, name, value):
        assert numeric_max_reference(catalog.named_algebra(name)) == (value, "stabilizer")

    @pytest.mark.parametrize("name", ["omega2-paper-values", "omega4"])
    def test_catalog_spaces_left_to_the_fixed_point(self, name):
        # su(4) on two of three qubits: alpha = 3 but no split into 3 anticommuting sets;
        # omega4 has 27 words, above the cap.  Both carry their maximum, which the fixed
        # point would only approach, so that is the reference
        space = catalog.named_algebra(name)
        assert numeric_max_reference(space) == (3 / 8, "analytic") == (space.max_purity,
                                                                      "analytic")
        if space.size <= STABILIZER_WORD_CAP:
            assert stabilizer_bracket(space)[1] is None

    @pytest.mark.parametrize("seed", range(12))
    def test_the_joint_eigenvector_attains_alpha(self, seed):
        # every commuting word has <P> = +-1 on it, so its raw purity is at least alpha / 2^L,
        # and exactly that where the split bounds every state
        rng = random.Random(seed)
        length = rng.randint(2, 6)
        words = seeded_words(seed, length, rng.randint(1, min(STABILIZER_WORD_CAP,
                                                                4 ** length - 1)))
        space = ObservableSpace(words)
        commuting, split = stabilizer_bracket(space)
        check_certificates(words, commuting, split)
        psi = QuantumState(vector=joint_eigenvector(words, commuting))
        signs = [np.vdot(psi.vector, pauli_string(words[a]) @ psi.vector).real
                 for a in commuting]
        assert np.allclose(np.abs(signs), 1, atol=1e-12, rtol=0)
        raw, alpha = omega_purity(psi, space), len(commuting) / space.dim
        assert raw >= alpha - 1e-12
        if split is not None:
            assert abs(raw - alpha) <= 1e-12

    @pytest.mark.parametrize("seed", range(16))
    def test_the_fixed_point_is_bracketed(self, seed):
        # the fixed point, the oracle here, reaches alpha / 2^L at least, and no higher where
        # the bracket closes
        rng = random.Random(100 + seed)
        length = rng.randint(2, 6)
        words = seeded_words(100 + seed, length, rng.randint(2, min(STABILIZER_WORD_CAP,
                                                                    4 ** length - 1)))
        space = ObservableSpace(words)
        commuting, split = stabilizer_bracket(space)
        estimate, alpha = max_purity_estimate(space, seed=0), len(commuting) / space.dim
        assert estimate >= alpha - 1e-12, words
        if split is not None:
            assert abs(estimate - alpha) <= 1e-12, words

    @pytest.mark.parametrize("seed", [127, 960, 1499, 1439])  # L = 2, 3, 3, 4; alpha = 2, 3, 2, 4
    def test_an_open_bracket_holds_the_fixed_point(self, seed):
        # where no split exists, the fixed point lies between the largest commuting set and the
        # fewest anticommuting sets covering the words (the commutation graph's chromatic
        # number), both found by brute force: alpha / 2^L <= estimate <= chi / 2^L
        rng = random.Random(seed)
        length = rng.randint(2, 4)
        words = seeded_words(seed, length, rng.randint(4, 10))
        space = ObservableSpace(words)
        assert stabilizer_bracket(space)[1] is None, words
        alpha, chi = brute_force_bracket(words)
        estimate = max_purity_estimate(space, seed=0)
        assert alpha < chi and alpha / 2 ** length - 1e-12 <= estimate, words
        assert estimate <= chi / 2 ** length + ROUNDOFF_ALLOWANCE, words

    def test_the_cap_is_checked_before_any_search(self, monkeypatch):
        monkeypatch.setattr("getk.purity.anticommutation_rows", None)  # no search may start
        words = seeded_words(0, 3, STABILIZER_WORD_CAP + 1)
        for space in (ObservableSpace(words), catalog.z_conserving_u2()):
            with pytest.raises(ValueError, match="at most 24 words"):
                stabilizer_bracket(space)

    def test_the_cap_sends_larger_spaces_to_the_fixed_point(self, monkeypatch):
        # the first 24 of these words close their bracket; all 25 are over the cap, so the
        # fixed point runs and no search starts
        words = seeded_words(0, 3, STABILIZER_WORD_CAP + 1)
        assert numeric_max_reference(ObservableSpace(words[:-1]))[1] == "stabilizer"
        monkeypatch.setattr("getk.purity.stabilizer_bracket", None)
        assert numeric_max_reference(ObservableSpace(words))[1] == "numerical"


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
