"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; any assertion failure marks the criterion FAIL via pytest itself.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from getk import boxes, catalog, cli, coherent, fermion, reproduce, states
from getk.operators import ObservableSpace, QuantumState
from getk.purity import (
    invariant_uncertainty,
    meyer_wallach_q,
    omega_purity,
    rescaled_purity,
)
from random_states import local_purity_formula, random_pure_state

RNG_SEED = 20240817


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


def _announce(number, name):
    print(f"ACCEPTANCE {number} {name}: PASS")


def _product3(rng):
    v = np.kron(np.kron(random_pure_state(2, rng).vector,
                        random_pure_state(2, rng).vector),
                random_pure_state(2, rng).vector)
    return QuantumState(vector=v)


def test_criterion_1_three_qubit_p1_goldens():
    rng = np.random.default_rng(RNG_SEED)
    start = time.perf_counter()
    omega1 = catalog.omega1()
    golden = {
        "product": (_product3(rng), 1.0),
        "bisep": (states.builtin_state("bisep:12"), 1 / 3),
        "w": (states.builtin_state("w:3"), 1 / 9),
        "ghz": (states.builtin_state("ghz:3"), 0.0),
    }
    for _, (state, expected) in golden.items():
        got = rescaled_purity(state, omega1).rescaled
        assert abs(got - expected) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"P1 goldens took {elapsed:.3f}s"
    _announce(1, "three-qubit-p1-goldens")


def test_criterion_2_p2_reconciliation(capsys):
    rng = np.random.default_rng(RNG_SEED + 1)
    paper_reading = catalog.first_pair_algebra()
    expected = {"product": 1.0, "bisep:12": 1.0, "bisep:13": 1 / 3,
                "bisep:23": 1 / 3, "ghz:3": 1 / 3, "w:3": 11 / 27}
    for name, want in expected.items():
        st = _product3(rng) if name == "product" else states.builtin_state(name)
        got = rescaled_purity(st, paper_reading).rescaled
        assert abs(got - want) <= 1e-10, f"{name}: {got} vs {want}"

    # the literal 18-element reading: computed, recorded, and documented
    literal = catalog.bilocal_pair_algebra()
    recorded = {"product": 1.0, "bisep:12": 1.0, "bisep:13": 1 / 4,
                "bisep:23": 1 / 4, "ghz:3": 1 / 4, "w:3": 1 / 3}
    for name, want in recorded.items():
        st = _product3(rng) if name == "product" else states.builtin_state(name)
        got = rescaled_purity(st, literal).rescaled
        assert abs(got - want) <= 1e-10, f"literal {name}: {got} vs {want}"

    report = reproduce.omega2_discrepancy_report()
    assert "omega2-literal" in report and "omega2-paper-values" in report
    with capsys.disabled():
        print()
        print(report)
    _announce(2, "p2-reconciliation-and-discrepancy-report")


def test_criterion_3_bridge_identity():
    rng = np.random.default_rng(RNG_SEED + 2)
    count = 0
    for n in (2, 3, 4):
        space = catalog.local_algebra(n, 2)
        for _ in range(67):
            st = random_pure_state(2 ** n, rng)
            via_algebra = rescaled_purity(st, space).rescaled
            via_formula = local_purity_formula(st, n, 2)
            via_mw = 1.0 - meyer_wallach_q(st)
            assert abs(via_algebra - via_formula) <= 1e-9
            assert abs(via_algebra - via_mw) <= 1e-9
            count += 1
    assert count >= 200
    _announce(3, f"bridge-identity ({count} random states)")


def test_criterion_4_fermionic_suite():
    c = fermion.annihilators(2)
    cdag = [x.conj().T for x in c]
    eye = np.eye(4)
    for i in range(2):
        for j in range(2):
            assert np.max(np.abs(c[i] @ c[j] + c[j] @ c[i])) == 0.0
            assert np.max(np.abs(cdag[i] @ cdag[j] + cdag[j] @ cdag[i])) == 0.0
            want = eye if i == j else 0.0
            assert np.max(np.abs(cdag[i] @ c[j] + c[j] @ cdag[i] - want)) == 0.0

    fu2 = fermion.fermionic_u2()
    maximal = ["fock:m2:00", "fock:m2:01", "fock:m2:10", "fock:m2:11",
               "bell:phi+", "bell:phi-"]
    for name in maximal:
        got = rescaled_purity(states.builtin_state(name), fu2).rescaled
        assert abs(got - 1.0) <= 1e-9, f"{name}: {got}"
    for name in ("bell:psi+", "bell:psi-"):
        assert omega_purity(states.builtin_state(name), fu2) == 0.0

    nhat = fermion.number_operator(2)
    for x in fu2.basis:
        assert np.max(np.abs(x @ nhat - nhat @ x)) == 0.0
    _announce(4, "fermionic-suite")


def test_criterion_5_spin_suite():
    rng = np.random.default_rng(RNG_SEED + 3)
    for j in (1, 1.5, 2, 5):
        generators = coherent.spin_generators(j)
        space = catalog.spin_algebra(j)
        for m in (j, -j):
            got = rescaled_purity(coherent.spin_basis_state(j, m), space).rescaled
            assert abs(got - 1.0) <= 1e-10
        center_m = 0 if float(j).is_integer() else 0.5
        center = coherent.spin_basis_state(j, center_m)
        # the reference formula: sum of squared generator expectations over J^2
        from getk.operators import expectation
        formula = sum(expectation(center, g) ** 2 for g in generators) / j ** 2
        got = rescaled_purity(center, space).rescaled
        assert abs(got - formula) <= 1e-10
        if float(j).is_integer():
            assert abs(got) <= 1e-10
        for _ in range(100):
            st = random_pure_state(len(generators[2]), rng)
            lhs = invariant_uncertainty(st, generators)
            rhs = j * (j + 1) - j ** 2 * rescaled_purity(st, space).rescaled
            assert abs(lhs - rhs) <= 1e-9
    _announce(5, "spin-J-suite (J in {1, 3/2, 2, 5})")


def test_criterion_6_pr_box_polytope():
    start = time.perf_counter()
    verts = boxes.enumerate_vertices(2, 2, 2, 2)
    assert len(verts) == 24
    assert all(boxes.is_extremal(v) for v in verts)
    classes = [boxes.vertex_class(v) for v in verts]
    assert sum(1 for c in classes if c is boxes.VertexClass.PRODUCT) == 16
    assert sum(1 for c in classes if c is boxes.VertexClass.ENTANGLED) == 8

    table = {v.probs for v in verts}
    ent = boxes.canonical_entangled_vertex()
    prod = boxes.canonical_product_vertex()
    assert ent.probs in table and prod.probs in table

    half = Fraction(1, 2)
    a, b = boxes.marginals(ent)
    assert a.probs == (half,) * 4 and b.probs == (half,) * 4

    assert len(boxes.relabeling_orbit(ent)) == 8
    assert len(boxes.relabeling_orbit(prod)) == 16
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"box suite took {elapsed:.3f}s"
    _announce(6, f"pr-box-polytope ({elapsed:.2f}s)")


def test_criterion_7_property_suites():
    rng = np.random.default_rng(RNG_SEED + 4)

    # basis independence of the purity under orthogonal basis changes
    space = catalog.z_conserving_u2()
    for _ in range(100):
        q, r = np.linalg.qr(rng.normal(size=(space.size, space.size)))
        rot = q * np.sign(np.diag(r))
        rotated = ObservableSpace(list(np.einsum("ab,bij->aij", rot, np.stack(space.basis))))
        st = random_pure_state(4, rng)
        assert abs(omega_purity(st, rotated) - omega_purity(st, space)) <= 1e-10

    # invariance under the group generated by a bracket-closed space
    closed = [catalog.z_conserving_u2(), catalog.local_algebra(2, 2),
              catalog.spin_algebra(1.5)]
    checked = 0
    while checked < 100:
        for sp in closed:
            st = random_pure_state(sp.dim, rng)
            moved = coherent.orbit_sample(sp, st, rng.normal(scale=0.6, size=sp.size))
            assert abs(omega_purity(moved, sp) - omega_purity(st, sp)) <= 1e-9
            checked += 1

    # monotonicity under subspace inclusion
    chains = [(catalog.omega1(), catalog.bilocal_pair_algebra(), 8),
              (catalog.z_conserving_u2(), catalog.local_algebra(1, 4), 4)]
    for _ in range(50):
        for small, big, dim in chains:
            st = random_pure_state(dim, rng)
            assert omega_purity(st, small) <= omega_purity(st, big) + 1e-10

    # optimizer gradient against central finite differences
    grad_spaces = [catalog.z_conserving_u2(), catalog.omega_prime_loc()]
    step = 1e-5
    for idx in range(100):
        sp = grad_spaces[idx % 2]
        psi = random_pure_state(sp.dim, rng).vector
        _, grad = raw_purity_and_gradient(sp, psi)
        x0 = np.concatenate([psi.real, psi.imag])
        num = np.zeros_like(x0)
        for i in range(x0.size):
            for sgn in (1, -1):
                x = x0.copy()
                x[i] += sgn * step
                v = x[:sp.dim] + 1j * x[sp.dim:]
                vals = np.einsum("i,aij,j->a", v.conj(), np.stack(sp.basis), v).real
                num[i] += sgn * float(np.dot(vals, vals))
            num[i] /= 2 * step
        num_c = num[:sp.dim] + 1j * num[sp.dim:]
        assert np.linalg.norm(grad - num_c) / np.linalg.norm(num_c) <= 1e-6

    # coherent-state eigenvalue residuals
    for idx in range(100):
        j = (0.5, 1, 1.5, 2, 3)[idx % 5]
        jx, jy, jz = coherent.spin_generators(j)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        st = coherent.scs(j, n)
        op = n[0] * jx + n[1] * jy + n[2] * jz
        assert np.linalg.norm(op @ st.vector - j * st.vector) < 1e-9

    _announce(7, "property-suites (>=100 instances each)")


def test_criterion_8_reproduce_command(capsys):
    code = cli.main(["reproduce", "--table", "paper"])
    out = capsys.readouterr().out
    assert code == 0, "golden suite reported failures:\n" + out
    assert out.count("PASS") >= 30 and "FAIL" not in out
    _announce(8, "cmd-reproduce-table-paper")
