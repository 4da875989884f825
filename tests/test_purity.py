import copy
import pickle
import re

import numpy as np
import pytest

from getk import catalog, coherent, operators, states
from getk.operators import (
    DimensionMismatch,
    ObservableSpace,
    QuantumState,
    partial_trace,
    pauli_string,
)
from getk.purity import (
    expectations_indistinguishable,
    invariant_uncertainty,
    meyer_wallach_q,
    omega_purity,
    rescaled_purity,
    resolve_max_reference,
)
from random_states import (
    local_purity_formula,
    maximally_mixed,
    random_density_state,
    random_pure_state,
)
from test_coherent import FIVE_CYCLE

SX, SY, SZ, ID = map(pauli_string, "XYZI")


def project_onto(state, omega: ObservableSpace) -> np.ndarray:
    """Projection sum_a <X_a> X_a of a state (or Hermitian operator) onto omega."""
    if isinstance(state, QuantumState):
        state = state.density()
    return omega.project_operator(state)  # checks Hermiticity


def product_state(rng=None):
    if rng is None:
        a = np.array([np.cos(0.4), np.sin(0.4) * np.exp(0.7j)])
        b = np.array([np.cos(1.0), np.sin(1.0)])
        c = np.array([np.cos(0.2), np.sin(0.2) * np.exp(-0.3j)])
    else:
        a, b, c = (random_pure_state(2, rng).vector for _ in range(3))
    v = np.kron(np.kron(a, b), c)
    return QuantumState(vector=v / np.linalg.norm(v))


class TestProjection:
    def test_maximally_mixed_projects_to_zero(self):
        st = maximally_mixed(4)
        out = project_onto(st, catalog.local_algebra(2, 2))
        assert np.max(np.abs(out)) < 1e-14

    def test_single_coefficient(self):
        space = ObservableSpace([SZ / np.sqrt(2)])
        out = project_onto(QuantumState.basis_state(2, 0), space)
        assert np.max(np.abs(out - SZ / 2)) < 1e-14

    def test_idempotent_on_operator_input(self):
        rng = np.random.default_rng(3)
        space = catalog.z_conserving_u2()
        for _ in range(5):
            rho = random_density_state(4, rng)
            once = project_onto(rho, space)
            twice = project_onto(once, space)
            assert np.max(np.abs(once - twice)) < 1e-12


class TestOmegaPurity:
    def test_number_superpositions_have_zero_u2_purity(self):
        u2 = catalog.z_conserving_u2()
        assert omega_purity(states.builtin_state("bell:psi+"), u2) == pytest.approx(0.0, abs=1e-14)
        assert omega_purity(states.builtin_state("bell:psi-"), u2) == pytest.approx(0.0, abs=1e-14)

    def test_vacuum_image_is_maximal(self):
        u2 = catalog.z_conserving_u2()
        on_vac = omega_purity(QuantumState.basis_state(4, 0), u2)
        on_phi = omega_purity(states.builtin_state("bell:phi+"), u2)
        assert on_vac == pytest.approx(on_phi, abs=1e-12)
        assert on_vac == pytest.approx(0.5, abs=1e-12)

    def test_full_traceless_space_gives_state_purity(self):
        rng = np.random.default_rng(8)
        space = catalog.local_algebra(1, 4)
        for _ in range(5):
            st = random_pure_state(4, rng)
            assert omega_purity(st, space) == pytest.approx(1 - 1 / 4, abs=1e-10)

    def test_mixed_states_accepted(self):
        rng = np.random.default_rng(9)
        rho = random_density_state(4, rng)
        val = omega_purity(rho, catalog.z_conserving_u2())
        assert 0.0 <= val <= rho.purity() + 1e-10


class TestRescaledPurity:
    def test_three_qubit_golden_ladder(self):
        omega1 = catalog.omega1()
        assert rescaled_purity(product_state(), omega1).rescaled == pytest.approx(1.0, abs=1e-10)
        for pair in ("12", "13", "23"):
            got = rescaled_purity(states.builtin_state(f"bisep:{pair}"), omega1).rescaled
            assert got == pytest.approx(1 / 3, abs=1e-10)
        assert rescaled_purity(states.builtin_state("w:3"), omega1).rescaled == pytest.approx(
            1 / 9, abs=1e-10)
        assert rescaled_purity(states.builtin_state("ghz:3"), omega1).rescaled == pytest.approx(
            0.0, abs=1e-10)

    def test_pair_reading_golden_values(self):
        space = catalog.first_pair_algebra()
        expected = {"bisep:12": 1.0, "bisep:13": 1 / 3, "bisep:23": 1 / 3,
                    "ghz:3": 1 / 3, "w:3": 11 / 27}
        assert rescaled_purity(product_state(), space).rescaled == pytest.approx(1.0, abs=1e-10)
        for name, val in expected.items():
            got = rescaled_purity(states.builtin_state(name), space).rescaled
            assert got == pytest.approx(val, abs=1e-10)

    def test_pair_reading_matches_subsystem_oracle(self):
        # oracle: (4/3)(Tr rho_12^2 - 1/4) via an independent partial-trace route
        rng = np.random.default_rng(21)
        space = catalog.first_pair_algebra()
        for _ in range(20):
            st = random_pure_state(8, rng)
            pair_purity = partial_trace(st, [2, 2, 2], [0, 1]).purity()
            want = (4 / 3) * (pair_purity - 1 / 4)
            assert rescaled_purity(st, space).rescaled == pytest.approx(want, abs=1e-10)

    def test_literal_reading_recorded_values(self):
        # frozen from the exact decomposition raw = (Tr r12^2 - 1/4)/2 + (Tr r3^2 - 1/2)/4
        space = catalog.bilocal_pair_algebra()
        expected = {"bisep:12": 1.0, "bisep:13": 1 / 4, "bisep:23": 1 / 4,
                    "ghz:3": 1 / 4, "w:3": 1 / 3}
        assert rescaled_purity(product_state(), space).rescaled == pytest.approx(1.0, abs=1e-10)
        for name, val in expected.items():
            got = rescaled_purity(states.builtin_state(name), space).rescaled
            assert got == pytest.approx(val, abs=1e-10)

    def test_report_is_immutable_and_compared_by_value(self):
        # as a frozen dataclass would be, without the dataclass machinery
        state, omega = states.builtin_state("ghz:3"), catalog.omega1()
        report, twin = rescaled_purity(state, omega), rescaled_purity(state, omega)
        assert report == twin and hash(report) == hash(twin) and report is not twin
        assert report != rescaled_purity(state, omega, max_reference=0.5)
        assert repr(report).startswith("PurityReport(raw=")
        for name in ("raw", "rescaled", "max_reference", "space", "reference_source", "pure"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(report, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(report, name)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda r: pickle.loads(pickle.dumps(r))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_report_copies_are_equal_and_frozen(self, clone):
        # a copy shares the space, so it equals the report; a deep copy or a pickle holds a
        # new space, which compares by identity, and equals the report on every other field
        report = rescaled_purity(states.builtin_state("w:3"), catalog.omega1())
        twin = clone(report)
        assert type(twin) is type(report)
        if clone is copy.copy:
            assert twin == report and twin.space is report.space
        else:
            assert twin != report and twin.space is not report.space
            assert (twin.space.label, twin.space.dim, twin.space.size) == (
                report.space.label, report.space.dim, report.space.size)
        for name in ("raw", "rescaled", "max_reference", "reference_source", "pure"):
            assert getattr(twin, name) == getattr(report, name)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(twin, name, None)
        assert twin.unentangled(1e-8) == report.unentangled(1e-8)

    def test_explicit_reference(self):
        rep = rescaled_purity(states.builtin_state("ghz:3"), catalog.omega1(), max_reference=0.375)
        assert rep.max_reference == 0.375

    def test_bad_reference(self):
        with pytest.raises(ValueError):
            rescaled_purity(states.builtin_state("ghz:3"), catalog.omega1(), max_reference=-1.0)

    @pytest.mark.parametrize("ref", [float("nan"), float("inf"), 0.0, -1.0])
    def test_reference_must_be_positive_and_finite(self, ref):
        with pytest.raises(ValueError, match="positive finite"):
            rescaled_purity(states.builtin_state("ghz:3"), catalog.omega1(), max_reference=ref)


class TestResolveMaxReference:
    def test_default_prefers_the_analytic_maximum(self):
        assert resolve_max_reference(catalog.omega1()) == (0.375, "analytic")
        assert resolve_max_reference(catalog.omega1(), "analytic") == (0.375, "analytic")

    def test_auto_and_default_without_analytic_are_numerical(self):
        cycle = ObservableSpace(FIVE_CYCLE)  # its stabilizer bracket stays open: the fixed point
        assert resolve_max_reference(cycle) == resolve_max_reference(cycle, "auto")
        assert resolve_max_reference(cycle)[1] == "numerical"
        omega4 = catalog.omega4()  # not closed under the bracket, 27 words: its carried 3/8
        assert resolve_max_reference(omega4) == resolve_max_reference(omega4, "auto")
        assert resolve_max_reference(omega4) == (0.375, "analytic")
        omega3 = catalog.omega3()  # 18 words whose stabilizer bracket closes at 3 / 8
        assert resolve_max_reference(omega3) == resolve_max_reference(omega3, "auto")
        assert resolve_max_reference(omega3) == (0.375, "stabilizer")
        value, source = resolve_max_reference(catalog.omega1(), "auto")
        assert source == "highest-weight" and value == pytest.approx(0.375, abs=1e-12)

    def test_analytic_unavailable(self):
        with pytest.raises(ValueError, match="no analytic reference"):
            resolve_max_reference(catalog.omega3(), "analytic")

    @pytest.mark.parametrize("ref", ["junk", "", "nan", "-1", "0"])
    def test_other_text_rejected(self, ref):
        # quoted as given: the text is read by float() here, nowhere before
        with pytest.raises(ValueError, match=re.escape(f"positive finite number, got {ref!r}")):
            resolve_max_reference(catalog.omega1(), ref)

    @pytest.mark.parametrize("ref", [10**400, -10**400])
    def test_int_past_float_range_rejected(self, ref):
        # float() overflows on these: the same ValueError as any other bad reference
        with pytest.raises(ValueError, match="positive finite number, got "):
            resolve_max_reference(catalog.omega1(), ref)

    @pytest.mark.parametrize("ref", ["0.5", "5e-1", " +.5"])
    def test_number_text_is_read(self, ref):
        assert resolve_max_reference(catalog.omega1(), ref) == (0.5, "explicit")

    def test_numerical_reference_computed_once_per_space(self, monkeypatch):
        calls = []
        real = coherent.max_purity_estimate

        def counted(omega, **kwargs):
            calls.append(kwargs)
            return real(omega, **kwargs)

        monkeypatch.setattr(coherent, "max_purity_estimate", counted)
        space = ObservableSpace(FIVE_CYCLE)  # its stabilizer bracket stays open
        values = {resolve_max_reference(space, "auto") for _ in range(3)}
        assert calls == [{}] and len(values) == 1

    def test_numerical_reference_memo_hits_for_a_space_with_identity(self, monkeypatch, tmp_path):
        # the space is not traceless, so each call goes through its traceless sector
        calls = []
        real = coherent.max_purity_estimate

        def counted(omega, **kwargs):
            calls.append(omega)
            return real(omega, **kwargs)

        monkeypatch.setattr(coherent, "max_purity_estimate", counted)
        path = tmp_path / "words.txt"
        path.write_text("II\n" + "".join(f"{w}\n" for w in FIVE_CYCLE))
        space = catalog.named_algebra(f"custom:{path}")
        assert not space.traceless
        state = states.builtin_state("bell:phi+")
        reports = [rescaled_purity(state, space, "auto") for _ in range(3)]
        assert len(calls) == 1
        assert len(set(reports)) == 1


class TestLocalPurityFormula:
    def test_product(self):
        assert local_purity_formula(product_state(), 3, 2) == pytest.approx(1.0, abs=1e-12)

    def test_bell_pair(self):
        st = states.builtin_state("bell:psi+")
        assert local_purity_formula(st, 2, 2) == pytest.approx(0.0, abs=1e-12)

    def test_w_state_oracle(self):
        # every single-qubit reduction of W has eigenvalues 1/3, 2/3
        st = states.builtin_state("w:3")
        for q in range(3):
            evals = np.linalg.eigvalsh(partial_trace(st, [2, 2, 2], [q]).density())
            assert np.allclose(sorted(evals), [1 / 3, 2 / 3], atol=1e-12)
        want = 2 * ((1 / 9 + 4 / 9) - 1 / 2)
        assert local_purity_formula(st, 3, 2) == pytest.approx(want, abs=1e-12)
        assert local_purity_formula(st, 3, 2) == pytest.approx(1 / 9, abs=1e-12)

    def test_qutrit_pair(self):
        rng = np.random.default_rng(31)
        a, b = random_pure_state(3, rng), random_pure_state(3, rng)
        assert local_purity_formula(a.tensor(b), 2, 3) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_check(self):
        from getk.operators import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            local_purity_formula(states.builtin_state("w:3"), 2, 2)


class TestMeyerWallach:
    def test_product_zero(self):
        assert meyer_wallach_q(product_state()) == pytest.approx(0.0, abs=1e-12)

    def test_ghz_one(self):
        assert meyer_wallach_q(states.builtin_state("ghz:3")) == pytest.approx(1.0, abs=1e-12)

    def test_w_eight_ninths(self):
        assert meyer_wallach_q(states.builtin_state("w:3")) == pytest.approx(8 / 9, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 3, 6, 12])
    def test_dimension_not_a_power_of_two_refused(self, dim):
        with pytest.raises(DimensionMismatch, match=f"state dim {dim} is not a power of 2"):
            meyer_wallach_q(QuantumState.basis_state(dim, 0))

    def test_mixed_state_refused(self):
        with pytest.raises(ValueError, match="applies to pure states"):
            meyer_wallach_q(maximally_mixed(4))


class TestUnentanglementTest:
    def test_coherent_state_is_unentangled(self):
        space = catalog.spin_algebra(3)
        report = rescaled_purity(operators.spin_basis_state(3, 3), space)
        assert report.unentangled(1e-8) is True
        assert report.theorem_direction == "iff"

    def test_structure_is_decided_once_when_the_direction_is_read(self, monkeypatch):
        decided = []
        monkeypatch.setattr(operators, "_decide_site_lie",
                            lambda space: decided.append(space.size) or True)
        spin = catalog.spin_algebra(1)
        space = ObservableSpace(spin.site_basis, max_purity=spin.max_purity)
        report = rescaled_purity(operators.spin_basis_state(1, 1), space)
        assert decided == []  # a purity record never reads the direction
        assert report.theorem_direction == report.theorem_direction == "iff"
        assert decided == [3]

    def test_center_state_is_entangled(self):
        space = catalog.spin_algebra(3)
        assert not rescaled_purity(operators.spin_basis_state(3, 0), space).unentangled(1e-8)

    def test_full_algebra_everything_unentangled(self):
        rng = np.random.default_rng(41)
        space = catalog.local_algebra(1, 4)
        for _ in range(5):
            assert rescaled_purity(random_pure_state(4, rng), space).unentangled(1e-8)

    def test_sufficiency_annotation_for_non_lie_space(self):
        report = rescaled_purity(states.builtin_state("bell:psi+"), catalog.omega_prime_loc())
        assert report.theorem_direction == "sufficient" and report.pure

    def test_mixed_input_rejected(self):
        with pytest.raises(ValueError):
            rescaled_purity(maximally_mixed(4), catalog.z_conserving_u2()).unentangled(1e-8)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            rescaled_purity(states.builtin_state("w:3"), catalog.omega1()).unentangled(tol)

    def test_classify_calls_rescaled_purity_once(self, monkeypatch, capsys):
        # the verdict and its direction come from the report the record prints
        import getk.purity
        from getk import cli

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return rescaled_purity(*args, **kwargs)

        monkeypatch.setattr(getk.purity, "rescaled_purity", counted)
        code = cli.main(["classify", "--state", "bisep:13", "--algebra", "omega2-paper-values",
                         "--tol", "0.7"])
        out = capsys.readouterr().out
        assert code == 0 and len(calls) == 1
        assert "rescaled=0.333333333333\nmax_reference=0.375\nunentangled=true\n" in out


class TestIndistinguishability:
    def test_bell_vs_mixture_locally(self):
        mix = np.zeros((4, 4), dtype=complex)
        mix[1, 1] = mix[2, 2] = 0.5
        assert expectations_indistinguishable(states.builtin_state("bell:phi-"),
                                              QuantumState(rho=mix),
                                              catalog.local_algebra(2, 2))

    def test_product_vs_mixture_under_correlations(self):
        mix = np.zeros((4, 4), dtype=complex)
        mix[0, 0] = mix[3, 3] = 0.5
        assert expectations_indistinguishable(QuantumState.basis_state(4, 0),
                                              QuantumState(rho=mix),
                                              catalog.omega_prime_loc())

    def test_fully_distinguishable_globally(self):
        mix = np.zeros((4, 4), dtype=complex)
        mix[1, 1] = mix[2, 2] = 0.5
        assert not expectations_indistinguishable(states.builtin_state("bell:phi-"),
                                                  QuantumState(rho=mix),
                                                  catalog.local_algebra(1, 4))


class TestInvariantUncertainty:
    def test_coherent_state(self):
        for j in (1, 1.5, 2):
            got = invariant_uncertainty(operators.spin_basis_state(j, j),
                                        operators.spin_generators(j))
            assert got == pytest.approx(j, abs=1e-10)

    def test_center_state(self):
        got = invariant_uncertainty(operators.spin_basis_state(3, 0), operators.spin_generators(3))
        assert got == pytest.approx(12.0, abs=1e-10)

    def test_qubit_ground_state(self):
        got = invariant_uncertainty(QuantumState.basis_state(2, 0), operators.spin_generators(0.5))
        assert got == pytest.approx(0.5, abs=1e-12)


def random_rotation(k, rng):
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    return q * np.sign(np.diag(r))


class TestStructuralInvariants:
    def test_basis_independence(self):
        rng = np.random.default_rng(55)
        space = catalog.z_conserving_u2()
        for _ in range(25):
            rot = random_rotation(space.size, rng)
            rotated = ObservableSpace(list(np.einsum("ab,bij->aij", rot, np.stack(space.basis))))
            st = random_pure_state(4, rng)
            assert omega_purity(st, rotated) == pytest.approx(
                omega_purity(st, space), abs=1e-10)

    def test_group_invariance(self):
        rng = np.random.default_rng(56)
        for space in (catalog.z_conserving_u2(), catalog.local_algebra(2, 2)):
            for _ in range(10):
                rho = random_density_state(4, rng)
                angles = rng.normal(scale=0.8, size=space.size)
                h = np.einsum("a,aij->ij", angles, np.stack(space.basis))
                w, v = np.linalg.eigh(h)
                u = (v * np.exp(1j * w)) @ v.conj().T  # exp(i h)
                moved = QuantumState(rho=u @ rho.density() @ u.conj().T)
                assert omega_purity(moved, space) == pytest.approx(
                    omega_purity(rho, space), abs=1e-9)

    def test_bridge_identity(self):
        rng = np.random.default_rng(57)
        for n, d0 in ((2, 2), (3, 2), (2, 3)):
            space = catalog.local_algebra(n, d0)
            for _ in range(10):
                st = random_pure_state(d0 ** n, rng)
                via_algebra = rescaled_purity(st, space).rescaled
                via_formula = local_purity_formula(st, n, d0)
                assert via_algebra == pytest.approx(via_formula, abs=1e-10)
                if d0 == 2:
                    assert via_formula == pytest.approx(1 - meyer_wallach_q(st), abs=1e-12)

    def test_subspace_monotonicity(self):
        rng = np.random.default_rng(58)
        chains = [
            (catalog.omega1(), catalog.bilocal_pair_algebra(), 8),
            (catalog.omega_prime_loc(), catalog.local_algebra(1, 4), 4),
            (catalog.z_conserving_u2(), catalog.local_algebra(1, 4), 4),
        ]
        for small, big, dim in chains:
            for _ in range(10):
                st = random_pure_state(dim, rng)
                assert omega_purity(st, small) <= omega_purity(st, big) + 1e-10
