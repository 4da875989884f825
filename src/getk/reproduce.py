"""Golden-value suite: every published reference number the toolkit reproduces.

Each check is one row of ``CHECKS``: a name, a measure, the expected value
and its tolerance.  Running a row compares the measured quantity against
the reference and reports one PASS/FAIL line; informational records
(computed values with no published reference) are reported as INFO and
never fail the run.
"""

from fractions import Fraction
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import Frozen, boxes, catalog, coherent, fermion, states
from .operators import (QuantumState, kron_all, lie_closure, orthonormalize, partial_trace,
                        pauli_string, seeded_rng, spin_basis_state, spin_generators)
from .purity import (
    expectations_indistinguishable,
    invariant_uncertainty,
    omega_purity,
    rescaled_purity,
)


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _bool(x) -> str:
    return str(bool(x)).lower()


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _three_qubit_state(name: str) -> QuantumState:
    """A builtin, or for ``product`` a fixed non-axis product state (the generic product)."""
    if name != "product":
        return states.builtin_state(name)
    a = np.array([np.cos(0.3), np.exp(0.4j) * np.sin(0.3)])
    b = np.array([np.cos(1.1), np.exp(-0.2j) * np.sin(1.1)])
    c = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return QuantumState(vector=kron_all([a, b, c]))


_P1_GOLD = {"product": 1.0, "bisep:12": 1 / 3, "bisep:13": 1 / 3, "bisep:23": 1 / 3,
            "w:3": 1 / 9, "ghz:3": 0.0}
_P2_GOLD = {"product": 1.0, "bisep:12": 1.0, "bisep:13": 1 / 3, "bisep:23": 1 / 3,
            "ghz:3": 1 / 3, "w:3": 11 / 27}


def omega2_value_table() -> dict:
    """Rescaled purities of the three-qubit classes under both pair readings."""
    return {space.label: {name: rescaled_purity(_three_qubit_state(name), space).rescaled
                          for name in _P2_GOLD}
            for space in (catalog.first_pair_algebra(), catalog.bilocal_pair_algebra())}


def omega2_discrepancy_report() -> str:
    """Side-by-side record of the two bi-local observable-set readings.

    The quoted basis count for the bi-local observer (nine one-body plus
    six two-body operators, fifteen in total) matches the dimension of the
    first-pair operator space alone, not the eighteen-element direct sum it
    names.  Both readings ship: omega2-paper-values (the fifteen first-pair
    operators, maximum 3/8) reproduces the published reference values, while
    omega2-literal (the full direct sum, maximum 1/2) is recorded here.
    """
    table = omega2_value_table()
    lines = ["bi-local purity readings (rescaled to maximum 1):",
             f"{'state':<10} {'omega2-paper-values':>20} {'omega2-literal':>16}"]
    for name in _P2_GOLD:
        a = table["omega2-paper-values"][name]
        b = table["omega2-literal"][name]
        lines.append(f"{name:<10} {_fmt(a):>20} {_fmt(b):>16}")
    lines.append("reference values pin the first-pair reading; the literal direct-sum")
    lines.append("values are recorded for comparison (exact: 1, 1, 1/4, 1/4, 1/4, 1/3).")
    return "\n".join(lines)


def _sz_operator() -> np.ndarray:
    return 0.5 * (pauli_string("ZI") + pauli_string("IZ"))


def _even_mixture(i, j) -> QuantumState:
    mix = np.zeros((4, 4), dtype=complex)
    mix[i, i] = mix[j, j] = 0.5
    return QuantumState(rho=mix)


class _Run:
    """One run of the suite: the objects several checks share (each built on first use), and
    the measures ``CHECKS`` names.  Its sampled checks draw from fixed seeds."""

    @cached_property
    def vertices(self):
        """The vertices of the (2,2,2,2) no-signalling polytope, enumerated once."""
        return boxes.enumerate_vertices(2, 2, 2, 2)

    # --- two-qubit operator facts ----------------------------------------
    def bell_reduction_error(self):
        worst = 0.0
        for kind in ("phi+", "phi-", "psi+", "psi-"):
            st = states.builtin_state(f"bell:{kind}")
            for q in (0, 1):
                red = partial_trace(st, [2, 2], [q]).density()
                worst = max(worst, _max_abs(red - np.eye(2) / 2))
        return worst

    def u2_sz_commutator(self):
        sz = _sz_operator()
        return max(_max_abs(x @ sz - sz @ x) for x in catalog.z_conserving_u2().basis)

    def u2_excludes_zz(self):
        zz = pauli_string("ZZ") / 2.0
        return catalog.z_conserving_u2().residual_norm(zz) > 0.9

    def u2_reorthonormalized_change(self):
        basis = catalog.z_conserving_u2().basis
        return max(_max_abs(a - b) for a, b in zip(orthonormalize(basis), basis))

    # --- three-qubit purity goldens --------------------------------------
    def golden_purity(self, algebra, name):
        return rescaled_purity(_three_qubit_state(name), catalog.named_algebra(algebra)).rescaled

    def omega2_literal_values(self):
        vals = omega2_value_table()["omega2-literal"]
        return None, " ".join(f"{n}={_fmt(v)}" for n, v in sorted(vals.items()))

    # --- conservation-law u(2) purities ----------------------------------
    def u2_bell_purity(self, kind):
        return omega_purity(states.builtin_state(f"bell:{kind}"), catalog.z_conserving_u2())

    def u2_number_states_gap(self):
        u2 = catalog.z_conserving_u2()
        ref_raw = omega_purity(states.builtin_state("bell:phi+"), u2)
        worst = 0.0
        for name in ("fock:m2:00", "fock:m2:01", "fock:m2:10", "fock:m2:11", "bell:phi-"):
            worst = max(worst, abs(omega_purity(states.builtin_state(name), u2) - ref_raw))
        return worst

    # --- expectation indistinguishability --------------------------------
    def bell_vs_mixture_local(self):
        return expectations_indistinguishable(states.builtin_state("bell:phi-"),
                                              _even_mixture(1, 2), catalog.local_algebra(2, 2))

    def product_vs_mixture_prime(self):
        return expectations_indistinguishable(QuantumState.basis_state(4, 0),
                                              _even_mixture(0, 3), catalog.omega_prime_loc())

    # --- spin-J geometry -------------------------------------------------
    def spin_extremes(self, j):
        space = catalog.spin_algebra(j)
        top, bottom, center = (rescaled_purity(spin_basis_state(j, m), space)
                               .unentangled(1e-8) for m in (j, -j, j % 1))
        return (top and bottom and not center,
                f"top={_bool(top)} bottom={_bool(bottom)} center={_bool(center)}")

    def spin_center_uncertainty(self):
        return invariant_uncertainty(spin_basis_state(3, 0), spin_generators(3))

    def full_algebra_unentangled(self):
        psi = coherent.gaussians(seeded_rng(17), 8).view(complex)
        return rescaled_purity(QuantumState(vector=psi / np.linalg.norm(psi)),
                               catalog.local_algebra(1, 4)).unentangled(1e-8)

    def orbit_purity_drift(self):
        space = catalog.spin_algebra(2)
        rng = seeded_rng(3)
        st = spin_basis_state(2, 2)
        worst = 0.0
        for _ in range(5):
            moved = coherent.orbit_sample(space, st, 0.7 * coherent.gaussians(rng, space.size))
            worst = max(worst, abs(rescaled_purity(moved, space).rescaled - 1.0))
        return worst

    def spin_estimate_ratio(self):
        space = catalog.spin_algebra(2)
        return coherent.max_purity_estimate(space) / space.max_purity

    # --- restricted local spins ------------------------------------------
    def restricted_spin_extremes(self):
        space = catalog.restricted_local_spins(1)
        scs_pair = coherent.scs(1, [0, 0, 1]).tensor(coherent.scs(1, [1, 0, 0]))
        center = spin_basis_state(1, 0)
        hi = rescaled_purity(scs_pair, space).rescaled
        lo = rescaled_purity(center.tensor(center), space).rescaled
        return (abs(hi - 1) <= 1e-9 and abs(lo) <= 1e-12,
                f"scs-pair={_fmt(hi)} center-pair={_fmt(lo)}")

    # --- fermionic dictionary --------------------------------------------
    def anticommutation_error(self):
        c = fermion.annihilators(2)
        cdag = [x.conj().T for x in c]
        eye = np.eye(4)
        worst = 0.0
        for iop in range(2):
            for jop in range(2):
                ci, cj = c[iop], c[jop]
                di, dj = cdag[iop], cdag[jop]
                worst = max(worst, _max_abs(ci @ cj + cj @ ci))
                worst = max(worst, _max_abs(di @ dj + dj @ di))
                worst = max(worst, _max_abs(di @ cj + cj @ di - (eye if iop == jop else 0)))
        return worst

    def number_shift_error(self):
        return _max_abs(fermion.number_operator(2) + _sz_operator() - np.eye(4))

    def u2_span_mismatch(self):
        u2, fu2 = catalog.z_conserving_u2(), fermion.fermionic_u2()
        return max([fu2.residual_norm(x) for x in u2.basis]
                   + [u2.residual_norm(x) for x in fu2.basis])

    def fermionic_u2_number_commutator(self):
        nhat = fermion.number_operator(2)
        return max(_max_abs(x @ nhat - nhat @ x) for x in fermion.fermionic_u2().basis)

    def fermionic_purity_extremes(self):
        fu2 = fermion.fermionic_u2()
        hi = [states.builtin_state(n) for n in ("fock:m2:00", "fock:m2:01", "fock:m2:10",
                                                "fock:m2:11", "bell:phi+", "bell:phi-")]
        worst_hi = max(abs(rescaled_purity(st, fu2).rescaled - 1.0) for st in hi)
        worst_lo = max(omega_purity(states.builtin_state(f"bell:{k}"), fu2)
                       for k in ("psi+", "psi-"))
        return (worst_hi <= 1e-9 and worst_lo <= 1e-12,
                f"max|1-P|={_fmt(worst_hi)} max-zero={_fmt(worst_lo)}")

    def so4_u2_residual(self):
        so4 = fermion.fermionic_so4()
        return max(so4.residual_norm(x) for x in fermion.fermionic_u2().basis)

    def so4_links_number_sectors(self):
        # the squared overlaps summed over an orthonormal basis do not depend on the basis
        c1, c2 = fermion.annihilators(2)
        vac = QuantumState.basis_state(4, 0).vector
        double = c1.conj().T @ c2.conj().T @ vac
        basis = fermion.fermionic_so4().basis
        return sum(abs(vac.conj() @ (x @ double)) ** 2 for x in basis) > 0.5

    # --- box polytope ----------------------------------------------------
    def vertex_census(self):
        verts = self.vertices
        n_prod = sum(1 for v in verts if boxes.vertex_class(v) == "product")
        n_ent = len(verts) - n_prod
        return ((len(verts), n_prod, n_ent) == (24, 16, 8),
                f"total={len(verts)} product={n_prod} entangled={n_ent}")

    def displayed_vertices_present(self):
        found = {v.probs for v in self.vertices}
        return (boxes.canonical_product_vertex().probs in found
                and boxes.canonical_entangled_vertex().probs in found)

    def marginal_goldens(self):
        half, one, zero = Fraction(1, 2), Fraction(1), Fraction(0)
        a, b = boxes.marginals(boxes.canonical_entangled_vertex())
        pa, pb = boxes.marginals(boxes.canonical_product_vertex())
        return (a.probs == b.probs == (half,) * 4
                and pa.probs == pb.probs == (one, zero, one, zero))

    def orbit_sizes(self):
        ent = len(boxes.relabeling_orbit(boxes.canonical_entangled_vertex()))
        prod = len(boxes.relabeling_orbit(boxes.canonical_product_vertex()))
        return (ent, prod) == (8, 16), f"entangled-orbit={ent} product-orbit={prod}"

    def separability_goldens(self):
        prod, ent = boxes.canonical_product_vertex(), boxes.canonical_entangled_vertex()
        prod_ok = boxes.in_separable_tensor_product(prod)
        ent_bad = boxes.in_separable_tensor_product(ent)
        ok = prod_ok and not ent_bad
        return ok, f"product-separable={_bool(prod_ok)} entangled-separable={_bool(ent_bad)}"

    def entangled_mixture_separable(self):
        orbit = boxes.relabeling_orbit(boxes.canonical_entangled_vertex())
        n = len(orbit)
        avg = tuple(sum(v.probs[r] for v in orbit) / n for r in range(16))
        mix = boxes.BoxState(shape=(2, 2, 2, 2), probs=avg)
        sep = boxes.in_separable_tensor_product(mix)
        return None, f"separable={_bool(sep)} (recorded, no reference value)"


class Check(Frozen):
    """One golden check: ``measure(run)`` against ``expected``.

    A numeric ``expected`` passes within ``tol``; ``True`` passes when the
    measure is truthy.  With ``expected=None`` the measure judges itself and
    returns ``(ok, detail)``, where ``ok=None`` marks an informational record.
    An immutable :class:`getk.Frozen` value.
    """

    __slots__ = ("name", "measure", "expected", "tol")

    def __init__(self, name: str, measure: Callable, expected: float | bool | None = None,
                 tol: float = 1e-10):
        super().__init__(name, measure, expected, tol)

    def result(self, run: _Run) -> tuple[bool | None, str]:
        """``(ok, line)``: the verdict, None for an informational record, and its output line."""
        got = self.measure(run)
        if self.expected is None:
            ok, detail = got
        elif isinstance(self.expected, bool):
            ok = bool(got) == self.expected
            detail = f"value={_bool(got)} expected={_bool(self.expected)}"
        else:
            ok = abs(float(got) - float(self.expected)) <= self.tol
            detail = f"value={_fmt(got)} expected={_fmt(self.expected)}"
        tag = "INFO" if ok is None else "PASS" if ok else "FAIL"
        return ok, f"{tag} {self.name} {detail}"


def _golden_purity_rows(prefix, gold, algebra):
    """One row per state of a three-qubit golden table, on catalog ``algebra``, read as it runs."""
    return tuple(Check(f"{prefix}/{name}", partial(_Run.golden_purity, algebra=algebra, name=name),
                       expected)
                 for name, expected in gold.items())


CHECKS = (
    Check("bell/reduced-maximally-mixed", _Run.bell_reduction_error, 0.0),
    Check("u2/closure-dim",
          lambda run: lie_closure(catalog.z_conserving_u2().basis).size, 4, tol=0),
    Check("u2/commutes-with-sz", _Run.u2_sz_commutator, 0.0, tol=1e-12),
    Check("u2/zz-outside-span", _Run.u2_excludes_zz, True),
    Check("u2/orthonormal-as-displayed", _Run.u2_reorthonormalized_change, 0.0, tol=1e-12),
    Check("catalog/local-2x2-count", lambda run: catalog.local_algebra(2, 2).size, 6, tol=0),
    Check("catalog/omega1-count", lambda run: catalog.omega1().size, 9, tol=0),
    Check("catalog/omega-prime-count", lambda run: catalog.omega_prime_loc().size, 4, tol=0),
    *_golden_purity_rows("p1", _P1_GOLD, "omega1"),
    *_golden_purity_rows("p2", _P2_GOLD, "omega2-paper-values"),
    Check("info/omega2-literal-values", _Run.omega2_literal_values),
    *(Check(f"u2-purity/bell:{kind}", partial(_Run.u2_bell_purity, kind=kind), 0.0, tol=1e-12)
      for kind in ("psi+", "psi-")),
    Check("u2-purity/number-states-match-phi", _Run.u2_number_states_gap, 0.0),
    Check("indistinguishable/bell-vs-mixture-local", _Run.bell_vs_mixture_local, True),
    Check("indistinguishable/product-vs-mixture-prime", _Run.product_vs_mixture_prime, True),
    *(Check(f"spin/extremes-J={j}", partial(_Run.spin_extremes, j=j)) for j in (1, 1.5)),
    Check("spin/center-invariant-uncertainty-J=3", _Run.spin_center_uncertainty, 12.0, tol=1e-9),
    Check("full-algebra/any-pure-unentangled", _Run.full_algebra_unentangled, True),
    Check("spin/orbit-purity-constant", _Run.orbit_purity_drift, 0.0, tol=1e-9),
    Check("spin/max-estimate-J=2", _Run.spin_estimate_ratio, 1.0, tol=1e-6),
    Check("restricted-spins/product-extremes", _Run.restricted_spin_extremes),
    Check("fermion/anticommutation", _Run.anticommutation_error, 0.0, tol=0),
    Check("fermion/number-equals-identity-minus-sz", _Run.number_shift_error, 0.0, tol=0),
    Check("fermion/u2-span-equals-spin-u2", _Run.u2_span_mismatch, 0.0, tol=1e-12),
    Check("fermion/u2-commutes-with-number", _Run.fermionic_u2_number_commutator, 0.0, tol=0),
    Check("fermion/u2-purity-extremes", _Run.fermionic_purity_extremes),
    Check("fermion/so4-contains-u2", _Run.so4_u2_residual, 0.0, tol=1e-12),
    Check("fermion/so4-links-number-sectors", _Run.so4_links_number_sectors, True),
    Check("boxes/vertex-census", _Run.vertex_census),
    Check("boxes/displayed-vertices-present", _Run.displayed_vertices_present, True),
    Check("boxes/marginal-goldens", _Run.marginal_goldens, True),
    Check("boxes/entangled-representative-extremal",
          lambda run: boxes.is_extremal(boxes.canonical_entangled_vertex()), True),
    Check("boxes/orbit-sizes", _Run.orbit_sizes),
    Check("boxes/separability-goldens", _Run.separability_goldens),
    Check("info/uniform-entangled-mixture-separable", _Run.entangled_mixture_separable),
)


def run_table_paper() -> tuple[list[str], int]:
    """Run every check: its lines, then the ``checked= failed=`` summary; and the exit code."""
    run = _Run()
    oks, lines = zip(*(check.result(run) for check in CHECKS))
    failed = oks.count(False)
    return [*lines, f"checked={len(oks) - oks.count(None)} failed={failed}"], int(failed > 0)
