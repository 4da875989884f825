"""Exact rescaling references with no search and no eigensolver, and their independent checks.

Sector lengths (Shor & Laflamme, quant-ph/9610040): for a subset B of qubits, S_B is the sum of
<P>^2 over the Pauli words supported exactly on B, and S_B = sum_{A in B} (-1)^{|B| - |A|}
2^|A| Tr rho_A^2.  A space that holds whole support classes has raw purity 2^-L sum_B S_B, so
the evaluator below computes it from partial traces alone, sharing no kernel with the word
path.  The same sum, taken in integers over the subsets with each A identified with its
complement (Tr rho_A^2 = Tr rho_Abar^2 on a pure state), gives omega4's constant 3/8.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from getk import catalog, coherent, purity, states
from getk.coherent import gaussians
from getk.operators import (ObservableSpace, QuantumState, anticommutation_rows, gell_mann_basis,
                            partial_trace, seeded_rng)
from getk.purity import highest_weight_state, omega_purity, rescaled_purity
from random_states import random_density_state, random_pure_state

SRC = str(Path(__file__).resolve().parents[1] / "src")


def word_sectors(space: ObservableSpace):
    """The supports (sets of qubit positions, first letter 0) whose every word the space holds,
    or None when some support class is held only in part; a site space of qubits holds the
    single-qubit classes when its site basis spans su(2)."""
    if space.masks is None:
        if space.site_basis.shape[1:] != (2, 2) or len(space.site_basis) != 3:
            return None
        return [frozenset([site]) for site in range(space.sites)]
    length = round(np.log2(space.dim))
    counts = {}
    for x, z in space.masks.tolist():
        support = frozenset(q for q in range(length) if (x | z) >> (length - 1 - q) & 1)
        counts[support] = counts.get(support, 0) + 1
    return None if any(n != 3 ** len(b) for b, n in counts.items()) else list(counts)


def subsets(qubits):
    return [frozenset(c) for k in range(len(qubits) + 1) for c in itertools.combinations(qubits, k)]


def sector_purity(state, sectors, length: int) -> float:
    """Raw purity 2^-L sum_B S_B from the subsystem purities, by Mobius inversion."""
    cache = {frozenset(): 1.0}

    def tr_sq(a):
        if a not in cache:
            cache[a] = partial_trace(state, [2] * length, sorted(a)).purity()
        return cache[a]

    total = sum((-1) ** (len(b) - len(a)) * 2 ** len(a) * tr_sq(a)
                for b in sectors for a in subsets(sorted(b)))
    return total / 2 ** length


def folded_coefficients(sectors, length: int) -> dict:
    """2^L times the raw purity as integer coefficients of Tr rho_A^2 on pure states, each A
    identified with its complement (the key is the smaller of the two by sorted order); the
    key frozenset() holds the constant, since Tr rho_A^2 = 1 at A empty and at A whole."""
    whole = frozenset(range(length))
    out = {}
    for b in sectors:
        for a in subsets(sorted(b)):
            key = frozenset() if a == whole else min(a, whole - a, key=sorted)
            out[key] = out.get(key, 0) + (-1) ** (len(b) - len(a)) * 2 ** len(a)
    return {a: c for a, c in out.items() if c}


SECTOR_COMPLETE = ["omega1", "omega2-literal", "omega2-paper-values", "omega3", "omega4",
                   "local:1x2", "local:2x2", "local:4x2", "local:6x2"]


class TestSectorEvaluator:
    @pytest.mark.parametrize("name", SECTOR_COMPLETE)
    def test_equals_the_word_and_site_paths(self, name):
        space = catalog.named_algebra(name)
        sectors, length = word_sectors(space), round(np.log2(space.dim))
        assert sectors is not None
        rng = np.random.default_rng(2500 + len(name))
        for state in [random_pure_state(space.dim, rng) for _ in range(4)] + [
                random_density_state(space.dim, rng, rank) for rank in (1, 2, space.dim)]:
            assert abs(sector_purity(state, sectors, length) - omega_purity(state, space)) <= 1e-14

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_word_path_on_seeded_sector_complete_sets(self, seed):
        rng = random.Random(seed)
        length = rng.randint(2, 8)
        supports = {frozenset(rng.sample(range(length), rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 4))}
        words = []
        for b in supports:
            for letters in itertools.product("XYZ", repeat=len(b)):
                word = ["I"] * length
                for q, a in zip(sorted(b), letters):
                    word[q] = a
                words.append("".join(word))
        space = ObservableSpace(words)
        assert sorted(map(sorted, word_sectors(space))) == sorted(map(sorted, supports))
        np_rng = np.random.default_rng(seed)
        for state in [random_pure_state(space.dim, np_rng) for _ in range(3)] + [
                random_density_state(space.dim, np_rng)]:
            assert abs(sector_purity(state, supports, length) - omega_purity(state, space)) <= 1e-14

    def test_partial_classes_are_not_sector_complete(self):
        assert word_sectors(catalog.omega_prime_loc()) is None
        assert word_sectors(catalog.named_algebra("local:2x3")) is None

    def test_omega4_is_three_eighths_on_every_pure_state(self):
        # S_01 + S_12 + S_02 = 3: every subset's coefficient cancels against its complement's
        omega4 = catalog.omega4()
        folded = folded_coefficients(word_sectors(omega4), 3)
        assert folded == {frozenset(): 3}
        assert Fraction(omega4.max_purity) == Fraction(folded[frozenset()], 8) == Fraction(3, 8)
        rng = np.random.default_rng(2000)
        raws = [omega_purity(random_pure_state(8, rng), omega4) for _ in range(2000)]
        assert max(abs(raw - 3 / 8) for raw in raws) <= 1e-14

    @pytest.mark.parametrize("name", ["omega1", "omega2-paper-values", "omega3"])
    def test_other_combinations_are_not_constant(self, name):
        space = catalog.named_algebra(name)
        assert set(folded_coefficients(word_sectors(space), 3)) != {frozenset()}


class TestU2Bound:
    @staticmethod
    def parts(state):
        rho = state.density()
        p00, p01, p10, p11 = rho.diagonal().real
        return p00, p01, p10, p11, rho[1, 2]  # r = <01|rho|10>

    def test_raw_purity_formula_and_bound(self):
        # raw = [(p00 - p11)^2 + (p01 - p10)^2] / 2 + 2|r|^2, and |r|^2 <= p01 p10 gives
        # raw <= [(p00 - p11)^2 + (p01 + p10)^2] / 2 <= [(p00 + p11)^2 + (p01 + p10)^2] / 2 <= 1/2
        u2, rng = catalog.z_conserving_u2(), np.random.default_rng(2024)
        for state in [random_pure_state(4, rng) for _ in range(200)] + [
                random_density_state(4, rng, rank) for rank in (1, 2, 3, 4) for _ in range(25)]:
            p00, p01, p10, p11, r = self.parts(state)
            raw = omega_purity(state, u2)
            assert abs(raw - ((p00 - p11) ** 2 + (p01 - p10) ** 2) / 2 - 2 * abs(r) ** 2) <= 1e-14
            bound = ((p00 - p11) ** 2 + (p01 + p10) ** 2) / 2
            assert raw <= bound + 1e-15 and bound <= 0.5 + 1e-15

    def test_fock_01_attains_the_bound(self):
        u2, state = catalog.z_conserving_u2(), states.builtin_state("fock:m2:01")
        p00, p01, p10, p11, _ = self.parts(state)
        assert omega_purity(state, u2) == ((p00 - p11) ** 2 + (p01 + p10) ** 2) / 2 == 0.5
        assert u2.max_purity == 0.5


def uniform_theta_matrix(space: ObservableSpace) -> list:
    """A with 1 on the diagonal and on commuting pairs, -1/2 on anticommuting pairs.

    Its entries are 1 off the edges of the anticommutation graph, so lambda_max(A) bounds the
    graph's Lovasz theta, which bounds sum_a <P_a>^2 on every state (de Gois, Hansenne &
    Gühne 2023; Xu, Schwonnek & Winter 2024).  Raw purity is that sum over dim."""
    return [[Fraction(-1, 2) if anti else Fraction(1) for anti in row]
            for row in anticommutation_rows(space.masks, space.dim)]


def is_psd(m: list) -> bool:
    """Exact positive semidefiniteness of a symmetric Fraction matrix, by LDL^T: each pivot
    must be >= 0, and a zero pivot's row must be zero."""
    m, n = [row[:] for row in m], len(m)
    for k in range(n):
        pivot = m[k][k]
        if pivot < 0 or (pivot == 0 and any(m[k][k + 1:])):
            return False
        if pivot == 0:
            continue
        for i in range(k + 1, n):
            factor = m[i][k] / pivot
            if factor:
                for j in range(k + 1, n):
                    m[i][j] -= factor * m[k][j]
    return True


class TestThetaCertificates:
    @pytest.mark.parametrize("name, words", [("omega4", 27), ("omega2-paper-values", 15)])
    def test_uniform_matrix_certifies_three_eighths(self, name, words):
        # 3 I - A >= 0 is lambda_max(A) <= 3, so raw purity <= 3/8, the maximum both carry
        space = catalog.named_algebra(name)
        a = uniform_theta_matrix(space)
        assert len(a) == words and space.max_purity == 3 / 8
        assert is_psd([[3 * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(a)])
        assert not is_psd([[Fraction(299, 100) * (i == j) - x for j, x in enumerate(row)]
                           for i, row in enumerate(a)])  # and 3 is its least such bound

    def test_uniform_matrix_does_not_certify_omega2_literal(self):
        # alpha = 4, but lambda_max(A) is about 8.37: this space needs a searched A
        space = catalog.named_algebra("omega2-literal")
        a = uniform_theta_matrix(space)
        assert space.max_purity == 4 / 8
        assert not is_psd([[4 * (i == j) - x for j, x in enumerate(row)]
                           for i, row in enumerate(a)])
        assert np.linalg.eigvalsh(np.array(a, dtype=float)).max() == pytest.approx(8.3739, abs=1e-4)


@pytest.mark.parametrize("rescale", [None, "auto"])
def test_no_catalog_name_runs_the_fixed_point(monkeypatch, rescale):
    calls, real = [], coherent.max_purity_estimate
    monkeypatch.setattr(coherent, "max_purity_estimate",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    purity.numeric_max_reference.cache_clear()
    rng = np.random.default_rng(25)
    for name in catalog._FIXED:
        space = catalog.named_algebra(name)
        report = rescaled_purity(random_pure_state(space.dim, rng), space, rescale)
        assert report.reference_source != "numerical", name
    purity.numeric_max_reference.cache_clear()
    assert calls == []


LINALG_PROBE = """\
import contextlib, io, json, sys
import numpy as np
calls = []
for name in ("eigh", "eigvalsh", "svd", "qr", "cholesky", "solve", "lstsq"):
    def record(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
        calls.append(_name)
        return _real(*args, **kwargs)
    setattr(np.linalg, name, record)
from getk import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, calls]))
"""

# the command shapes of the benchmark's purity-catalog workload: random states are seeded files
CATALOG_SHAPES = [
    ("purity", "w:3", "omega2-paper-values", None),
    ("purity", "ghz:3", "omega1", None),
    ("classify", "bisep:12", "omega2-literal", None),
    ("purity", "pure:8", "omega3", "auto"),
    ("purity", "density:8", "omega4", None),
    ("classify", "pure:8", "omega4", None),
    ("purity", "pure:4", "omega-prime-loc", "auto"),
    ("classify", "bell:phi+", "omega-prime-loc", None),
    ("purity", "density:4", "u2", None),
    ("classify", "fock:m2:01", "u2", None),
    ("purity", "bell:phi+", "so4-fermi", None),
    ("classify", "pure:4", "so4-fermi", "auto"),
    ("purity", "spin:3/2,1/2", "su2-spin:3/2", None),
    ("classify", "spin:3,3", "su2-spin:3", None),
    ("purity", "pure:5", "su2-spin:2", None),
    ("purity", "density:6", "su2-spin:5/2", "auto"),
    ("purity", "pure:8", "local:3x2", None),
    ("classify", "w:3", "local:3x2", None),
    ("purity", "density:8", "omega2-literal", None),
    ("purity", "pure:8", "omega1", "auto"),
]


def _state_file(tmp_path, spec: str, rng) -> str:
    kind, dim = spec.split(":")
    dim = int(dim)
    if kind == "pure":
        v = random_pure_state(dim, rng).vector
        record = {"dim": dim, "kind": "pure", "amplitudes": [[c.real, c.imag] for c in v]}
    else:
        rho = random_density_state(dim, rng).density()
        record = {"dim": dim, "kind": "density",
                  "matrix": [[[c.real, c.imag] for c in row] for row in rho]}
    path = tmp_path / f"{spec.replace(':', '')}.json"
    path.write_text(json.dumps(record))
    return str(path)


def test_catalog_commands_call_no_lapack_routine(tmp_path):
    rng = np.random.default_rng(43)
    runs = []
    for command, state, algebra, rescale in CATALOG_SHAPES:
        if state.startswith(("pure:", "density:")):
            state = _state_file(tmp_path, state, rng)
        runs.append([command, "--state", state, "--algebra", algebra]
                    + (["--rescale", rescale] if rescale else []))
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", LINALG_PROBE, json.dumps(runs)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == [[0] * len(runs), []]


def generic_schur_verdict(basis) -> bool:
    """The Schur step of the Lie decision on one fixed-seed generic element's eigenbasis, the rule
    the regular diagonal shortcut replaces (the closure under the bracket is checked apart)."""
    k, d = len(basis), len(basis[0])
    if k == d * d - 1:
        return True
    rng = random.Random(0)
    w, v = np.linalg.eigh(sum(rng.gauss(0, 1) * x for x in basis))
    if np.diff(w).min() <= 1e-9 * np.abs(w).max():
        return False
    adjacent = np.any([np.abs(v.conj().T @ x @ v) > 1e-9 for x in basis], axis=0)
    seen = frontier = np.arange(d) == 0
    while frontier.any():
        frontier = adjacent[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return bool(seen.all())


def generic_highest_weight(space: ObservableSpace, seed: int) -> float:
    """Raw purity of the product of each site's top eigenvector of a seeded generic element."""
    rng, factor = seeded_rng(seed), np.ones(1)
    for _ in range(space.sites):
        h = space.site_element(gaussians(rng, space.size // space.sites))
        factor = np.kron(factor, np.linalg.eigh(h)[1][:, -1])
    return omega_purity(QuantumState(vector=factor), space)


def _rotated(basis, seed: int):
    g = np.random.default_rng(seed).normal(size=(2, len(basis[0]), len(basis[0])))
    u = np.linalg.qr(g[0] + 1j * g[1])[0]
    return [u @ x @ u.conj().T for x in basis]


# Clifford images of local:Lx2: irreducible Lie word sets with no word of x = 0
Z_FREE_WORDS = [["YY", "IY", "ZY", "XZ", "XI", "XX"],
                ["XII", "XYI", "XIY", "YXX", "XZI", "XIZ", "ZXX", "IXI", "IIX"],
                ["ZZYI", "YYIZ", "ZYXY", "IIYZ", "XZII", "XZZX", "XIZX", "IZIX", "YIYI", "ZXZY",
                 "YYYZ", "IZYY"]]
SITE_CASES = [("spin", k / 2, 1) for k in range(1, 27)] + [
    ("local", d, n) for d, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2))]


@pytest.fixture
def eigh_calls(monkeypatch) -> list:
    """The dimension of each matrix handed to ``np.linalg.eigh`` while the test runs."""
    calls, real = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(len(h)) or real(h))
    return calls


class TestRegularDiagonalAndItsFallback:
    @pytest.mark.parametrize("kind, j_or_d, sites", SITE_CASES,
                             ids=[f"{k}-{v}x{n}" for k, v, n in SITE_CASES])
    def test_site_spaces_agree_with_the_generic_element(self, eigh_calls, kind, j_or_d, sites):
        if kind == "spin":
            spin = catalog.spin_algebra(j_or_d)
            basis, exact = list(spin.site_basis), spin.max_purity
        else:
            basis, exact = gell_mann_basis(j_or_d), sites * (j_or_d - 1) / j_or_d ** sites
        for rotate, seed in itertools.product((False, True), (0, 7)):
            site = _rotated(basis, len(basis[0]) + seed) if rotate else basis
            space = ObservableSpace(site, sites=sites)
            del eigh_calls[:]
            verdict, state = space.irreducible_lie, highest_weight_state(space, seed)
            value = omega_purity(state, space)
            assert bool(eigh_calls) == rotate  # the diagonal shortcut, or the eigh fallback
            assert verdict is generic_schur_verdict(site) is True
            assert abs(value - generic_highest_weight(space, seed)) <= 1e-12
            assert abs(value - exact) <= 1e-12

    @pytest.mark.parametrize("words", Z_FREE_WORDS, ids=lambda w: f"L{len(w[0])}")
    @pytest.mark.parametrize("seed", [0, 7])
    def test_word_sets_with_no_diagonal_word_fall_back(self, eigh_calls, words, seed):
        space, length = ObservableSpace(words), len(words[0])
        assert space.irreducible_lie and all(x for x, _ in space.masks.tolist())
        value = omega_purity(highest_weight_state(space, seed), space)
        assert eigh_calls == [2 ** length]
        assert abs(value - generic_highest_weight(space, seed)) <= 1e-12
        assert abs(value - length / 2 ** length) <= 1e-12

    def test_one_qubit_words_need_no_dense_element(self, monkeypatch):
        # the diagonal comes from the ten Z words' masks: no 1024 x 1024 matrix is built
        def no_matrix(*args):
            raise LookupError("matrix built")

        monkeypatch.setattr(ObservableSpace, "site_element", no_matrix)
        monkeypatch.setattr(ObservableSpace, "element", no_matrix)
        space = ObservableSpace(["I" * q + a + "I" * (9 - q) for q in range(10) for a in "XYZ"])
        assert abs(omega_purity(highest_weight_state(space, 0), space) - 10 / 1024) <= 1e-15


@pytest.mark.parametrize("n", range(1, 9))
def test_a_symmetric_state_reads_the_same_on_sites_and_spin(n):
    # a permutation-symmetric state of n qubits, sum_k c_k |D_k> over the Dicke states with k
    # ones, has on local:Nx2 (the site einsum) the rescaled purity that c has on su2-spin:N/2
    # (the dense spin path): both are |<J>|^2 / J^2, and |D_k> is |J, J - k>
    c = np.random.default_rng(700 + n).normal(size=(n + 1, 2)) @ [1, 1j]
    c /= np.linalg.norm(c)
    ones = np.array([bin(i).count("1") for i in range(2 ** n)])
    dicke = np.array([(ones == k) / np.sqrt(np.count_nonzero(ones == k)) for k in range(n + 1)])
    sites = rescaled_purity(QuantumState(vector=c @ dicke), catalog.named_algebra(f"local:{n}x2"))
    spin = rescaled_purity(QuantumState(vector=c), catalog.named_algebra(f"su2-spin:{n}/2"))
    assert abs(sites.rescaled - spin.rescaled) <= 1e-12
    assert 0 < spin.rescaled <= 1 + 1e-12
