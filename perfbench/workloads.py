"""Seeded inputs, command lists and output checks for the four workloads.

Every workload is a list of ``getk`` command lines.  ``build`` writes the
inputs those commands read (box tables and state files) into a work
directory and returns one :class:`Command` per line.  Each command carries
a check that judges the command's exit code and stdout against a value
known independently of the code under test: a counting formula, how the
input was built, an exact fact about the input (a CHSH value above 2), a
published golden, or a quantity recomputed here in plain numpy.

Nothing here imports ``getk``.
"""

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

import numpy as np

WORKLOADS = ("golden", "box-tables", "purity-catalog", "local-scale")

# Wall time of one pass over each workload's command list, with the host-speed
# reference samples taken between commands, at the commit that introduced the
# benchmark (2 vCPU shared machine).  A run makes floor(--seconds / nominal)
# passes, never fewer than MIN_SAMPLES commands in all, so parent and change
# are always compared on the same sample count.
NOMINAL_PASS_S = {"golden": 5.5, "box-tables": 9.0, "purity-catalog": 6.5, "local-scale": 10.0}

# Analytic rescaling references attached by the catalog (raw maximum over
# pure states), from the closed forms in the paper and the catalog docs.
ANALYTIC_MAX = {"omega1": 3 / 8, "omega2-paper-values": 3 / 8, "omega2-literal": 1 / 2}

VALUE_TOL = 1e-9  # printed floats carry 12 significant digits


@dataclass
class Command:
    argv: list
    check: Callable  # (returncode, stdout) -> None, or a message saying what is wrong


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _records(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _close(got: float, want: float, tol: float = VALUE_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _checked(fn):
    """Turn a check that raises CheckFailed into one that returns the message."""

    def check(rc, stdout):
        if rc != 0:
            return f"exit code {rc}"
        try:
            fn(stdout)
        except CheckFailed as exc:
            return str(exc)
        except (KeyError, ValueError) as exc:
            return f"unparsable output: {exc!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# golden


def _vertices_check(size):
    na, ma, nb, mb = size
    n_prod = ma ** na * mb ** nb
    n_ent = 8 if size == (2, 2, 2, 2) else 0  # one-input sides admit local boxes only

    def fn(stdout):
        lines = stdout.splitlines()
        tail = _records(lines[-1].replace(" ", "\n"))
        got = (int(tail["product"]), int(tail["entangled"]), int(tail["total"]))
        _require(got == (n_prod, n_ent, n_prod + n_ent),
                 f"vertex census {got} != {(n_prod, n_ent, n_prod + n_ent)}")
        listed = [ln for ln in lines if ln.startswith("vertex=")]
        _require(len(listed) == n_prod + n_ent, f"{len(listed)} vertex lines")
        for ln in listed:
            probs, cls = ln[len("vertex="):].split(" class=")
            if cls == "product":
                _require(set(probs.split(",")) <= {"0", "1"}, f"product vertex not 0/1: {probs}")

    return _checked(fn)


def _reproduce_check(stdout):
    last = stdout.splitlines()[-1]
    _require(last.startswith("checked=") and last.endswith(" failed=0"), f"summary {last!r}")
    _require(not any(ln.startswith("FAIL ") for ln in stdout.splitlines()), "FAIL line")


def _golden():
    cmds = [Command(["reproduce", "--table", "paper"], _checked(_reproduce_check))]
    for size in ((2, 2, 2, 2), (2, 2, 1, 3), (3, 2, 1, 2), (2, 3, 1, 2)):
        spec = "2,2" if size == (2, 2, 2, 2) else ",".join(map(str, size))
        cmds.append(Command(["boxes", "vertices", "--size", spec], _vertices_check(size)))
    return cmds


# ---------------------------------------------------------------------------
# box-tables: exact tables built here with Fraction

BOX_SIZES = ((2, 2, 2, 2), (2, 3, 2, 2), (3, 2, 3, 2), (2, 3, 2, 3))


def _index(shape, i, j, k, l):
    na, ma, nb, mb = shape
    return (ma * k + i) * (nb * mb) + (mb * l + j)


def _product_vertex(shape, a_out, b_out):
    na, ma, nb, mb = shape
    p = [Fraction(0)] * (na * ma * nb * mb)
    for k in range(na):
        for l in range(nb):
            p[_index(shape, a_out[k], b_out[l], k, l)] = Fraction(1)
    return p


def _random_product_vertex(shape, rng):
    na, ma, nb, mb = shape
    return _product_vertex(shape, [rng.randrange(ma) for _ in range(na)],
                           [rng.randrange(mb) for _ in range(nb)])


def _pointwise_stabilizer(n_inputs, n_outputs, assignments):
    """Number of one-side relabelings fixing every deterministic assignment given."""
    count = 0
    for perm in itertools.permutations(range(n_inputs)):
        for outs in itertools.product(itertools.permutations(range(n_outputs)), repeat=n_inputs):
            if all(outs[k][a[k]] == a[perm[k]] for a in assignments for k in range(n_inputs)):
                count += 1
    return count


def _group_order(shape):
    na, ma, nb, mb = shape
    return factorial(na) * factorial(ma) ** na * factorial(nb) * factorial(mb) ** nb


def _product_mixture(shape, rng, n_terms=5):
    """Mixture of distinct product vertices with distinct weights: separable, not extremal.

    Resampled until only the identity relabeling fixes every vertex used, so
    the table's orbit is the whole relabeling group for every seed.
    """
    na, ma, nb, mb = shape
    while True:
        chosen = set()
        while len(chosen) < n_terms:
            chosen.add((tuple(rng.randrange(ma) for _ in range(na)),
                        tuple(rng.randrange(mb) for _ in range(nb))))
        chosen = sorted(chosen)
        if (_pointwise_stabilizer(na, ma, [a for a, _ in chosen]) == 1
                and _pointwise_stabilizer(nb, mb, [b for _, b in chosen]) == 1):
            break
    weights = rng.sample(range(1, 20), n_terms)
    total = sum(weights)
    p = [Fraction(0)] * (na * ma * nb * mb)
    for w, (a_out, b_out) in zip(weights, chosen):
        for r, v in enumerate(_product_vertex(shape, a_out, b_out)):
            p[r] += Fraction(w, total) * v
    return p


def _lifted_pr(shape):
    """PR box on outputs {0,1} of inputs {0,1}; extra inputs repeat input 0."""
    na, ma, nb, mb = shape
    p = [Fraction(0)] * (na * ma * nb * mb)
    for k in range(na):
        for l in range(nb):
            x, y = (k if k < 2 else 0), (l if l < 2 else 0)
            for i in range(2):
                for j in range(2):
                    if i ^ j == x * y:
                        p[_index(shape, i, j, k, l)] = Fraction(1, 2)
    return p


def _chsh(shape, p):
    """CHSH value on inputs {0,1}, outcome 0 against all others (a local coarse-graining)."""
    na, ma, nb, mb = shape
    s = Fraction(0)
    for x in range(2):
        for y in range(2):
            e = sum((1 if (i == 0) == (j == 0) else -1) * p[_index(shape, i, j, x, y)]
                    for i in range(ma) for j in range(mb))
            s += -e if x == y == 1 else e
    return s


def _pr_noise(shape, rng):
    """v PR + (1 - v) white noise with CHSH > 2: outside the local (separable) set."""
    na, ma, nb, mb = shape
    pr = _lifted_pr(shape)
    while True:
        v = Fraction(rng.randint(60, 95), 100)
        p = [v * q + (1 - v) * Fraction(1, ma * mb) for q in pr]
        if _chsh(shape, p) > 2:
            return p


def _relabel(shape, p, rng):
    """Random local relabeling of inputs and outputs (keeps every property tested)."""
    na, ma, nb, mb = shape
    ai, bi = rng.sample(range(na), na), rng.sample(range(nb), nb)
    ao = [rng.sample(range(ma), ma) for _ in range(na)]
    bo = [rng.sample(range(mb), mb) for _ in range(nb)]
    out = [Fraction(0)] * len(p)
    for k in range(na):
        for i in range(ma):
            for l in range(nb):
                for j in range(mb):
                    out[_index(shape, i, j, k, l)] = p[_index(shape, ao[k][i], bo[l][j], ai[k], bi[l])]
    return out


def _marginals(shape, p):
    na, ma, nb, mb = shape
    alice = tuple(sum(p[_index(shape, i, j, k, 0)] for j in range(mb))
                  for k in range(na) for i in range(ma))
    bob = tuple(sum(p[_index(shape, i, j, 0, l)] for i in range(ma))
                for l in range(nb) for j in range(mb))
    return alice, bob


def _write_box(workdir, name, shape, p):
    na, ma, nb, mb = shape
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n_inputs": [na, nb], "n_outputs": [ma, mb],
                   "p": [[q.numerator, q.denominator] for q in p]}, fh)
    return path


def _fractions(text):
    return tuple(Fraction(t) for t in text.strip("()").split(","))


def _separable_check(expected):
    def fn(stdout):
        _require(_records(stdout)["separable"] == ("true" if expected else "false"),
                 f"separable != {expected}")

    return _checked(fn)


def _box_classify_check(shape, p, extremal, cls):
    alice, bob = _marginals(shape, p)

    def fn(stdout):
        rec = _records(stdout)
        _require(rec["extremal"] == ("true" if extremal else "false"), f"extremal != {extremal}")
        _require(rec.get("class") == cls, f"class {rec.get('class')} != {cls}")
        _require(_fractions(rec["marginal_alice"]) == alice, "Alice's marginal")
        _require(_fractions(rec["marginal_bob"]) == bob, "Bob's marginal")

    return _checked(fn)


def _orbit_check(shape, p):
    """The orbit holds the table itself and, with a trivial stabilizer, |group| members."""
    group = _group_order(shape)
    own = tuple(p)

    def fn(stdout):
        members = set()
        size = None
        for line in stdout.splitlines():
            if line.startswith("member="):
                members.add(tuple(Fraction(t) for t in line[len("member="):].split(",")))
            elif line.startswith("orbit_size="):
                size = int(line[len("orbit_size="):])
        _require(size == len(members), f"orbit_size={size} but {len(members)} distinct members")
        _require(size == group, f"orbit size {size} != group order {group}")
        _require(own in members, "orbit misses its own table")

    return _checked(fn)


def _box_tables(rng, workdir):
    cmds = []
    for shape in BOX_SIZES:
        tag = "x".join(map(str, shape))
        mix = _product_mixture(shape, rng)
        nonlocal_mix = _relabel(shape, _pr_noise(shape, rng), rng)
        if shape[0] == shape[2] == 2:
            # a PR box on a (2,2,2,2) face: a vertex of the bigger polytope too
            vertex, cls = _relabel(shape, _lifted_pr(shape), rng), "entangled"
        else:
            vertex, cls = _random_product_vertex(shape, rng), "product"
        mix_path = _write_box(workdir, f"mix-{tag}", shape, mix)
        nl_path = _write_box(workdir, f"nonlocal-{tag}", shape, nonlocal_mix)
        v_path = _write_box(workdir, f"vertex-{tag}", shape, vertex)
        cmds += [
            Command(["boxes", "separable", "--state", nl_path], _separable_check(False)),
            Command(["boxes", "classify", "--state", v_path],
                    _box_classify_check(shape, vertex, True, cls)),
            Command(["boxes", "orbit", "--state", mix_path], _orbit_check(shape, mix)),
        ]
        if shape in BOX_SIZES[2:]:
            # separable-hull and non-extremal cases where the simplex has most columns
            cmds += [
                Command(["boxes", "separable", "--state", mix_path], _separable_check(True)),
                Command(["boxes", "classify", "--state", mix_path],
                        _box_classify_check(shape, mix, False, None)),
            ]
    return cmds


# ---------------------------------------------------------------------------
# quantum states: generated and recomputed in plain numpy

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _random_pure(np_rng, dim):
    v = np_rng.normal(size=dim) + 1j * np_rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_density(np_rng, dim, rank=4):
    g = np_rng.normal(size=(dim, rank)) + 1j * np_rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def _write_state(workdir, name, state):
    path = os.path.join(workdir, name + ".json")
    if state.ndim == 1:
        obj = {"dim": state.size, "kind": "pure",
               "amplitudes": [[float(z.real), float(z.imag)] for z in state]}
    else:
        obj = {"dim": state.shape[0], "kind": "density",
               "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in state]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _density(state):
    return np.outer(state, state.conj()) if state.ndim == 1 else state


def _reduced(rho, n, d0, keep):
    """Reduced density matrix of the sites in ``keep`` (site 0 most significant)."""
    t = rho.reshape([d0] * (2 * n))
    traced = [s for s in range(n) if s not in keep]
    for count, s in enumerate(sorted(traced, reverse=True)):
        m = n - count
        t = np.trace(t, axis1=s, axis2=s + m)
    d = d0 ** len(keep)
    return t.reshape(d, d)


def local_purity(rho, n, d0):
    """(d0/(d0-1)) (mean_l Tr rho_l^2 - 1/d0): rescaled purity for local:NxD."""
    avg = np.mean([np.trace(r @ r).real for r in (_reduced(rho, n, d0, [l]) for l in range(n))])
    return float(d0 / (d0 - 1) * (avg - 1.0 / d0))


def pauli_raw(rho, words):
    """Raw purity sum_P Tr(rho P)^2 / 2^n over normalized Pauli words."""
    total = 0.0
    for w in words:
        op = PAULI[w[0]]
        for c in w[1:]:
            op = np.kron(op, PAULI[c])
        total += np.trace(rho @ op).real ** 2
    return total / 2 ** len(words[0])


def _two_body(pairs, n=3):
    out = []
    for p, q in pairs:
        for a, b in itertools.product("XYZ", repeat=2):
            w = ["I"] * n
            w[p], w[q] = a, b
            out.append("".join(w))
    return out


_PAIR = _two_body([(0, 1)]) + ["XII", "YII", "ZII", "IXI", "IYI", "IZI"]
PAULI_WORDS = {
    "omega1": [w for s in range(3) for w in ("I" * s + c + "I" * (2 - s) for c in "XYZ")],
    "omega2-paper-values": _PAIR,
    "omega2-literal": _PAIR + ["IIX", "IIY", "IIZ"],
    "omega3": _two_body([(0, 1), (1, 2)]),
    "omega4": _two_body([(0, 1), (1, 2), (0, 2)]),
    "omega-prime-loc": ["XX", "ZZ", "XY", "YZ"],
}


def spin_rescaled(rho, j):
    """sum_a <J_a>^2 / J^2 with spin-J generators built from ladder weights."""
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        jp[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    gens = (0.5 * (jp + jp.conj().T), -0.5j * (jp - jp.conj().T), np.diag(m).astype(complex))
    return float(sum(np.trace(rho @ g).real ** 2 for g in gens) / j ** 2)


def _expected_rescaled(algebra, rho):
    """Independent rescaled purity where a closed form exists, else None."""
    if algebra.startswith("local:"):
        n, d0 = (int(t) for t in algebra.split(":")[1].split("x"))
        return local_purity(rho, n, d0)
    if algebra.startswith("su2-spin:"):
        return spin_rescaled(rho, float(Fraction(algebra.split(":")[1])))
    if algebra in ANALYTIC_MAX:
        return pauli_raw(rho, PAULI_WORDS[algebra]) / ANALYTIC_MAX[algebra]
    return None


# Published goldens for builtin states (rescaled purity), as exact fractions.
GOLDENS = {
    ("w:3", "omega2-paper-values"): Fraction(11, 27),
    ("ghz:3", "omega1"): Fraction(0),
    ("bisep:12", "omega2-literal"): Fraction(1),
    ("w:3", "local:3x2"): Fraction(1, 9),
    ("spin:3/2,1/2", "su2-spin:3/2"): Fraction(1, 9),
    ("spin:3,3", "su2-spin:3"): Fraction(1),
    ("fock:m2:01", "u2"): Fraction(1),
    ("ghz:8", "local:8x2"): Fraction(0),
    ("w:8", "local:8x2"): Fraction(9, 16),  # ((N-2)/N)^2
}


def _purity_check(command, state_name, algebra, rho, rescale):
    """Check a purity or classify record against independent values."""
    golden = GOLDENS.get((state_name, algebra))
    expected = _expected_rescaled(algebra, rho) if rho is not None else None
    analytic = algebra in ANALYTIC_MAX or algebra.startswith(("local:", "su2-spin:"))
    # a numerical reference (no analytic one, or --rescale auto) is a lower
    # bound of the maximum, found by gradient ascent to ftol 1e-10
    tol = VALUE_TOL if analytic and rescale is None else 1e-6

    def fn(stdout):
        rec = _records(stdout)
        raw, rescaled, ref = float(rec["raw"]), float(rec["rescaled"]), float(rec["max_reference"])
        _require(rec["algebra"].startswith(algebra.split(":")[0]), f"algebra {rec['algebra']}")
        _require(-VALUE_TOL <= rescaled <= 1 + 1e-8, f"rescaled {rescaled} outside [0, 1]")
        _require(_close(rescaled, raw / ref), "rescaled != raw / max_reference")
        if rescale is None and algebra in ANALYTIC_MAX:
            _require(_close(ref, ANALYTIC_MAX[algebra]), f"max_reference {ref}")
        if algebra in PAULI_WORDS and rho is not None:
            _require(_close(raw, pauli_raw(rho, PAULI_WORDS[algebra])), f"raw {raw}")
        if golden is not None:
            _require(_close(rescaled, float(golden), tol), f"rescaled {rescaled} != {golden}")
        if expected is not None:
            _require(_close(rescaled, expected, tol), f"rescaled {rescaled} != {expected:.12g}")
        if command == "classify":
            _require(rec["unentangled"] == ("true" if rescaled >= 1 - 1e-8 else "false"),
                     f"unentangled={rec['unentangled']} at rescaled {rescaled}")

    return _checked(fn)


def _builtin_density(name):
    """Density matrices of the builtin states whose goldens use a formula."""
    if name.startswith("w:"):
        n = int(name[2:])
        v = np.zeros(2 ** n, dtype=complex)
        v[[1 << q for q in range(n)]] = 1 / np.sqrt(n)
        return _density(v)
    if name.startswith("ghz:"):
        n = int(name[4:])
        v = np.zeros(2 ** n, dtype=complex)
        v[0] = v[-1] = 1 / np.sqrt(2)
        return _density(v)
    return None


def _purity_commands(spec, np_rng, workdir):
    """spec rows: (command, state, algebra, rescale); state "pure:D"/"density:D" is random."""
    cmds = []
    for n, (command, state, algebra, rescale) in enumerate(spec):
        if state.startswith(("pure:", "density:")):
            kind, dim = state.split(":")
            vec = _random_pure(np_rng, int(dim)) if kind == "pure" else _random_density(np_rng, int(dim))
            arg, rho = _write_state(workdir, f"{kind}{dim}-{n}", vec), _density(vec)
        else:
            arg, rho = state, _builtin_density(state)
        argv = [command, "--state", arg, "--algebra", algebra]
        if rescale:
            argv += ["--rescale", rescale]
        cmds.append(Command(argv, _purity_check(command, state, algebra, rho, rescale)))
    return cmds


PURITY_CATALOG = (
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
)

LOCAL_SCALE = (
    ("purity", "pure:512", "local:9x2", None),
    ("classify", "pure:256", "local:4x4", None),
    ("purity", "density:243", "local:5x3", None),
    ("purity", "ghz:8", "local:8x2", None),
    ("classify", "w:8", "local:8x2", None),
)


def build(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's inputs for ``seed`` into ``workdir``; return its commands."""
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    if workload == "golden":
        return _golden()
    if workload == "box-tables":
        return _box_tables(rng, workdir)
    if workload == "purity-catalog":
        return _purity_commands(PURITY_CATALOG, np_rng, workdir)
    if workload == "local-scale":
        return _purity_commands(LOCAL_SCALE, np_rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")
