import ast
import contextlib
import copy
import io
import itertools
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from getk import (Frozen, boxes, catalog, cli, coherent, fermion, operators, purity, reproduce,
                  states, whole_number)
from getk.operators import MAX_DIM, ObservableSpace, QuantumState, gell_mann_basis, pauli_string
from random_states import perturbed_builtins, random_density_state
from test_boxes import product_table

BUILTIN_EXAMPLES = (
    "bell:phi+", "bell:phi-", "bell:psi+", "bell:psi-",
    "ghz:3", "w:3", "bisep:12", "bisep:13", "bisep:23",
    "spin:1,1", "spin:3/2,1/2", "fock:m2:00", "fock:m2:01",
    "fock:m2:10", "fock:m2:11",
)


def state_to_json_dict(state: QuantumState) -> dict:
    if state.is_pure:
        v = state.vector
        return {"dim": state.dim, "kind": "pure",
                "amplitudes": [[z.real, z.imag] for z in v]}
    m = state.density()
    return {"dim": state.dim, "kind": "density",
            "matrix": [[[z.real, z.imag] for z in row] for row in m]}


class TestBuiltins:
    def test_bell_conventions(self):
        s = 1 / np.sqrt(2)
        # one-particle pair states
        assert np.allclose(states.builtin_state("bell:phi+").vector, [0, s, s, 0])
        assert np.allclose(states.builtin_state("bell:phi-").vector, [0, s, -s, 0])
        # number superpositions
        assert np.allclose(states.builtin_state("bell:psi+").vector, [s, 0, 0, s])
        assert np.allclose(states.builtin_state("bell:psi-").vector, [s, 0, 0, -s])

    def test_ghz(self):
        v = states.builtin_state("ghz:3").vector
        assert v[0] == pytest.approx(1 / np.sqrt(2))
        assert v[7] == pytest.approx(1 / np.sqrt(2))
        assert np.linalg.norm(v[1:7]) == 0.0

    def test_w(self):
        v = states.builtin_state("w:3").vector
        for idx in (1, 2, 4):
            assert v[idx] == pytest.approx(1 / np.sqrt(3))

    def test_biseparable_layouts(self):
        s = 1 / np.sqrt(2)
        v12 = states.builtin_state("bisep:12").vector
        assert v12[0b000] == pytest.approx(s) and v12[0b110] == pytest.approx(s)
        v13 = states.builtin_state("bisep:13").vector
        assert v13[0b000] == pytest.approx(s) and v13[0b101] == pytest.approx(s)
        v23 = states.builtin_state("bisep:23").vector
        assert v23[0b000] == pytest.approx(s) and v23[0b011] == pytest.approx(s)

    def test_spin_states(self):
        st = states.builtin_state("spin:3,0")
        assert st.dim == 7
        assert st.vector[3] == 1.0
        st = states.builtin_state("spin:3/2,1/2")
        assert st.dim == 4 and st.vector[1] == 1.0

    def test_fock_states(self):
        assert states.builtin_state("fock:m2:10").vector[2] == 1.0

    def test_unknown_names(self):
        for bad in ("bell:chi+", "spin:0.3,0", "spin:1,-1.4", "spin:3/2,1/3", "fock:m2:02",
                    "nonsense:1"):
            with pytest.raises(states.StateParseError):
                states.builtin_state(bad)


class TestStateFiles:
    @pytest.mark.parametrize("name", BUILTIN_EXAMPLES)
    def test_round_trip_fidelity(self, name):
        st = states.builtin_state(name)
        back = states.state_from_json_dict(state_to_json_dict(st))
        assert abs(np.vdot(back.vector, st.vector)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_density_round_trip(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        st = QuantumState(rho=rho)
        back = states.state_from_json_dict(state_to_json_dict(st))
        assert np.max(np.abs(back.density() - rho)) < 1e-15

    def test_load_from_file(self, tmp_path):
        st = states.builtin_state("ghz:3")
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json_dict(st)))
        loaded = states.load_state(str(path))
        assert abs(np.vdot(loaded.vector, st.vector)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_bad_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(states.StateParseError):
            states.load_state(str(path))
        path.write_text(json.dumps({"dim": 3, "kind": "pure", "amplitudes": [[1, 0]]}))
        with pytest.raises(states.StateParseError):
            states.load_state(str(path))

    def test_missing_file(self):
        with pytest.raises(states.StateParseError):
            states.load_state("/no/such/file.json")

    @pytest.mark.parametrize("text", ["[1, 2]", '"abc"', "3", "null"])
    @pytest.mark.parametrize("command", [["purity", "--algebra", "omega1"], ["boxes", "classify"]],
                             ids=["state", "box"])
    def test_top_level_not_an_object_exit_2(self, capsys, tmp_path, text, command):
        # valid JSON that is no object gets getk's own message, not Python's indexing text
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, *command, "--state", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: state: {str(path)!r} is not a JSON object\n"

    def test_density_file_is_decoded_row_by_row(self, tmp_path):
        # as nested lists a matrix costs ~110 bytes an entry; streamed a few reads at a time
        # and decoded row by row into float arrays, the traced peak is the rows, the matrix
        # they join into and a few reads, however long the text (it is ~3 matrices here)
        rho = random_density_state(243, np.random.default_rng(243), rank=4).density()
        path = tmp_path / "density.json"
        path.write_text(json.dumps(state_to_json_dict(QuantumState(rho=rho))))
        states.load_state(str(path))  # anything the first load builds once is not counted
        tracemalloc.start()
        try:
            state = states.load_state(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(state.density(), rho)
        assert peak <= 3 * rho.nbytes + 4 * states._CHUNK

    def test_rows_are_freed_before_the_matrix_is_validated(self, tmp_path, monkeypatch):
        rho = random_density_state(16, np.random.default_rng(16), rank=4).density()
        path = tmp_path / "density.json"
        path.write_text(json.dumps(state_to_json_dict(QuantumState(rho=rho))))
        rows, matrix_row = [], states._matrix_row

        def row(entry):
            out = matrix_row(entry)
            rows.append(weakref.ref(out))
            return out

        monkeypatch.setattr(states, "_matrix_row", row)
        monkeypatch.setattr(states, "QuantumState", lambda rho: [r() for r in rows])
        assert states.load_state(str(path)) == [None] * 16

    @pytest.mark.parametrize("indent", [None, 1, 2, "\t"])
    def test_each_row_is_scanned_once(self, tmp_path, monkeypatch, indent):
        # a row that a read cuts off is scanned when the reads hold its end, not before:
        # json.dumps's "]]" and an indented "]\n ]" both end a row
        rho = random_density_state(40, np.random.default_rng(40), rank=4).density()
        path = tmp_path / "density.json"
        path.write_text(json.dumps(state_to_json_dict(QuantumState(rho=rho)), indent=indent))
        scans, raw_decode = [], json.JSONDecoder.raw_decode

        def counted(self, s, idx=0):
            scans.append(idx)
            return raw_decode(self, s, idx)

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", counted)
        monkeypatch.setattr(states, "_CHUNK", 500)  # a row is ~1,800 characters
        assert np.array_equal(states.load_state(str(path)).density(), rho)
        assert len(scans) == 5 + 40  # three keys, two values and the rows
        # and the text already read is dropped: no scan starts past two rows and two reads
        assert max(scans) < 2 * path.stat().st_size / 40 + 2 * 500

    @pytest.mark.parametrize("chunk", [None, 50, 1000], ids=["one-read", "50", "1000"])
    @pytest.mark.parametrize("indent", [None, 1, 2, "\t"], ids=["compact", "1", "2", "tab"])
    def test_indented_file_decodes_as_json_load_reads_it(self, tmp_path, monkeypatch, indent,
                                                         chunk):
        # an indented row ends in "]", whitespace and "]", searched for back from the end of
        # the text read; reads of 50 or 1,000 characters put row ends across two reads
        rho = random_density_state(24, np.random.default_rng(24), rank=4).density()
        path = tmp_path / "density.json"
        path.write_text(json.dumps(state_to_json_dict(QuantumState(rho=rho)), indent=indent))
        with open(path, encoding="utf-8") as fh:
            expected = states.state_from_json_dict(json.load(fh)).density()
        if chunk:
            monkeypatch.setattr(states, "_CHUNK", chunk)
        assert states._stream_state_file(str(path)) is not None  # streamed, not read whole
        assert np.array_equal(states.load_state(str(path)).density(), expected)

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_piped_state_gets_json_loads_error(self):
        # a pipe's text can be read only once: it is read whole, never streamed first
        text = '{"dim": 2, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5'
        with pytest.raises(json.JSONDecodeError) as error:
            json.loads(text)
        proc = subprocess.run([sys.executable, "-m", "getk.cli", "purity", "--state", "/dev/stdin",
                               "--algebra", "omega1"], input=text, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: state: '/dev/stdin' is not valid JSON: {error.value}\n"

    def test_max_dim_density_file_small_process(self, tmp_path):
        # a 52 MB file: 248 MB as nested lists, 129 MB read whole and decoded row by row,
        # 70-74 MB streamed
        rho = random_density_state(MAX_DIM, np.random.default_rng(MAX_DIM), rank=4).density()
        path = tmp_path / "density.json"
        with open(path, "w", encoding="utf-8") as fh:  # row by row: no tree in this process
            fh.write(f'{{"dim": {MAX_DIM}, "kind": "density", "matrix": [')
            for i, row in enumerate(rho):
                fh.write("," * (i > 0) + json.dumps(row.view(float).reshape(-1, 2).tolist()))
            fh.write("]}")
        proc = _run_getk("purity", "--state", str(path), "--algebra", "local:10x2", rss=True)
        assert proc.returncode == 0 and "\nrescaled=" in proc.stdout
        assert int(proc.stderr.splitlines()[-1]) < 90 * 1024

    def test_pure_file_above_max_dim_exit_2(self, capsys, tmp_path):
        # the dim is refused (exit 2) before the amplitudes become an array or meet an algebra
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"dim": 2048, "amplitudes": [[1, 0]] + [[0, 0]] * 2047}))
        code, out, err = run_cli(capsys, "purity", "--state", str(path), "--algebra", "omega1")
        assert code == 2 and out == "" and f"supported {MAX_DIM}" in err

    def test_density_file_above_max_dim_exit_2_before_decoding(self, capsys, tmp_path,
                                                               monkeypatch):
        def no_decode(*args):
            raise AssertionError("the entries were decoded")

        monkeypatch.setattr(states, "_complex_entries", no_decode)
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"dim": 1100, "kind": "density", "matrix": [[[1, 0]]]}))
        code, out, err = run_cli(capsys, "purity", "--state", str(path), "--algebra", "omega1")
        assert code == 2 and out == "" and f"supported {MAX_DIM}" in err


# every entry point that forms a register dimension, one past the cap or with no register;
# the state file's entries are never decoded
OVER_CAP = f"exceeds the supported {MAX_DIM}"
CAPPED = [
    ("pauli_string", lambda: pauli_string("X" * 11), OVER_CAP),
    ("ObservableSpace", lambda: ObservableSpace(gell_mann_basis(2), sites=11), OVER_CAP),
    ("ObservableSpace-0-sites", lambda: ObservableSpace(gell_mann_basis(2), sites=0),
     "needs at least one register"),
    ("ObservableSpace-minus-1-sites", lambda: ObservableSpace(gell_mann_basis(2), sites=-1),
     "needs at least one register"),
    ("local_algebra", lambda: catalog.local_algebra(11, 2), OVER_CAP),
    ("local_algebra-0-sites", lambda: catalog.named_algebra("local:0x2"), "need n >= 1 sites"),
    ("ghz", lambda: states.builtin_state("ghz:11"), OVER_CAP),
    ("ghz-1-qubit", lambda: states.builtin_state("ghz:1"), "ghz needs at least 2 qubits"),
    ("w", lambda: states.builtin_state("w:11"), OVER_CAP),
    ("w-1-qubit", lambda: states.builtin_state("w:1"), "w needs at least 2 qubits"),
    ("majorana_words", lambda: fermion.majorana_words(11), OVER_CAP),
    ("state-file", lambda: states.state_from_json_dict({"dim": 1025, "amplitudes": None}),
     OVER_CAP),
]


@pytest.mark.parametrize("build, message", [c[1:] for c in CAPPED], ids=[c[0] for c in CAPPED])
def test_every_register_dimension_is_checked(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestNumberTokens:
    def test_forms(self):
        assert states.parse_number_token("3/2") == 1.5
        assert states.parse_number_token(" 2 ") == 2.0
        assert states.parse_number_token("0.5") == 0.5

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            states.parse_number_token("3/0")

    def test_catalog_uses_the_same_parser(self):
        assert catalog.named_algebra("su2-spin:3/2") is catalog.spin_algebra(1.5)


class TestWholeNumber:
    # the integer rule of state and box files: exact, never truncated; a value it cannot
    # read raises what Fraction raises for it
    @pytest.mark.parametrize("value, want", [(2, 2), (10 ** 30, 10 ** 30), (2.0, 2), ("2", 2),
                                             ("6/3", 2)])
    def test_whole_values(self, value, want):
        got = whole_number(value)
        assert type(got) is int and got == want

    @pytest.mark.parametrize("value, error, message", [
        (True, TypeError, "expected an integer, got True"),
        (2.5, ValueError, "expected an integer, got 2.5"),
        (math.inf, OverflowError, "cannot convert Infinity to integer ratio"),
        (math.nan, ValueError, "cannot convert NaN to integer ratio"),
        ("abc", ValueError, "Invalid literal for Fraction: 'abc'"),
        (None, TypeError, "argument should be a string or a Rational instance"),
    ], ids=["true", "2.5", "inf", "nan", "abc", "none"])
    def test_refused_values(self, value, error, message):
        with pytest.raises(error) as info:
            whole_number(value)
        assert type(info.value) is error and str(info.value) == message


class _Pair(Frozen):
    __slots__ = ("left", "right")


def test_frozen_takes_one_value_per_field():
    pair = _Pair(1, "a")
    assert (pair.left, pair.right) == (1, "a") and not hasattr(pair, "__dict__")
    with pytest.raises(TypeError, match="_Pair takes 2 fields, got 1"):
        _Pair(1)
    with pytest.raises(TypeError, match="_Pair takes 2 fields, got 3"):
        _Pair(1, 2, 3)


SRC = str(Path(__file__).resolve().parents[1] / "src")
HUGE = "1" + "0" * 400  # no float holds it

# Starts a command and prints its peak RSS (KiB) as the last stderr line.  The
# command is a grandchild of the test process: a child's peak RSS counts the
# memory of the process it was forked from, and this small launcher holds little.
_LAUNCHER = ("import os, subprocess, sys\n"
             "child = subprocess.Popen(sys.argv[1:])\n"
             "_, status, usage = os.wait4(child.pid, 0)\n"
             "print(usage.ru_maxrss, file=sys.stderr)\n"
             "sys.exit(os.waitstatus_to_exitcode(status))\n")


def _run_getk(*argv, rss=False):
    """``getk *argv`` in a fresh process; with ``rss`` the last stderr line is its peak RSS."""
    cmd = [sys.executable, "-m", "getk.cli", *argv]
    if rss:
        cmd = [sys.executable, "-c", _LAUNCHER, *cmd]
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


def test_every_flag_is_documented():
    # a flag the README's Command line section does not name is a flag no user is told of
    root = Path(SRC).parent
    readme = (root / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]

    def parsers(parser):  # the parser and, depth first, every subcommand's parser
        yield parser
        for action in parser._actions:
            if isinstance(action.choices, dict):  # subcommand name -> its parser
                for sub in action.choices.values():
                    yield from parsers(sub)

    flags = {option for parser in parsers(cli.build_parser()) for action in parser._actions
             for option in action.option_strings if option not in ("-h", "--help")}
    assert "--state" in flags
    assert [f for f in sorted(flags) if not re.search(re.escape(f) + r"\b", section)] == []


@pytest.mark.parametrize("argv, helps", [
    (["purity"], ["builtin name or JSON state file", "catalog name", "auto | analytic"]),
    (["classify"], ["builtin name or JSON state file", "catalog name", "auto | analytic"]),
    (["boxes", "classify"], ["JSON box-table file"]),
    (["boxes", "separable"], ["JSON box-table file"]),
    (["boxes", "orbit"], ["JSON box-table file"]),
])
def test_shared_flags_show_one_help_text(capsys, monkeypatch, argv, helps):
    # a flag shared by several subcommands is declared once, with its help text
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help to the terminal's width
    with pytest.raises(SystemExit):
        cli.main([*argv, "--help"])
    out = capsys.readouterr().out
    assert [text for text in helps if text not in out] == []


def _readme_section(title: str) -> str:
    readme = (Path(SRC).parent / "README.md").read_text()
    return readme.split(f"\n### {title}\n", 1)[1].split("\n#", 1)[0]


def _algebra_names() -> set:
    """The names ``named_algebra`` accepts: the fixed table, and each literal it compares
    the name with (``name == "..."``, ``name.startswith("...")``)."""
    tree = ast.parse((Path(SRC) / "getk" / "catalog.py").read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "named_algebra")
    compared = {node.comparators[0].value for node in ast.walk(func)
                if isinstance(node, ast.Compare) and getattr(node.left, "id", "") == "name"
                and isinstance(node.comparators[0], ast.Constant)}
    prefixes = {node.args[0].value for node in ast.walk(func)
                if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "startswith"
                and getattr(node.func.value, "id", "") == "name"}
    return set(catalog._FIXED) | compared | prefixes


def test_every_state_and_algebra_name_is_documented():
    # a builtin prefix or an algebra name the README's lists leave out is one no user is told of
    states_section, algebras = _readme_section("States"), _readme_section("Algebras")
    undocumented = [f"{prefix}:" for prefix in states._BUILTINS
                    if f"`{prefix}:" not in states_section]
    names = _algebra_names()
    assert {"omega1", "so4-fermi", "local:", "su2-spin:", "custom:"} <= names
    undocumented += [name for name in sorted(names)
                     if not re.search(rf"`{re.escape(name)}" + ("" if name.endswith(":") else "`"),
                                      algebras)]
    assert len(states._BUILTINS) == 6 and undocumented == []


def _reference_sources() -> set:
    """The ``reference_source`` values ``purity`` can return: the text that ends each returned
    pair (``return value, "..."``; the stabilizer bracket's ``return clique, None`` is no text)."""
    tree = ast.parse((Path(SRC) / "getk" / "purity.py").read_text())
    return {node.value.elts[1].value for node in ast.walk(tree)
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple)
            and len(node.value.elts) == 2 and isinstance(node.value.elts[1], ast.Constant)
            and isinstance(node.value.elts[1].value, str)}


def test_every_reference_source_is_documented():
    # a --json record can carry any of these; README's list and the report's docstring name each
    sources = _reference_sources()
    assert {"analytic", "highest-weight", "stabilizer", "numerical", "explicit"} <= sources
    listing = next(p for p in _readme_section("Algebras").split("\n\n")
                   if "carry `reference_source`" in p)
    assert [s for s in sorted(sources) if f"`{s}`" not in listing] == []
    assert [s for s in sorted(sources) if f"``{s}``" not in purity.PurityReport.__doc__] == []


def test_library_example_runs():
    # the README's Library example is code a reader copies: a name it uses must still exist
    readme = (Path(SRC).parent / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    p1, q, *verdicts = proc.stdout.splitlines()
    assert (float(p1), float(q)) == (pytest.approx(1 / 9), pytest.approx(8 / 9))
    assert verdicts == ["False", "True"]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPurityCommand:
    def test_ghz_omega1(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--state", "ghz:3", "--algebra", "omega1")
        assert code == 0
        assert "rescaled=0\n" in out

    def test_w_pair_reading_twelve_digits(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--state", "w:3",
                               "--algebra", "omega2-paper-values")
        assert code == 0
        assert "rescaled=0.407407407407\n" in out

    def test_psi_plus_u2(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--state", "bell:psi+", "--algebra", "u2")
        assert code == 0
        assert "rescaled=0\n" in out

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--state", "ghz:3",
                               "--algebra", "omega1", "--json")
        record = json.loads(out)
        assert record["rescaled"] == 0.0
        assert record["algebra"] == "omega1"

    def test_explicit_rescale_value(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--state", "ghz:3",
                               "--algebra", "omega1", "--rescale", "0.375")
        assert code == 0 and "max_reference=0.375" in out

    @pytest.mark.parametrize("state, algebra, lines", [
        ("bell:phi+", "omega-prime-loc", ["rescaled=1", "max_reference=0.5"]),
        ("w:3", "omega3", ["rescaled=0.666666666667", "max_reference=0.375"]),
        ("w:3", "omega1", ["rescaled=0.111111111111", "max_reference=0.375"]),
    ])
    def test_numerical_reference_is_exact(self, capsys, state, algebra, lines):
        # omega1 has an analytic maximum; --rescale auto forces the numerical one
        extra = ["--rescale", "auto"] if algebra == "omega1" else []
        code, out, _ = run_cli(capsys, "purity", "--state", state, "--algebra", algebra, *extra)
        assert code == 0
        assert all(line in out.splitlines() for line in lines)

    @pytest.mark.parametrize("algebra, rescale, source", [
        ("omega1", [], "analytic"),
        ("omega1", ["--rescale", "auto"], "highest-weight"),
        ("omega3", [], "stabilizer"),
        ("omega1", ["--rescale", "0.375"], "explicit"),
        ("omega4", [], "analytic"),
        ("custom:cycle.txt", [], "numerical"),
    ])
    def test_json_reference_source(self, capsys, tmp_path, monkeypatch, algebra, rescale, source):
        # the 5-cycle IX IY XX YI ZY, padded to three qubits: its stabilizer bracket stays open
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cycle.txt").write_text("IXI\nIYI\nXXI\nYII\nZYI\n")
        argv = ["purity", "--state", "w:3", "--algebra", algebra, *rescale]
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["reference_source"] == source
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "reference_source" not in out

    def test_rescale_analytic_unavailable(self, capsys):
        code, _, err = run_cli(capsys, "purity", "--state", "bell:psi+",
                               "--algebra", "omega-prime-loc", "--rescale", "analytic")
        assert code == 2 and "--rescale" in err

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "purity", "--state", "w:3", "--algebra", "omega3")
        _, out2, _ = run_cli(capsys, "purity", "--state", "w:3", "--algebra", "omega3")
        assert out1 == out2

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "purity", "--state", "bell:xx", "--algebra", "omega1")
        assert code == 2 and "state" in err
        code, _, err = run_cli(capsys, "purity", "--state", "ghz:3", "--algebra", "omega9")
        assert code == 2 and "algebra" in err

    def test_dimension_mismatch_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "purity", "--state", "bell:phi+", "--algebra", "omega1")
        assert code == 3 and "dimension" in err.lower()

    @pytest.mark.parametrize("command", ["purity", "classify"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_rescale_exit_2(self, capsys, command, value):
        code, out, err = run_cli(capsys, command, "--state", "w:3", "--algebra", "omega1",
                                 "--rescale", value)
        assert code == 2 and out == "" and "positive finite" in err

    @pytest.mark.parametrize("value", ["foo", "nan", "-1"])
    def test_rescale_read_after_the_dimension(self, capsys, value):
        # purity.resolve_max_reference reads the text, after the state meets the space
        code, out, err = run_cli(capsys, "purity", "--state", "bell:phi+", "--algebra", "omega1",
                                 "--rescale", value)
        assert (code, out) == (3, "") and "dimension" in err
        code, out, err = run_cli(capsys, "purity", "--state", "w:3", "--algebra", "omega1",
                                 "--rescale", value)
        assert (code, out) == (2, "")
        assert err == ("error: rescaling reference must be auto, analytic or a positive finite "
                       f"number, got {value!r}\n")

    def test_rescale_read_after_the_traceless_part(self, capsys, tmp_path):
        path = tmp_path / "identity.txt"
        path.write_text("II\n")
        code, _, err = run_cli(capsys, "purity", "--state", "bell:phi+",
                               "--algebra", f"custom:{path}", "--rescale", "foo")
        assert code == 2 and err == f"error: algebra 'custom:{path}' has no traceless part\n"

    def test_zero_denominator_in_names_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "purity", "--state", "spin:3/0,0",
                                 "--algebra", "su2-spin:3")
        assert code == 2 and out == "" and "state" in err
        code, out, err = run_cli(capsys, "purity", "--state", "w:3", "--algebra", "su2-spin:1/0")
        assert code == 2 and out == "" and "algebra" in err

    @pytest.mark.parametrize("state, algebra", [
        ("ghz:40", "omega1"), ("w:40", "omega1"),
        ("spin:1e9,0", "su2-spin:1"), ("w:3", "su2-spin:1e9"),
        ("spin:inf,0", "su2-spin:1"), ("w:3", "su2-spin:inf"),
        ("ghz:3", "local:11x2"), ("ghz:3", "local:1000000000x2"),
    ])
    def test_oversized_exit_2_before_allocating(self, capsys, state, algebra):
        # each would ask numpy for gigabytes or more if the cap fired late
        code, out, err = run_cli(capsys, "purity", "--state", state, "--algebra", algebra)
        assert code == 2 and out == "" and f"supported {catalog.MAX_DIM}" in err

    @pytest.mark.parametrize("state, d0", [("ghz:5", 33), ("ghz:6", 64), ("ghz:10", 1024)])
    def test_oversized_site_exit_2_before_allocating(self, capsys, state, d0):
        # local:1x1024 is within MAX_DIM, but its su(1024) basis would be ~17.6 TB
        code, out, err = run_cli(capsys, "purity", "--state", state, "--algebra", f"local:1x{d0}")
        assert code == 2 and out == "" and f"supported {catalog.MAX_SITE_DIM}" in err

    @pytest.mark.parametrize("state, algebra", [("spin:nan,0", "su2-spin:1"),
                                                ("w:3", "su2-spin:nan")])
    def test_nan_spin_exit_2(self, capsys, state, algebra):
        code, out, err = run_cli(capsys, "purity", "--state", state, "--algebra", algebra)
        assert code == 2 and out == "" and "nonnegative half-integer, got nan" in err

    @pytest.mark.parametrize("state, algebra", [("spin:1,-1.4", "su2-spin:1"),
                                                ("spin:3/2,1/3", "su2-spin:3/2"),
                                                ("spin:511.5,511.4", "local:10x2")])
    @pytest.mark.parametrize("command", ["purity", "classify"])
    def test_off_grid_spin_m_exit_2(self, capsys, command, state, algebra):
        # m once rounded to the nearest basis state: spin:1,-1.4 measured |1,-1>
        code, out, err = run_cli(capsys, command, "--state", state, "--algebra", algebra)
        assert code == 2 and out == "" and "is not J minus a whole number" in err

    def test_half_integer_spin_m_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--state", "spin:3/2,-1/2",
                               "--algebra", "su2-spin:3/2")
        assert code == 0 and "rescaled=0.111111111111\n" in out

    @pytest.mark.parametrize("command", ["purity", "classify"])
    def test_nan_amplitude_exit_2(self, capsys, tmp_path, command):
        # Python's json reads NaN; a nan norm once slipped past the norm check
        path = tmp_path / "nan.json"
        path.write_text('{"dim": 2, "kind": "pure", "amplitudes": [[NaN, 0.0], [1.0, 0.0]]}')
        code, out, err = run_cli(capsys, command, "--state", str(path),
                                 "--algebra", "su2-spin:1/2")
        assert code == 2 and out == "" and "non-finite" in err

    @pytest.mark.parametrize("state, algebra, message", [
        (f"spin:{HUGE}/1,0", "su2-spin:1", "too large for a float"),
        ("spin:1,1", f"su2-spin:1/{HUGE}", "bad spin spec"),
        (f"spin:1,{HUGE}", "su2-spin:1", "m=inf outside -J..J"),  # float() reads it as inf
        ("spin:1,1", f"su2-spin:{HUGE}/1", "too large for a float"),
        ("spin:1,1", "su2-spin:1/0", "zero denominator"),
    ], ids=["state-j", "algebra-j", "state-m", "algebra-j-cause", "algebra-zero-denominator"])
    def test_huge_integer_in_names_exit_2(self, capsys, state, algebra, message):
        # each once overflowed into a traceback: float(int(token)), int(round(inf))
        code, out, err = run_cli(capsys, "purity", "--state", state, "--algebra", algebra)
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("text, message", [
        (f'{{"dim": 2, "amplitudes": [[{HUGE}, 0], [0, 0]]}}', "int too large"),
        (f'{{"dim": 2, "kind": "density", "matrix": [[[{HUGE}, 0], [0, 0]], [[0, 0], [0, 0]]]}}',
         "int too large"),
        ('{"dim": 1e400, "amplitudes": [[1, 0], [0, 0]]}', "Infinity"),
        ('{"dim": 2.9, "amplitudes": [[1, 0], [0, 0]]}', "expected an integer, got 2.9"),
        ('{"dim": true, "amplitudes": [[1, 0]]}', "expected an integer, got True"),
    ], ids=["amplitude", "density-entry", "dim", "fractional-dim", "boolean-dim"])
    def test_huge_number_in_state_file_exit_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "huge.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "purity", "--state", str(path),
                                 "--algebra", "su2-spin:1/2")
        assert code == 2 and out == "" and "bad state file" in err and message in err

    @pytest.mark.parametrize("text, message", [
        ('{"dim": 0, "amplitudes": []}', "amplitudes: entries must be [re, im] pairs"),
        ('{"dim": 1, "amplitudes": [[0, 0]]}', "pure state norm 0.0 is not 1"),
        ('{"dim": 1, "kind": "density", "matrix": [[[0, 0]]]}', "density matrix trace 0.0 is not 1"),
    ], ids=["empty", "zero-norm", "zero-trace"])
    def test_state_file_messages_print_plain_floats(self, capsys, tmp_path, text, message):
        path = tmp_path / "zero.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "purity", "--state", str(path), "--algebra", "omega1")
        assert code == 2 and out == "" and message in err and "np." not in err

    @pytest.mark.parametrize("diagonal, refusal", [
        ([1.5, -0.5], "-5.000e-01"),
        ([1 + 2e-10, -2e-10], "-2.000e-10"),
        ([1 + 5e-11, -5e-11], None),
    ], ids=["far-below", "past-threshold", "within-threshold"])
    def test_negative_eigenvalue_threshold(self, capsys, tmp_path, diagonal, refusal):
        # a least eigenvalue below -EQUALITY_TOL = -1e-10 is refused, and the message prints it
        path = tmp_path / "diagonal.json"
        path.write_text(json.dumps({"dim": 2, "kind": "density", "matrix": [
            [[diagonal[0], 0], [0, 0]], [[0, 0], [diagonal[1], 0]]]}))
        code, out, err = run_cli(capsys, "purity", "--state", str(path),
                                 "--algebra", "su2-spin:1/2")
        if refusal:
            assert (code, out) == (2, "")
            assert err == ("error: bad state file: density matrix has negative eigenvalue "
                           f"{refusal}\n")
        else:
            assert (code, err) == (0, "") and "\nrescaled=1.0000000002\n" in out

    def test_spin_zero_algebra_exit_2_without_warning(self):
        # J = 0 once divided by zero: a numpy warning, then a misleading error
        proc = _run_getk("purity", "--state", "spin:0,0", "--algebra", "su2-spin:0")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: algebra: spin 0 has no su(2) observables (all generators vanish); "
            "need J >= 1/2"]

    def test_identity_only_custom_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "identity.txt"
        path.write_text("II\n")
        code, out, err = run_cli(capsys, "purity", "--state", "bell:phi+",
                                 "--algebra", f"custom:{path}")
        assert code == 2 and out == ""
        assert err == f"error: algebra 'custom:{path}' has no traceless part\n"

    def test_long_custom_word_exit_2_before_building(self, capsys, tmp_path):
        # each 11-letter word was once a 2048 x 2048 complex product (64 MB) before any check
        path = tmp_path / "long.txt"
        path.write_text("XXXXXXXXXXX\nZZZZZZZZZZZ\n")
        code, out, err = run_cli(capsys, "purity", "--state", "ghz:3",
                                 "--algebra", f"custom:{path}", "--rescale", "0.5")
        assert code == 2 and out == "" and f"supported {catalog.MAX_DIM}" in err

    def test_many_long_custom_words_exit_2_before_building(self, capsys, tmp_path,
                                                           monkeypatch):
        # the numerical reference (the default --rescale of a reducible word set) refuses
        # 64 ten-letter words before any dim x dim matrix exists; 4,097 words are refused
        # before any mask array exists
        def no_matrix(*args):
            raise LookupError("matrix built")

        def no_masks(word):
            raise LookupError(f"masks read for {word}")

        words = ["".join(w) for w in itertools.islice(itertools.product("XYZ", repeat=10), 4097)]
        path, many = tmp_path / "words64.txt", tmp_path / "words4097.txt"
        path.write_text("".join(f"{w}\n" for w in words[:64]))
        many.write_text("".join(f"{w}\n" for w in words))
        monkeypatch.setattr(ObservableSpace, "element", no_matrix)
        monkeypatch.setattr(ObservableSpace, "site_element", no_matrix)
        argv = ["purity", "--state", "ghz:10", "--algebra", f"custom:{path}"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == ("error: a numerical reference for 64 observables of dimension 1024 "
                       f"exceeds the supported {operators.MAX_ENTRIES} size x dimension^2\n")
        code, out, err = run_cli(capsys, *argv, "--rescale", "0.5")
        assert code == 0 and err == "" and "rescaled=" in out
        monkeypatch.setattr(operators, "pauli_masks", no_masks)
        code, out, err = run_cli(capsys, "purity", "--state", "ghz:10",
                                 "--algebra", f"custom:{many}", "--rescale", "0.5")
        assert code == 2 and out == ""
        assert err == ("error: algebra: 4097 Pauli words of length 10 exceed the supported "
                       f"{operators.MAX_ENTRIES} words x dimension\n")

    def test_local_numerical_reference_over_the_work_rule_exit_2(self, capsys, monkeypatch,
                                                                 tmp_path):
        # the 30 one-qubit words on ten qubits, without a highest-weight value, carry no maximum
        # (local:10x2, their span, carries one) and are above the bracket's cap, so they would
        # need the fixed point at dimension 1024: refused at once, before any dim x dim matrix
        def no_matrix(*args):
            raise LookupError("matrix built")

        path = tmp_path / "one_qubit_words.txt"
        path.write_text("".join(f"{'I' * q}{a}{'I' * (9 - q)}\n" for q in range(10) for a in "XYZ"))
        monkeypatch.setattr(purity, "highest_weight_state", lambda *args: None)
        monkeypatch.setattr(ObservableSpace, "element", no_matrix)
        monkeypatch.setattr(ObservableSpace, "site_element", no_matrix)
        purity.numeric_max_reference.cache_clear()
        code, out, err = run_cli(capsys, "purity", "--state", "w:10", "--algebra", f"custom:{path}",
                                 "--rescale", "auto")
        purity.numeric_max_reference.cache_clear()
        assert code == 2 and out == ""
        assert err == ("error: a numerical reference for 30 observables of dimension 1024 "
                       f"exceeds the supported {operators.MAX_ENTRIES} size x dimension^2\n")

    def test_irreducible_ten_letter_words_get_the_highest_weight_reference(self, capsys,
                                                                          tmp_path):
        # the 30 one-qubit words on ten qubits span local:10x2: under the default --rescale
        # the reference is one generic element's top eigenvector, n (d - 1) / d^n
        n, d = 10, 2
        words = ["I" * q + a + "I" * (n - q - 1) for q in range(n) for a in "XYZ"]
        path = tmp_path / "one_qubit_words.txt"
        path.write_text("".join(f"{w}\n" for w in words))
        argv = ["classify", "--state", f"w:{n}", "--algebra"]
        code, out, err = run_cli(capsys, *argv, f"custom:{path}", "--json")
        record = json.loads(out)
        assert code == 0 and err == ""
        assert (record["theorem_direction"], record["reference_source"]) == ("iff",
                                                                              "highest-weight")
        assert abs(record["max_reference"] - n * (d - 1) / d ** n) <= 1e-12
        assert abs(record["rescaled"] - ((n - 2) / n) ** 2) <= 1e-12
        code, out, _ = run_cli(capsys, *argv, f"custom:{path}")
        _, local, _ = run_cli(capsys, *argv, f"local:{n}x{d}")
        assert code == 0
        assert out.replace(f"custom:{path}", f"local:{n}x{d}") == local

    def test_ten_letter_words_get_the_stabilizer_reference(self, tmp_path):
        # the first four distinct words random.Random(10) draws over IXYZ: two of them commute,
        # and the four split into two anticommuting pairs, so the reference is exactly 2 / 1024
        # with no 1024 x 1024 matrix (the fixed point gave no result in 100 s)
        path = tmp_path / "ten_letter_words.txt"
        path.write_text("IZZIXZZYXI\nZYIXYIZXYZ\nZYYZXYYXZX\nZZIIXXXYYX\n")
        argv = [sys.executable, "-m", "getk.cli", "purity", "--state", "ghz:10",
                "--algebra", f"custom:{path}", "--json"]
        proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                              text=True, timeout=30)
        assert proc.returncode == 0 and proc.stderr == ""
        record = json.loads(proc.stdout)
        assert (record["max_reference"], record["reference_source"]) == (2 / 1024, "stabilizer")

    def test_commands_read_no_dense_basis(self, capsys, tmp_path, monkeypatch):
        # every catalog algebra's purity and verdict, under every kind of --rescale, come from
        # the two linear maps alone: reading the dense basis fails the command
        def no_basis(space):
            raise LookupError(f"dense basis of {space.label} read")

        monkeypatch.setattr(ObservableSpace, "basis", property(no_basis))
        purity.numeric_max_reference.cache_clear()  # every reference is computed afresh
        path = tmp_path / "words64.txt"
        path.write_text("".join(f"{''.join(w)}\n" for w in
                                itertools.islice(itertools.product("XYZ", repeat=10), 64)))
        cases = [("omega1", "w:3", "analytic"), ("omega2-literal", "ghz:3", "analytic"),
                 ("omega2-paper-values", "w:3", "analytic"), ("omega3", "w:3", "1"),
                 ("omega4", "bisep:23", "0.875"), ("omega-prime-loc", "bell:phi+", "1"),
                 ("u2", "bell:psi+", "1"), ("so4-fermi", "fock:m2:11", "1"),
                 ("local:3x2", "ghz:3", "analytic"), ("local:2x3", "spin:4,4", "1"),
                 ("su2-spin:1", "spin:1,1", "analytic")]
        for command in ("purity", "classify"):
            for algebra, state, rescale in cases:
                for flags in ([], ["--rescale", "auto"], ["--rescale", rescale]):
                    code, out, err = run_cli(capsys, command, "--state", state,
                                             "--algebra", algebra, *flags)
                    assert code == 0 and err == "" and "rescaled=" in out, (algebra, flags, err)
            code, out, err = run_cli(capsys, command, "--state", "ghz:10",
                                     "--algebra", f"custom:{path}", "--rescale", "0.5")
            assert code == 0 and err == "" and "rescaled=" in out, err

    def test_local_auto_reference_builds_no_element(self, capsys, monkeypatch):
        # the highest-weight vector of local:10x2 is a product of site eigenvectors
        def no_matrix(*args):
            raise LookupError("element built")

        monkeypatch.setattr(ObservableSpace, "element", no_matrix)
        purity.numeric_max_reference.cache_clear()
        code, out, err = run_cli(capsys, "purity", "--state", "w:10", "--algebra", "local:10x2",
                                 "--rescale", "auto")
        assert code == 0 and err == "" and "\nrescaled=0.64\n" in out

    def test_dimension_mismatch_before_numerical_reference(self, capsys, tmp_path, monkeypatch):
        # the seeded optimizer once ran to completion on a state it could not be applied to
        calls = []
        monkeypatch.setattr(coherent, "max_purity_estimate",
                            lambda *args, **kwargs: calls.append(args) or 1.0)
        monkeypatch.setattr(purity, "stabilizer_bracket",
                            lambda *args: calls.append(args) or ([0], [[0]]))
        path = tmp_path / "three_qubit.txt"  # read afresh: no cached reference to hit
        path.write_text("XXI\nIZZ\n")
        code, out, err = run_cli(capsys, "purity", "--state", "bell:phi+",
                                 "--algebra", f"custom:{path}", "--rescale", "auto")
        assert code == 3 and out == "" and "dimension mismatch" in err
        assert calls == []

    @pytest.mark.parametrize("state, raw, rescaled", [
        ("w:3", "0.0416666666667", "0.111111111111"),
        ("ghz:3", "0", "0"),
        ("bisep:12", "0.125", "0.333333333333"),
    ])
    def test_local_auto_reference(self, capsys, state, raw, rescaled):
        # --rescale auto takes the highest-weight reference, a product of site eigenvectors
        code, out, _ = run_cli(capsys, "purity", "--state", state, "--algebra", "local:3x2",
                               "--rescale", "auto")
        assert code == 0
        assert out == (f"state={state}\nalgebra=local:3x2\nraw={raw}\nrescaled={rescaled}\n"
                       "max_reference=0.375\n")

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_local_ghz_prints_exact_zero(self, capsys, n):
        code, out, _ = run_cli(capsys, "purity", "--state", f"ghz:{n}",
                               "--algebra", f"local:{n}x2")
        assert code == 0 and "\nraw=0\nrescaled=0\n" in out

    def test_local_10_qubits_small_process(self):
        # the largest local algebra under MAX_DIM, in a process of its own:
        # reductions need no (30, 1024, 1024) stack (480 MiB)
        proc = _run_getk("purity", "--state", "w:10", "--algebra", "local:10x2", rss=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[2:] == ["raw=0.00625", "rescaled=0.64",
                                                "max_reference=0.009765625"]
        max_rss_kb = int(proc.stderr.splitlines()[-1])
        assert max_rss_kb < 150 * 1024

    @pytest.mark.parametrize("command", ["purity", "classify"])
    def test_local_auto_reference_leaves_the_stack_unbuilt(self, command):
        # no element is built in the command's own process, so no dense basis either
        probe = ("import contextlib, io, sys\n"
                 "from getk import cli, operators\n"
                 "calls, element = [], operators.ObservableSpace.element\n"
                 "operators.ObservableSpace.element = lambda *a: calls.append(1) or element(*a)\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = cli.main(sys.argv[1:])\n"
                 "print(code, len(calls))\n")
        proc = subprocess.run([sys.executable, "-c", probe, command, "--state", "w:4",
                               "--algebra", "local:4x2", "--rescale", "auto"],
                              env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                              text=True, timeout=120)
        assert proc.stdout == "0 0\n"

    def test_local_10_qubits_auto_reference_small_process(self):
        # the fixed point would need the (30, 1024, 1024) stack; the site eigenvectors do not
        plain = _run_getk("purity", "--state", "w:10", "--algebra", "local:10x2")
        proc = _run_getk("purity", "--state", "w:10", "--algebra", "local:10x2",
                         "--rescale", "auto", rss=True)
        assert proc.returncode == 0 and proc.stdout == plain.stdout
        assert int(proc.stderr.splitlines()[-1]) < 150 * 1024

    @pytest.mark.parametrize("argv, source", [
        (("purity", "--state", "w:3", "--algebra", "omega1", "--rescale", "auto", "--json"),
         "highest-weight"),
        (("purity", "--state", "bell:phi+", "--algebra", "custom:cycle.txt", "--json"),
         "numerical"),  # an open stabilizer bracket: the fixed point
        (("classify", "--state", "spin:3,3", "--algebra", "su2-spin:3"), None),
        (("reproduce", "--table", "paper"), None),
    ], ids=["highest-weight", "fixed-point", "classify", "reproduce"])
    def test_output_depends_on_the_arguments_alone(self, monkeypatch, tmp_path, argv, source):
        # no environment variable seeds a command: any GE_SEED, even one no integer reads,
        # leaves every byte and exit code as they are without it
        (tmp_path / "cycle.txt").write_text("IX\nIY\nXX\nYI\nZY\n")
        monkeypatch.chdir(tmp_path)

        def outcome():
            proc = _run_getk(*argv)
            return proc.returncode, proc.stdout, proc.stderr

        monkeypatch.delenv("GE_SEED", raising=False)
        want = outcome()
        assert want[0] == 0
        assert source is None or f'"reference_source": "{source}"' in want[1]
        for value in ("7", "-1", "abc"):
            monkeypatch.setenv("GE_SEED", value)
            assert outcome() == want, value


class TestClassifyCommand:
    def test_spin_surface_state(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--state", "spin:3,3",
                               "--algebra", "su2-spin:3")
        assert code == 0
        assert "unentangled=true" in out and "theorem_direction=iff" in out

    def test_spin_center_state(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--state", "spin:3,0",
                               "--algebra", "su2-spin:3")
        assert code == 0 and "unentangled=false" in out

    def test_bell_locally_entangled(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--state", "bell:phi+",
                               "--algebra", "local:2x2")
        assert code == 0 and "unentangled=false" in out

    def test_sufficiency_annotation(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--state", "bell:psi+",
                               "--algebra", "omega-prime-loc")
        assert code == 0 and "theorem_direction=sufficient" in out

    def test_tolerance_flag(self, capsys):
        # rescaled purity of this state is exactly 1/3; a loose tolerance flips it
        code, out, _ = run_cli(capsys, "classify", "--state", "bisep:13",
                               "--algebra", "omega2-paper-values")
        assert code == 0 and "unentangled=false" in out
        code, out, _ = run_cli(capsys, "classify", "--state", "bisep:13",
                               "--algebra", "omega2-paper-values", "--tol", "0.7")
        assert code == 0 and "unentangled=true" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_tolerance_exit_2(self, capsys, value):
        code, out, err = run_cli(capsys, "classify", "--state", "w:3", "--algebra", "omega1",
                                 "--tol", value)
        assert code == 2 and out == "" and "tolerance" in err

    def test_zero_tolerance_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--state", "ghz:3", "--algebra", "omega1",
                               "--tol", "0")
        assert code == 0 and "unentangled=false" in out

    def test_purity_computed_once(self, capsys, monkeypatch):
        calls = []
        real = purity.rescaled_purity

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(purity, "rescaled_purity", counted)
        code, out, _ = run_cli(capsys, "classify", "--state", "spin:3,3", "--algebra", "su2-spin:3")
        assert code == 0 and "unentangled=true" in out
        assert len(calls) == 1


class TestBoxesCommands:
    def entangled_file(self, tmp_path):
        from getk.boxes import canonical_entangled_vertex
        path = tmp_path / "ent.json"
        path.write_text(json.dumps(canonical_entangled_vertex().to_json_dict()))
        return str(path)

    def product_file(self, tmp_path):
        from getk.boxes import canonical_product_vertex
        path = tmp_path / "prod.json"
        path.write_text(json.dumps(canonical_product_vertex().to_json_dict()))
        return str(path)

    def test_vertices_summary(self, capsys):
        code, out, _ = run_cli(capsys, "boxes", "vertices", "--size", "2,2,2,2")
        assert code == 0
        assert out.splitlines()[-1] == "product=16 entangled=8 total=24"
        assert out.count("vertex=") == 24

    def test_classify_entangled(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "boxes", "classify", "--state",
                               self.entangled_file(tmp_path))
        assert code == 0
        assert "extremal=true" in out and "class=entangled" in out
        assert "marginal_alice=(1/2,1/2,1/2,1/2)" in out
        assert "marginal_bob=(1/2,1/2,1/2,1/2)" in out

    def test_separable_product(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "boxes", "separable", "--state",
                               self.product_file(tmp_path))
        assert code == 0 and "separable=true" in out

    def test_separable_entangled(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "boxes", "separable", "--state",
                               self.entangled_file(tmp_path))
        assert code == 0 and "separable=false" in out

    def test_generic_product_table_separable_in_a_fresh_process(self, tmp_path):
        # the largest tables the cap admits, (4,2,4,2), with distinct rational rows: the
        # integer tableau decides in well under a second where a rational one took 15 s
        rng = random.Random(4242)
        sides = []
        for _ in range(2):
            numerators = rng.sample(range(1, 97), 4)
            sides.append(boxes.BoxState((4, 2), [p for k, a in enumerate(numerators)
                                                 for p in (Fraction(a, 97 + k),
                                                           1 - Fraction(a, 97 + k))]))
        path = tmp_path / "generic.json"
        path.write_text(json.dumps(product_table(*sides).to_json_dict()))
        start = time.perf_counter()
        proc = _run_getk("boxes", "separable", "--state", str(path))
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "separable=true\n", "")
        assert elapsed < 5.0

    @pytest.mark.parametrize("n_inputs, message", [
        ([5, 5], "separability capped at 256 product vertices, got 1024"),
        ([24, 1], "separability capped at 256 product vertices, got 33554432"),
        ([8, 8], "table size 256 too large"),
        ([10, 10], "table size 400 too large"),
    ], ids=["5,2,5,2", "24,2,1,2", "8,2,8,2", "10,2,10,2"])
    def test_separable_over_cap_exit_2_before_any_product(self, capsys, tmp_path, monkeypatch,
                                                          n_inputs, message):
        # uniform tables, valid and no-signalling; the parent built every product first
        def no_products(*args):
            raise LookupError("product tables built")

        monkeypatch.setattr(boxes, "_product_columns", no_products)
        entries = 4 * n_inputs[0] * n_inputs[1]
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps({"n_inputs": n_inputs, "n_outputs": [2, 2],
                                    "p": [[1, 4]] * entries}))
        code, out, err = run_cli(capsys, "boxes", "separable", "--state", str(path))
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_orbit(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "boxes", "orbit", "--state",
                               self.entangled_file(tmp_path))
        assert code == 0
        assert "orbit_size=8" in out and out.count("member=") == 8

    def test_signalling_exit_4(self, capsys, tmp_path):
        table = {
            "n_inputs": [2, 2], "n_outputs": [2, 2],
            "p": [[1, 1], [0, 1], [1, 1], [0, 1],
                  [0, 1], [0, 1], [0, 1], [0, 1],
                  [0, 1], [1, 1], [1, 1], [0, 1],
                  [0, 1], [0, 1], [0, 1], [0, 1]],
        }
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(table))
        code, out, err = run_cli(capsys, "boxes", "classify", "--state", str(path))
        assert code == 4 and out == ""
        # Bob's outcome on input 0 follows Alice's input: the message names box 1
        assert err == ("error: box 1's input signals: the other boxes' marginal "
                       "differs between its inputs 0 and 1\n")

    def test_infeasible_exit_4(self, capsys, tmp_path):
        table = {
            "n_inputs": [2, 2], "n_outputs": [2, 2],
            "p": [[1, 1]] * 16,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(table))
        code, _, _ = run_cli(capsys, "boxes", "classify", "--state", str(path))
        assert code == 4

    def test_zero_denominator_exit_2(self, capsys, tmp_path):
        table = {
            "n_inputs": [2, 2], "n_outputs": [2, 2],
            "p": [[1, 0]] + [[0, 1]] * 15,
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(table))
        code, out, err = run_cli(capsys, "boxes", "separable", "--state", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: state: bad box table")

    @pytest.mark.parametrize("command", ["orbit", "classify", "separable"])
    @pytest.mark.parametrize("table, message", [
        ({"n_inputs": [0, 2], "n_outputs": [2, 2], "p": []}, "at least one input"),
        ({"n_inputs": [2, 2], "n_outputs": [0, 2], "p": []}, "at least one input"),
        ({"n_inputs": [-1, 1], "n_outputs": [-2, 1], "p": []}, "at least one input"),
        ({"n_inputs": [2.9, 2], "n_outputs": [2, 2], "p": [[1, 4]] * 16}, "expected an integer"),
        ({"n_inputs": [float("inf"), 2], "n_outputs": [2, 2], "p": []}, "Infinity"),
        ({"n_inputs": [True, 2], "n_outputs": [2, 2], "p": [[1, 4]] * 8}, "got True"),
        ({"n_inputs": [1, 1], "n_outputs": [2, 2], "p": [[True, 2], [0, 1], [0, 1], [1, 2]]},
         "got True"),
        # valid and no-signalling, but three boxes: the command line takes two
        ({"n_inputs": [1, 1, 1], "n_outputs": [2, 2, 2], "p": [[1, 8]] * 8}, "two boxes"),
    ], ids=["no-inputs", "no-outputs", "negative", "fractional", "infinite", "boolean",
            "boolean-numerator", "three-boxes"])
    def test_bad_shape_exit_2(self, capsys, tmp_path, command, table, message):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(table))
        code, out, err = run_cli(capsys, "boxes", command, "--state", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: state: bad box table") and message in err

    def test_classify_runs_one_rank_test(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = boxes.is_extremal

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(boxes, "is_extremal", counted)
        path = self.entangled_file(tmp_path)
        for flags, expected in [
            ((), "extremal=true\nclass=entangled\n"
                 "marginal_alice=(1/2,1/2,1/2,1/2)\nmarginal_bob=(1/2,1/2,1/2,1/2)\n"),
            (("--json",), '{"extremal": true, "class": "entangled", '
                          '"marginal_alice": [[1, 2], [1, 2], [1, 2], [1, 2]], '
                          '"marginal_bob": [[1, 2], [1, 2], [1, 2], [1, 2]]}\n'),
        ]:
            calls.clear()
            code, out, _ = run_cli(capsys, "boxes", "classify", "--state", path, *flags)
            assert code == 0 and len(calls) == 1
            assert out == expected

    def test_bad_size_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "boxes", "vertices", "--size", "2,2,2")
        assert code == 2 and "--size" in err

    def test_vertices_json(self, capsys):
        code, out, _ = run_cli(capsys, "boxes", "vertices", "--size", "1,2,1,2", "--json")
        record = json.loads(out)
        assert record["total"] == 4 and record["product"] == 4
        # each probability is a [numerator, denominator] pair, as box-table files write it
        assert all(len(q) == 2 and all(type(x) is int for x in q)
                   for vertex in record["vertices"] for q in vertex["p"])


@pytest.fixture(scope="module")
def paper_run():
    """One full ``reproduce --table paper`` run: exit code, stdout, enumerations made."""
    enumerated = []
    real = boxes.enumerate_vertices

    def counted(*shape):
        enumerated.append(shape)
        return real(*shape)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(boxes, "enumerate_vertices", counted)
        code = cli.main(["reproduce", "--table", "paper"])
    return code, out.getvalue(), len(enumerated)


class TestReproduceCommand:
    def test_list_names(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--table", "paper", "--list")
        assert code == 0
        names = out.strip().splitlines()
        assert "p1/ghz:3" in names and "boxes/vertex-census" in names
        assert len(names) >= 30

    def test_check_is_immutable_with_its_defaults(self):
        check = reproduce.Check("name", len)
        assert (check.expected, check.tol) == (None, 1e-10)
        for name in ("name", "measure", "expected", "tol"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(check, name, None)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda c: pickle.loads(pickle.dumps(c))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_check_copies_are_equal_and_frozen(self, clone):
        check = reproduce.Check("name", len)
        twin = clone(check)
        assert type(twin) is reproduce.Check and twin == check and hash(twin) == hash(check)
        assert (twin.name, twin.measure, twin.expected, twin.tol) == ("name", len, None, 1e-10)
        with pytest.raises(AttributeError, match="cannot assign to field 'tol'"):
            twin.tol = 0

    def test_full_run_passes(self, paper_run):
        code, out, _ = paper_run
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 30

    def test_list_matches_run(self, capsys, paper_run):
        code, listed, _ = run_cli(capsys, "reproduce", "--table", "paper", "--list")
        assert code == 0
        run_lines = paper_run[1].splitlines()[:-1]  # the last line is the checked= summary
        assert listed.splitlines() == [line.split(" ")[1] for line in run_lines]

    def test_polytope_enumerated_once(self, paper_run):
        assert paper_run[2] == 1

    def test_list_computes_nothing(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("--list must not compute")

        monkeypatch.setattr(boxes, "enumerate_vertices", forbidden)
        monkeypatch.setattr(fermion, "annihilators", forbidden)
        code, out, _ = run_cli(capsys, "reproduce", "--table", "paper", "--list")
        assert code == 0 and "boxes/vertex-census" in out.splitlines()

    def test_corrupted_builtin_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(states, "builtin_state", perturbed_builtins("ghz:3"))
        code, out, _ = run_cli(capsys, "reproduce", "--table", "paper")
        assert code == 1
        assert "FAIL p1/ghz:3" in out

    def test_unknown_table(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "--table", "arxiv")
        assert code == 2 and "--table" in err

    def test_list_reads_no_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("GE_SEED", "-1")
        code, out, err = run_cli(capsys, "reproduce", "--table", "paper", "--list")
        assert code == 0 and err == "" and "p1/ghz:3" in out.splitlines()
