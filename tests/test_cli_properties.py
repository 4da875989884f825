"""Property tests: any --rescale, --tol and --size text ends in exit 0 or 2, any
--table text but paper in exit 2, any builtin state name, spin: and su2-spin:
number tokens, any state JSON file and any custom: word file in exit 0, 2 or 3,
and any box JSON file in exit 0, 2 or 4 (2 unless it describes two boxes), never
a traceback; and any state-file text loads as the tree json.load builds of it."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from getk import boxes, cli, read_json_file, states
from getk.operators import QuantumState
from test_boxes import product_table

# one state per catalog algebra, of matching dimension
ALGEBRA_STATES = [
    ("omega1", "w:3"), ("omega2-literal", "ghz:3"), ("omega2-paper-values", "bisep:13"),
    ("omega3", "w:3"), ("omega4", "bisep:23"), ("omega-prime-loc", "bell:phi+"),
    ("u2", "bell:psi+"), ("so4-fermi", "fock:m2:11"), ("local:2x2", "bell:phi-"),
    ("local:3x2", "ghz:3"), ("su2-spin:3/2", "spin:3/2,1/2"), ("su2-spin:1", "spin:1,1"),
]

WORDS = ["auto", "analytic", "nan", "-nan", "inf", "-inf", "infinity", "0", "-0", "-1",
         "1e-320", "1e400", "0.375", "3/8", "", " ", "junk", "--json", "1_0"]


def flag_text(numbers):
    return st.one_of(st.sampled_from(WORDS), numbers.map(repr), st.text(max_size=6))


RESCALE = flag_text(st.floats(allow_nan=True, allow_infinity=True))
TOL = flag_text(st.floats(allow_nan=True, allow_infinity=True))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the text itself
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["purity", "classify"]),
       pair=st.sampled_from(ALGEBRA_STATES),
       rescale=st.none() | RESCALE,
       tol=st.none() | TOL)
def test_rescale_and_tol_text_exit_0_or_2(command, pair, rescale, tol):
    algebra, state = pair
    argv = [command, "--state", state, "--algebra", algebra]
    if rescale is not None:
        argv += ["--rescale", rescale]
    if tol is not None and command == "classify":
        argv += ["--tol", tol]
    code, out, err = run(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err
    else:
        assert "rescaled=" in out


HUGE_INT = st.integers(20, 600).map(lambda k: 10 ** k)  # past 308 digits no float holds it
INT_TEXT = st.one_of(st.integers(-1, 3), HUGE_INT, HUGE_INT.map(lambda v: 1 - v)).map(str)
SPIN_TOKEN = INT_TEXT | st.tuples(INT_TEXT, INT_TEXT).map("/".join)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(j=SPIN_TOKEN, m=SPIN_TOKEN, algebra_j=SPIN_TOKEN)
@example(j="1" + "0" * 400 + "/1", m="0", algebra_j="1")
@example(j="1", m="1", algebra_j="1/1" + "0" * 400)
def test_spin_tokens_exit_0_2_or_3(j, m, algebra_j):
    argv = ["purity", "--state", f"spin:{j},{m}", "--algebra", f"su2-spin:{algebra_j}"]
    code, out, err = run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code:
        assert out == "" and err.startswith("error: ")
    else:
        assert "rescaled=" in out


# the algebra of each builtin prefix's dimension; su2-spin:1 (dimension 3) matches none of them
MATCHING_ALGEBRA = {"bell": "u2", "ghz": "omega1", "w": "omega1", "bisep": "omega4",
                    "fock": "so4-fermi"}
NAME_PIECE = st.one_of(
    st.text("0123456789+-", max_size=3), st.sampled_from(["/", ",", ":"]),
    st.text("abcdefghijklmnopqrstuvwxyzXYZ", min_size=1, max_size=4),
    st.integers(-2, 2).map(lambda d: str(10 ** 400 + d)), st.just("nan"))
# valid names, alone or with one piece appended, so that exit 0 and 3 come up too
VALID_NAME = st.sampled_from(["bell:phi+", "bell:psi-", "ghz:2", "ghz:3", "w:3", "w:4",
                              "bisep:12", "bisep:23", "fock:m2:00", "fock:m2:11"])
PREFIX = st.sampled_from(["bell:", "ghz:", "w:", "bisep:", "fock:", "fock:m2:"])
STATE_NAME = st.one_of(
    st.tuples(VALID_NAME, st.just("") | NAME_PIECE).map("".join),
    st.tuples(PREFIX, st.lists(NAME_PIECE, max_size=4).map("".join)).map("".join),
    st.sampled_from(["bell", "ghz", "w", "bisep", "fock", "spin"]),  # no colon: a file path
    st.tuples(st.sampled_from(["bel:", "ghz3:", "fermi:", "BELL:", ":"]),
              st.lists(NAME_PIECE, max_size=2).map("".join)).map("".join))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=STATE_NAME, matching=st.booleans())
@example(name="bell", matching=True)
@example(name="fock:m3:00", matching=True)
def test_state_names_exit_0_2_or_3(name, matching):
    algebra = MATCHING_ALGEBRA.get(name.partition(":")[0], "omega1") if matching else "su2-spin:1"
    argv = ["purity", "--state", name, "--algebra", algebra]
    code, out, err = run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code:
        assert out == "" and err.startswith("error: ")
    else:
        assert "rescaled=" in out
    prefix, colon, _ = name.partition(":")
    if not colon or prefix not in states._BUILTINS:  # a bare prefix too is a file path
        assert err.startswith("error: state: cannot open "), (argv, err)


SHAPE_ENTRY = st.sampled_from([-1, 0, 1, 2, 2.5, "2", True])
PAIR = st.lists(st.integers(-1, 3), min_size=2, max_size=2)  # [num, den], den may be 0


def _distribution(draw, m):
    weights = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
    return [Fraction(w, sum(weights)) for w in weights]


@st.composite
def valid_tables(draw):
    """Product tables of random single boxes, mixed now and then with a PR box."""
    na, ma, nb, mb = draw(st.sampled_from([(1, 1, 1, 1), (1, 2, 1, 2), (2, 2, 1, 3),
                                           (2, 2, 2, 2)]))
    alice = boxes.BoxState((na, ma), [p for _ in range(na) for p in _distribution(draw, ma)])
    bob = boxes.BoxState((nb, mb), [p for _ in range(nb) for p in _distribution(draw, mb)])
    table = product_table(alice, bob)
    if table.shape == (2, 2, 2, 2) and draw(st.booleans()):
        w = Fraction(draw(st.integers(0, 4)), 4)
        pr = boxes.canonical_entangled_vertex().probs
        table = boxes.BoxState(table.shape, [w * a + (1 - w) * b
                                             for a, b in zip(pr, table.probs)])
    return table.to_json_dict()


@st.composite
def corrupted_tables(draw):
    """A valid table with one entry replaced: mostly infeasible or signalling."""
    obj = draw(valid_tables())
    p = list(obj["p"])
    p[draw(st.integers(0, len(p) - 1))] = draw(PAIR)
    return {**obj, "p": p}


@st.composite
def box_files(draw):
    """One to three boxes' shapes from a fixed grammar, the input and output lists perhaps
    of different lengths, and p lists of the matching length when there is one: drawn
    pairs, or the uniform table, which is valid and no-signalling at every shape."""
    n_inputs = draw(st.lists(SHAPE_ENTRY, min_size=1, max_size=3))
    n_outputs = draw(st.lists(SHAPE_ENTRY, min_size=1, max_size=3))
    entries = n_inputs + n_outputs
    shaped = len(n_inputs) == len(n_outputs) and all(isinstance(v, int) for v in entries)
    length = prod(entries) if shaped else 4
    length = max(0, min(length, 64)) if draw(st.booleans()) else draw(st.integers(0, 6))
    p = draw(st.lists(PAIR, min_size=length, max_size=length))
    if shaped and min(entries) >= 1 and draw(st.booleans()):
        p = [[1, prod(n_outputs)]] * length
    return {"n_inputs": n_inputs, "n_outputs": n_outputs, "p": p}


# box 3's outcome copies box 1's input: valid, but box 1 signals
THREE_BOX_SIGNALLING = {"n_inputs": [2, 1, 1], "n_outputs": [2, 1, 2],
                        "p": [[int(i == 0 and c == k), 1]
                              for k in range(2) for i in range(2) for c in range(2)]}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["orbit", "classify", "separable"]),
       obj=valid_tables() | corrupted_tables() | box_files())
@example(command="orbit", obj={"n_inputs": [0, 2], "n_outputs": [2, 2], "p": []})
@example(command="separable", obj={"n_inputs": [0, 2], "n_outputs": [2, 2], "p": []})
@example(command="orbit", obj={"n_inputs": [2], "n_outputs": [2], "p": [[1, 2]] * 4})
@example(command="separable", obj={"n_inputs": [1, 1], "n_outputs": [2, 2, 2],
                                   "p": [[1, 8]] * 8})
@example(command="classify", obj=THREE_BOX_SIGNALLING)
def test_box_json_exit_0_2_or_4(command, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "box.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code, out, err = run(["boxes", command, "--state", path])
    two_boxes = len(obj["n_inputs"]) == len(obj["n_outputs"]) == 2
    assert code in ((0, 2, 4) if two_boxes else (2,)), (obj, code, err)
    assert "Traceback" not in err
    if code:
        assert out == "" and err.startswith("error: ")
        return
    table = boxes.BoxState.from_json_dict(obj)
    assert boxes.BoxState.from_json_dict(
        json.loads(json.dumps(table.to_json_dict()))) == table


# two (5,3) boxes: Alice's outcome copies Bob's input mod 3, so Bob's input signals, and
# the 225 entries are over boxes.TABLE_CAP
OVERSIZED_SIGNALLING = {"n_inputs": [5, 5], "n_outputs": [3, 3],
                        "p": [[int(a == l % 3 and b == 0), 1] for k in range(5) for a in range(3)
                              for l in range(5) for b in range(3)]}


@pytest.mark.parametrize("command, code, message", [
    ("classify", 2, "error: table size 225 too large\n"),
    ("separable", 4, "error: box 2's input signals"),
    ("orbit", 4, "error: box 2's input signals")])
def test_an_oversized_signalling_table_exits_by_each_commands_first_check(
        tmp_path, command, code, message):
    # classify's extremality test builds the polytope, whose table cap comes first;
    # separable and orbit read the marginals first (README, exit codes)
    path = tmp_path / "box.json"
    path.write_text(json.dumps(OVERSIZED_SIGNALLING))
    assert len(OVERSIZED_SIGNALLING["p"]) > boxes.TABLE_CAP
    got, out, err = run(["boxes", command, "--state", str(path)])
    assert (got, out) == (code, "") and err.startswith(message), err


def complex_per_entry(obj):
    """The state-file decoding the array decoder replaced: one complex() per [re, im] pair."""
    try:
        dim = boxes.whole_number(obj["dim"])
        kind = obj.get("kind", "pure" if "amplitudes" in obj else "density")
        if kind == "pure":
            amps = np.array([complex(re, im) for re, im in obj["amplitudes"]])
            if amps.size != dim:
                raise states.StateParseError(f"expected {dim} entries, got {amps.size}")
            return QuantumState(vector=amps)
        if kind == "density":
            m = np.array([[complex(re, im) for re, im in row] for row in obj["matrix"]])
            if m.shape != (dim, dim):
                raise states.StateParseError(f"expected {dim}x{dim}, got {m.shape}")
            return QuantumState(rho=m)
        raise states.StateParseError(f"unknown kind {kind!r}")
    except states.StateParseError:
        raise
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise states.StateParseError(str(exc)) from exc


ENTRY = st.recursive(
    st.integers(-2, 2) | st.floats(-2, 2) | st.booleans() | st.text(max_size=2) | st.none()
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), 10 ** 400]),
    lambda inner: st.lists(inner, max_size=2), max_leaves=3)
NUMBER_PAIR = st.tuples(st.sampled_from([0, 0.0, False, 0.5, -1]),
                        st.sampled_from([0, 0.0, False, 0.5])).map(list)
PAIR = NUMBER_PAIR | st.lists(ENTRY, min_size=1, max_size=3)


@st.composite
def state_files(draw):
    """Basis states of dimension 1-3 written in ints, floats or bools, then perhaps corrupted:
    an entry or pair swapped for the grammar, a row made ragged, or the dim changed."""
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(0, dim - 1))
    one = list(draw(st.sampled_from([(1, 0), (1.0, 0.0), (True, False), (0, -1), (0.6, 0.8)])))
    vector = [one if i == k else draw(NUMBER_PAIR.filter(lambda p: not any(p))) for i in range(dim)]
    if draw(st.booleans()):
        obj = {"dim": dim, "kind": "pure", "amplitudes": vector}
        rows = [obj["amplitudes"]]
    else:
        matrix = [[one if i == j == k else [0, 0] for j in range(dim)] for i in range(dim)]
        obj = {"dim": dim, "kind": "density", "matrix": matrix}
        rows = matrix
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        change = draw(st.sampled_from(["pair", "entry", "ragged", "dim", "kind"]))
        if change == "ragged" or not row:
            row.pop() if row and draw(st.booleans()) else row.append(draw(PAIR))
        elif change == "pair":
            row[draw(st.integers(0, len(row) - 1))] = draw(PAIR)
        elif change == "entry":
            pair = row[draw(st.integers(0, len(row) - 1))]
            pair[draw(st.integers(0, len(pair) - 1))] = draw(ENTRY)
        elif change == "dim":
            obj["dim"] = draw(st.integers(0, 4))
        else:
            obj.pop("kind", None)
    return obj


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(obj=state_files())
@example(obj={"dim": 0, "amplitudes": []})
@example(obj={"dim": 2, "amplitudes": [[10 ** 400, 0], [0, 0]]})
@example(obj={"dim": 1, "amplitudes": [[1, "0"]]})
@example(obj={"dim": 1, "amplitudes": [[1, None]]})
@example(obj={"dim": 1, "amplitudes": [[True, False, 0]]})
@example(obj={"dim": 2, "kind": "density", "matrix": [[[1, 0], [0, 0]], [[0, 0]]]})
def test_state_file_exit_0_2_or_3(obj):
    try:
        complex_per_entry(obj)
        accepted = True
    except states.StateParseError:
        accepted = False
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code, out, err = run(["purity", "--state", path, "--algebra", "su2-spin:1/2"])
    assert code in (0, 2, 3), (obj, code, err)
    assert "Traceback" not in err
    assert (code != 2) == accepted, (obj, code, err)
    if code:
        assert out == "" and err.startswith("error: ")
    else:
        assert err == "" and "rescaled=" in out


# JSON texts for the decoding oracle: leaves written out, so that number forms, NaN,
# integers past 64 bits and past a float's range reach the decoder as a file holds them
LEAF = st.sampled_from(["0", "1", "-1", "0.5", "1.0", "-0.0", "1e0", "true", "false", "null",
                        '""', '"0"', '"pure"', '"density"', "NaN", "Infinity", "-Infinity",
                        str(2 ** 63), str(2 ** 64 + 1), str(-2 ** 64), "1" + "0" * 400])
ONE = st.sampled_from([["1", "0"], ["1.0", "-0.0"], ["true", "false"], ["1e0", "0"]])
ZERO = st.sampled_from([["0", "0"], ["0.0", "-0.0"], ["false", "false"], ["0", "0e5"]])
TREE = st.recursive(
    LEAF, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(['"a"', '"dim"', '"matrix"']), inner, max_size=2).map(
        lambda d: tuple(d.items())), max_leaves=6)
SPACE = st.sampled_from(["", "", " ", "\n", "\t ", "\r\n  "])
KEY = st.sampled_from(['"dim"', '"kind"', '"amplitudes"', '"matrix"', '"m\\u0061trix"', '"note"'])


def nested(value, depth: int):
    for _ in range(depth):
        value = [value]
    return value


def json_text(draw, value) -> str:
    """``value`` as JSON text with drawn whitespace around every item: a str is written as
    it is, a list is an array and a tuple of (key text, value) pairs an object."""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        items = [f"{key}{draw(SPACE)}:{draw(SPACE)}{json_text(draw, v)}" for key, v in value]
    else:
        items = [json_text(draw, v) for v in value]
    body = ",".join(draw(SPACE) + item + draw(SPACE) for item in items) or draw(SPACE)
    return ("{%s}" if isinstance(value, tuple) else "[%s]") % body


@st.composite
def state_texts(draw):
    """State-file texts: a pure or density basis state of dimension 1-3, then perhaps
    corrupted (an entry, a pair or a row swapped for any JSON value, a row made ragged,
    emptied or nested deeper), its members in any order, duplicated, with extra keys of any
    value, perhaps truncated, edited or followed by more text; or any JSON value at the top."""
    if draw(st.integers(0, 9)) == 0:
        return json_text(draw, draw(TREE))
    dim, pure = draw(st.integers(1, 3)), draw(st.booleans())
    k, one = draw(st.integers(0, dim - 1)), draw(ONE)
    rows = [[one if j == k and (pure or i == k) else draw(ZERO) for j in range(dim)]
            for i in range(1 if pure else dim)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        row, change = rows[i], draw(st.sampled_from(["entry", "pair", "ragged", "empty",
                                                      "row", "deeper"]))
        j = draw(st.integers(0, len(row) - 1)) if isinstance(row, list) and row else None
        if change == "row":
            rows[i] = draw(TREE)
        elif change == "deeper":
            rows[i] = nested(row, draw(st.sampled_from([1, 2, 70])))
        elif change == "ragged" and isinstance(row, list):
            row.pop() if row and draw(st.booleans()) else row.append(draw(ONE | ZERO))
        elif change == "empty" and isinstance(row, list):
            row.clear()
        elif change == "pair" and j is not None:
            row[j] = draw(TREE)
        elif change == "entry" and j is not None and isinstance(row[j], list):
            row[j] = row[j][:1] + [draw(TREE)]
    members = [('"dim"', draw(st.just(str(dim)) | LEAF)),
               ('"amplitudes"', rows[0]) if pure else
               (draw(st.sampled_from(['"matrix"', '"m\\u0061trix"'])), rows)]
    if draw(st.booleans()):
        members.append(('"kind"', '"pure"' if pure else '"density"'))
    for _ in range(draw(st.integers(0, 2))):  # 5000 deep is past the decoder's recursion limit
        members.append((draw(KEY), draw(TREE | TREE | st.sampled_from([nested("0", 40),
                                                                      "[" * 5000 + "]" * 5000]))))
    text = json_text(draw, tuple(draw(st.permutations(members))))
    end = draw(st.sampled_from(["", "", "", "", "", "\n", " ", " x", "]", "{}", "cut", "edit"]))
    if end in ("cut", "edit"):  # truncated, or one character dropped or put in
        at = draw(st.integers(0, len(text) - 1))
        put = draw(st.sampled_from(["", '"', ",", ":", "[", "]", "{", "}", "x"]))
        return text[:at] + (put + text[at + 1:] if end == "edit" else "")
    return text + end


def loaded(load):
    """What ``load()`` gives: the state's kind and array bits, or the parse error's text."""
    try:
        state = load()
    except states.StateParseError as exc:
        return "error", str(exc)
    return state.is_pure, (state.vector if state.is_pure else state.density()).tobytes()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=state_texts())
@example(text='{"dim": 2, "kind": "pure", "amplitudes": [[1, 0], [0, 0]], "note": [[1, [2]]]}')
@example(text="[1, 2]")
@example(text='{"dim": 2, "kind": "density", "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}')
# json's messages for these differ between Python versions (3.13 names a trailing comma)
@example(text='{"dim": 1,}')
@example(text='{"dim": 2, "matrix": [[[1,0],[0,0]],]}')
@example(text='{"dim": 2 "kind": 1}')
@example(text='{"dim": 2, "matrix": [[[0, 1], [0, 0]]], '
              '"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}')  # the last one wins
def test_state_file_text_loads_as_json_load_reads_it(text):
    # the streaming reader only changes how the text and the matrix are held: the state's
    # bits, or the error's text (json's message, numpy's for rows that cannot stack), are
    # what json.load's tree gives
    assert_loads_as_json_load_reads_it(text)


def assert_loads_as_json_load_reads_it(text, streams=None):
    """``load_state`` on a file of ``text`` gives what json.load's tree of it gives; with
    ``streams``, the text is read by the streaming reader (True) or by json.load (False)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        expected = loaded(lambda: states.state_from_json_dict(read_json_file(path)))
        assert loaded(lambda: states.load_state(path)) == expected
        if streams is not None:
            assert (states._stream_state_file(path) is not None) == streams


@pytest.mark.parametrize("chunk", [3, 7])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=state_texts())
def test_state_file_text_loads_the_same_read_a_few_characters_at_a_time(chunk, text):
    # every token, a row's end and the object's end among them, crosses a read
    with mock.patch.object(states, "_CHUNK", chunk):
        assert_loads_as_json_load_reads_it(text)


DENSITY = '"matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]'
# (text, read as a stream): each text is read with its first read ending at every index
SPLIT_TEXTS = {
    "dim-digits": ('{"dim": 12, "amplitudes": [[1, 0]' + ", [0, 0]" * 11 + "]}", True),
    "nan-infinity": ('{"x": NaN, "y": -Infinity, "dim": 1, "amplitudes": [[NaN, -Infinity]]}',
                     True),
    "nan-infinity-row": ('{"dim": 1, "matrix": [[[-Infinity, NaN]]]}', True),
    "exponents": ('{"dim": 2e0, "w": 1.5e-3, "amplitudes": [[1e0, 0], [0, 0E+1]]}', True),
    "duplicate-matrix": ('{"dim": 2, "matrix": [[[0, 1], [0, 0]]], ' + DENSITY + "}", True),
    "matrix-first": ("{" + DENSITY + ', "kind": "density", "dim": 2}', True),
    "whitespace": ('\t\r\n{\r\n\t"dim"\t:\n2 ,\r"matrix":\n[ [ [0.5,0] ,[0,0]\t]\r,\n'
                   '[[0, 0], [0.5, 0] ]\n ]\t}\r\n', True),
    "empty-object": ("{ }", True),
    "empty-matrix": ('{"dim": 2, "matrix": [ ]}', True),
    "bom": ('\ufeff{"dim": 2, ' + DENSITY + "}", False),
    "trailing-comma": ('{"dim": 2, ' + DENSITY + ",}", False),
    "trailing-comma-row": ('{"dim": 2, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]],]}',
                           False),
    "trailing-text": ('{"dim": 2, ' + DENSITY + "} x", False),
    "truncated-row": ('{"dim": 2, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5', False),
    "top-level-list": ("[1, 2]", False),
}


@pytest.mark.parametrize("name", SPLIT_TEXTS)
def test_state_file_text_split_at_every_index_loads_as_json_load_reads_it(name):
    # a read that ends inside "12" must not give dim 1, nor one inside "-Infinity" an error
    text, streams = SPLIT_TEXTS[name]
    for chunk in range(1, len(text) + 2):
        with mock.patch.object(states, "_CHUNK", chunk):
            assert_loads_as_json_load_reads_it(text, streams)


FOREIGN = st.sampled_from("IXYZixyzQ1 ")


@st.composite
def word_files(draw):
    """The lines of a custom: file: words of one length from 0 to 11, now and then in
    lowercase, with foreign letters, repeated, the identity word, a word of another length,
    a blank line or a # comment.  Returns the length and the lines."""
    length = draw(st.integers(2, 10) | st.integers(2, 10) | st.sampled_from([0, 1, 11]))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["word", "word", "word", "word", "lower", "foreign",
                                     "identity", "repeat", "other", "blank", "comment"]))
        n = draw(st.integers(0, 11)) if kind == "other" else length
        letters = FOREIGN if kind == "foreign" else st.sampled_from("IXYZ")
        word = "".join(draw(st.lists(letters, min_size=n, max_size=n)))
        if kind == "identity":
            word = "I" * length
        elif kind == "repeat" and lines:
            word = draw(st.sampled_from(lines))
        elif kind in ("blank", "comment"):
            word = draw(st.sampled_from(["", "   "] if kind == "blank" else ["# note", "#XX"]))
        lines.append(word.lower() if kind in ("lower", "repeat") else word)
    return length, lines


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["purity", "classify"]), content=word_files(),
       qubits=st.none() | st.none() | st.none() | st.integers(1, 11),
       rescale=st.sampled_from([None, "auto", "1", "0.5"]))
@example(command="classify", content=(3, ["XII", "yii", "ZII", "IIX", "IIY", "iiz", "IXI",
                                          "IYI", "IZI"]), qubits=None, rescale=None)
@example(command="purity", content=(10, ["XYZXYZXYZX"] * 2 + ["IIIIIIIIII"]), qubits=None,
         rescale="1")
def test_custom_word_file_exit_0_2_or_3(command, content, qubits, rescale):
    length, lines = content
    qubits = length if qubits is None else qubits
    words = {line.strip().upper() for line in lines if line.strip() and not line.startswith("#")}
    valid = (words and all(len(w) == length and set(w) <= set("IXYZ") for w in words)
             and words != {"I" * length} and length <= 10)
    # four or fewer words commute along a perfect graph (Lovász 1972), so their stabilizer
    # bracket closes: the default and auto references are exact and take milliseconds
    exact = len(words - {"I" * length}) <= 4
    if rescale in (None, "auto") and length > 4 and not exact:
        rescale = "1"  # the fixed-point reference takes minutes on ten-letter words
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "words.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        state = f"w:{qubits}" if qubits > 1 else "spin:1/2,1/2"
        argv = [command, "--state", state, "--algebra", f"custom:{path}"]
        code, out, err = run(argv + (["--rescale", rescale] if rescale else []))
    assert code in (0, 2, 3), (lines, code, err)
    assert "Traceback" not in err
    if code:
        assert out == "" and err.startswith("error: ")
    else:
        assert "rescaled=" in out
    if valid and qubits == length and rescale == "1":
        assert code == 0, (lines, err)  # raw purity stays below 1 - 1/dim
    if valid and qubits == length and exact and rescale in (None, "auto"):
        assert code == 0, (lines, err)  # an exact reference bounds every state


# entries 0-2, or any output count after a one-input side: every shape that parses
# and fits the cap enumerates in milliseconds ((3,2,3,2) would take seconds)
SIDE = (st.tuples(st.integers(0, 2), st.integers(0, 2)).map("{0[0]},{0[1]}".format)
        | st.integers(1, 7).map(lambda m: f"1,{m}"))
SIZE_TOKEN = st.one_of(
    st.integers(0, 2).map(str), SIDE,
    st.text("0129+- ", max_size=3), st.text("abcxyzXYZ", min_size=1, max_size=3), st.just(""),
    st.integers(-2, 2).map(lambda d: str(10 ** 400 + d)),
    st.integers(4300, 4302).map(lambda k: "1" * k))  # int() refuses past 4,300 digits
SIZE_EDGE = {"1,6,1,6": 0, "1,7,1,6": 2}  # the enumeration cap is 6 input*output per side


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tokens=st.lists(SIZE_TOKEN, min_size=1, max_size=6) | st.lists(SIDE, min_size=1, max_size=2),
       json_mode=st.booleans())
@example(tokens=["1,6", "1,6"], json_mode=False)
@example(tokens=["1,7", "1,6"], json_mode=False)
def test_size_text_exit_0_or_2(tokens, json_mode):
    size = ",".join(",".join(tokens).split(",")[:6])  # 1-6 comma-separated tokens
    code, out, err = run(["boxes", "vertices", "--size", size] + ["--json"] * json_mode)
    assert code in (0, 2), (size, code, err)
    assert code == SIZE_EDGE.get(size, code), (size, err)
    assert "Traceback" not in err
    if code:
        assert out == "" and "--size" in err  # argparse, or the shape check
    else:
        assert "total" in out


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(table=st.text(max_size=8) | st.sampled_from(["PAPER", "paper ", "--list", "-h", "-1"]))
@example(table="paper")
def test_table_text_exit_2_unless_paper(table):
    # --list keeps the one accepted table fast: the names, no checks run
    code, out, err = run(["reproduce", "--table", table, "--list"])
    assert code == (0 if table == "paper" else 2), (table, err)
    assert "Traceback" not in err
    if code:
        assert out == "" and "--table" in err


# The command-line reader against argparse, its oracle: every argv the reader accepts gets
# the attributes argparse sets, and argparse reads everything else.
HANDLED = [(words, flags) for words, _, func, flags in cli.COMMANDS if func is not None]
ALL_FLAGS = sorted({option for _, flags in HANDLED for option, *_ in flags})
ARG_VALUES = ["", "-1", "-x", "--json", "nan", "1_0", "0x10", "1e-3", "w:3", "2,2", "paper",
              "purity"]


def parsed_by_argparse(argv):
    """``vars`` of argparse's namespace for ``argv``, its handler popped: (attrs, func)."""
    attrs = vars(cli.build_parser().parse_args(argv))
    return attrs, attrs.pop("func")


def read(argv):
    """The reader's attributes for ``argv``, as ``parsed_by_argparse`` gives them, or None."""
    args = cli.read_argv(argv)
    if args is None:
        return None
    attrs = dict(vars(args))
    return attrs, attrs.pop("func")


@st.composite
def command_lines(draw):
    words = draw(st.sampled_from([words for words, _ in HANDLED]
                                 + [(), ("boxes",), ("nope",), ("boxes", "nope")]))
    own = next((flags for w, flags in HANDLED if w == words), ())
    options = [option for option, *_ in own] or ALL_FLAGS
    flag = st.sampled_from(options) | st.sampled_from(ALL_FLAGS)
    value = st.sampled_from(ARG_VALUES) | st.floats(min_value=0).map(repr)
    odd = st.one_of(
        flag.flatmap(lambda f: st.integers(3, len(f) - 1).map(lambda n: (f[:n],))),  # abbreviated
        st.tuples(flag, value).map(lambda fv: ("=".join(fv),)),  # --flag=value
        st.tuples(flag, value), flag.map(lambda f: (f,)),  # repeats, or a missing value
        st.sampled_from([("-h",), ("--help",), ("--",), ("stray",)]),
        value.map(lambda v: (v,)))  # a stray value
    # the command's own flags in any order, each kept with odds 3 to 1, and in half the
    # command lines odd tokens among them
    units = [(option,) if kind == "switch" else (option, draw(value))
             for option, kind, _, _ in draw(st.permutations(own))
             if draw(st.sampled_from((True, True, True, False)))]
    for unit in draw(st.lists(odd, max_size=3)) if draw(st.booleans()) else []:
        units.insert(draw(st.integers(0, len(units))), unit)
    return [*words, *(token for unit in units for token in unit)]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
def test_reader_sets_what_argparse_sets(argv):
    got = read(argv)
    if got is not None:
        (attrs, func), (want, want_func) = got, parsed_by_argparse(argv)
        assert func is want_func
        # repr: a nan --tol equals itself, and a float never equals its text
        assert repr(sorted(attrs.items())) == repr(sorted(want.items()))


@pytest.mark.parametrize("words, flags", HANDLED, ids=[" ".join(w) for w, _ in HANDLED])
def test_reader_accepts_every_flag_of_every_command(words, flags):
    # the strict form: every flag of the command, valued ones with a value such as "1_0"
    argv = [*words, *(token for option, kind, _, _ in flags
                      for token in ([option] if kind == "switch" else [option, "1_0"]))]
    attrs, func = read(argv)
    want, want_func = parsed_by_argparse(argv)
    assert func is want_func and attrs == want


@pytest.mark.parametrize("tail", [
    ["--stat", "w:3", "--algebra", "omega1"],  # an abbreviation
    ["--state=w:3", "--algebra", "omega1"],
    ["--state", "w:3", "--state", "w:3", "--algebra", "omega1"],  # a repeat
    ["--state", "w:3", "--algebra", "omega1", "--rescale", "-1"],  # a value that starts with -
    ["--state", "w:3", "--algebra", "omega1", "stray"],
    ["--state", "w:3", "--algebra", "omega1", "--"],
    ["--state", "w:3", "--algebra", "omega1", "-h"],
    ["--state", "w:3", "--algebra"],  # a missing value
    ["--state", "w:3"],  # a missing flag
])
def test_reader_declines_what_argparse_must_read(tail):
    assert read(["classify", *tail]) is None


def test_reader_passes_a_tol_text_that_is_no_float():
    # --tol's text goes unchanged to PurityReport.unentangled, as --rescale's goes to
    # resolve_max_reference: the reader takes it, and the verdict rule refuses it
    argv = ["classify", "--state", "w:3", "--algebra", "omega1", "--tol", "0x10"]
    assert read(argv)[0]["tol"] == "0x10"
    assert run(argv) == (
        2, "", "error: tolerance must be a finite non-negative number, got '0x10'\n")


@pytest.mark.parametrize("tol", ["abc", "0x10", "", "nan", "inf", "-1"])
def test_tol_text_refused_by_the_verdict_rule_exit_2(tol):
    # "-1" goes through argparse, the others through the reader: both pass the text on
    code, out, err = run(["classify", "--state", "w:3", "--algebra", "omega1", "--tol", tol])
    assert (code, out) == (2, "")
    assert err == f"error: tolerance must be a finite non-negative number, got {tol!r}\n"
