"""Property test: any --rescale and --tol text ends in exit 0 or 2, never a traceback."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from getk import cli

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
