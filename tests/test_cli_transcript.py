"""The command line's bytes, pinned: argv, exit code, stdout and stderr of a fixed command list.

Every command runs through ``cli.main`` in one fresh interpreter, with BLAS on one thread as
under ``getk``, in a temporary directory that holds the input files under fixed names.  The
result must equal ``tests/data/cli_transcript.txt`` line for line.  A change that moves these
bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/test_cli_transcript.py --write

and names each moved line where the change is described.
"""

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
TRANSCRIPT = TESTS / "data" / "cli_transcript.txt"

PR_BOX = [[1, 2], [0, 1], [1, 2], [0, 1], [0, 1], [1, 2], [0, 1], [1, 2],
          [1, 2], [0, 1], [0, 1], [1, 2], [0, 1], [1, 2], [1, 2], [0, 1]]
PRODUCT_BOX = [[1, 1], [0, 1], [1, 1], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1],
               [1, 1], [0, 1], [1, 1], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1]]
# Bob's outcome on input 0 follows Alice's input
SIGNALLING_BOX = [[1, 1], [0, 1], [1, 1], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1],
                  [0, 1], [1, 1], [1, 1], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1]]
MIXTURE_BOX = [[n * d + m * b, 2 * b * d] for (n, b), (m, d) in zip(PR_BOX, PRODUCT_BOX)]


def _box(p) -> str:
    return json.dumps({"n_inputs": [2, 2], "n_outputs": [2, 2], "p": p})


INPUTS = {
    "pr.json": _box(PR_BOX),
    "mixture.json": _box(MIXTURE_BOX),  # half the PR box, half a product vertex
    "signalling.json": _box(SIGNALLING_BOX),
    "words.txt": "XX\n# a comment\nZZ\n\nXY\n",
    # two of the four commute and they split into two anticommuting pairs: exactly 2 / 1024
    "ten.txt": "IZZIXZZYXI\nZYIXYIZXYZ\nZYYZXYYXZX\nZZIIXXXYYX\n",
    # they commute along a 5-cycle: 2 commuting, 3 anticommuting sets, so the fixed point
    "cycle.txt": "IX\nIY\nXX\nYI\nZY\n",
    "pure.json": '{"dim": 4, "kind": "pure", '
                 '"amplitudes": [[0.6, 0], [0, 0], [0, 0.48], [0.64, 0]]}',
    "mixed.json": '{"dim": 2, "kind": "density", "matrix": [[[0.75, 0], [0, 0.25]], '
                  '[[0, -0.25], [0.25, 0]]]}',
}

# one builtin state of matching dimension for every catalog algebra
ALGEBRA_STATES = [
    ("omega1", "w:3"), ("omega2-literal", "ghz:3"), ("omega2-paper-values", "bisep:13"),
    ("omega3", "w:3"), ("omega4", "bisep:23"), ("omega-prime-loc", "bell:phi+"),
    ("u2", "bell:psi+"), ("so4-fermi", "fock:m2:11"), ("local:2x2", "bell:phi-"),
    ("local:3x2", "ghz:3"), ("local:1x3", "spin:1,0"), ("su2-spin:1", "spin:1,1"),
    ("custom:words.txt", "pure.json"), ("local:1x2", "mixed.json"),
]
SPINS = [("1/2", "1/2"), ("1/2", "-1/2"), ("3/2", "3/2"), ("3/2", "1/2"), ("3", "3"), ("3", "0")]


def _commands() -> list[list[str]]:
    commands = []
    for algebra, state in ALGEBRA_STATES:
        for command in ("purity", "classify"):
            for rescale in ([], ["--rescale", "auto"]):
                for json_flag in ([], ["--json"]):
                    commands.append([command, "--state", state, "--algebra", algebra,
                                     *rescale, *json_flag])
    for algebra, state in (("custom:ten.txt", "ghz:10"), ("custom:cycle.txt", "bell:phi+")):
        for json_flag in ([], ["--json"]):
            commands.append(["purity", "--state", state, "--algebra", algebra, *json_flag])
    for j, m in SPINS:
        for command in ("purity", "classify"):
            for flags in ([], ["--json"], ["--rescale", "auto", "--json"]):
                commands.append([command, "--state", f"spin:{j},{m}", "--algebra",
                                 f"su2-spin:{j}", *flags])
    commands += [["boxes", "vertices", "--size", "2,2"],
                 ["boxes", "vertices", "--size", "2,2", "--json"],
                 ["boxes", "vertices", "--size", "2,2,2,3"]]
    for box in ("pr.json", "mixture.json"):
        for sub in ("classify", "separable", "orbit"):
            for json_flag in ([], ["--json"]):
                commands.append(["boxes", sub, "--state", box, *json_flag])
    commands += [["reproduce", "--table", "paper"], ["reproduce", "--table", "paper", "--list"],
                 ["purity", "--state", "spin:1,-1.4", "--algebra", "su2-spin:1"],  # exit 2
                 ["classify", "--state", "w:4", "--algebra", "omega1"],  # exit 3
                 ["boxes", "orbit", "--state", "signalling.json"]]  # exit 4
    return commands


RUNNER = """\
import contextlib, io, json, sys
from getk import cli
records = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    records.append([argv, code, out.getvalue(), err.getvalue()])
json.dump(records, sys.stdout)
"""


def _lines(tag: str, text: str) -> list[str]:
    """``tag| line`` for each line of ``text``; an unterminated last line is ``tag! line``."""
    *whole, last = text.split("\n")
    return [f"{tag}| {line}" for line in whole] + ([f"{tag}! {last}"] if last else [])


def transcript() -> str:
    """Run every command in one fresh interpreter and render what each printed."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(TESTS.parent / "src")
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in INPUTS.items():
            Path(cwd, name).write_text(text)
        proc = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(_commands()),
                              cwd=cwd, env=env, capture_output=True, text=True, check=True,
                              timeout=120)
    lines = []
    for argv, code, out, err in json.loads(proc.stdout):
        lines += [f"$ getk {shlex.join(argv)}", f"exit {code}", *_lines("out", out),
                  *_lines("err", err)]
    return "\n".join(lines) + "\n"


def test_command_line_bytes_match_the_transcript():
    got, want = transcript().splitlines(), TRANSCRIPT.read_text().splitlines()
    assert got == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_transcript.py --write")
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text(transcript())
