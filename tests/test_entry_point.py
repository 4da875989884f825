"""The ``getk`` command's exit path, run in fresh processes.

``entry_point`` flushes and ends with ``os._exit``: these tests check that a
command prints the same bytes and returns the same code as ``cli.main`` in
process, and that a closed stdout or a reader that leaves early ends quietly.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from getk import boxes, cli, states
from random_states import perturbed_builtins
from test_import_graph import SIGNALLING_TABLE, SRC

TESTS = os.path.dirname(os.path.abspath(__file__))


def _env(unbuffered: bool = False) -> dict:
    """The test's environment for a command: block-buffered stdout unless ``unbuffered``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = SRC
    return env


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue()


@pytest.fixture(scope="module")
def box_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("boxes")
    pr_box, signalling = root / "pr.json", root / "signalling.json"
    pr_box.write_text(json.dumps(boxes.canonical_entangled_vertex().to_json_dict()))
    signalling.write_text(json.dumps(SIGNALLING_TABLE))
    return {"pr": str(pr_box), "signalling": str(signalling)}


COMMANDS = {
    "purity": (["purity", "--state", "w:3", "--algebra", "omega1"], 0),
    "classify-json": (["classify", "--state", "ghz:3", "--algebra", "omega3", "--json"], 0),
    "vertices-large": (["boxes", "vertices", "--size", "3,2,2,3"], 0),
    "boxes-classify": (["boxes", "classify", "--state", "{pr}"], 0),
    "boxes-separable": (["boxes", "separable", "--state", "{pr}"], 0),
    "boxes-orbit": (["boxes", "orbit", "--state", "{pr}", "--json"], 0),
    "reproduce": (["reproduce", "--table", "paper"], 0),
    "failed-checks": (["reproduce", "--table", "paper"], 1),  # with w:3 perturbed
    "parse-error": (["purity", "--state", "nosuch:3", "--algebra", "omega1"], 2),
    "dimension-mismatch": (["purity", "--state", "w:4", "--algebra", "omega1"], 3),
    "signalling": (["boxes", "orbit", "--state", "{signalling}"], 4),
}


# the getk command with w:3 moved off its golden values, as the test moves it in process
PERTURBED_COMMAND = f"""\
import sys
sys.path.insert(0, {TESTS!r})
from random_states import perturbed_builtins
from getk import cli, states
states.builtin_state = perturbed_builtins("w:3")
cli.entry_point()
"""


@pytest.mark.parametrize("name", COMMANDS)
def test_fresh_process_prints_what_main_prints(name, box_files, monkeypatch):
    # with stdout block-buffered, output that the exit failed to flush would be lost
    template, code = COMMANDS[name]
    argv = [arg.format(**box_files) for arg in template]
    command = [sys.executable, "-m", "getk.cli"]
    if name == "failed-checks":
        monkeypatch.setattr(states, "builtin_state", perturbed_builtins("w:3"))
        command = [sys.executable, "-c", PERTURBED_COMMAND]
    proc = subprocess.run([*command, *argv], env=_env(), capture_output=True, timeout=120)
    assert _in_process(argv) == (code, proc.stdout, proc.stderr.decode())
    assert proc.returncode == code


@pytest.mark.parametrize("argv", [
    ["purity", "--algebra", "omega1", "--state"],
    ["boxes", "classify", "--state"],
], ids=["state-file", "box-file"])
def test_too_deeply_nested_json_is_a_parse_error(argv, tmp_path):
    # the JSON decoder refuses this depth with RecursionError; the command reads it as exit 2
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    proc = subprocess.run([sys.executable, "-m", "getk.cli", *argv, str(deep)], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: state: {str(deep)!r} nests too deeply to decode\n"


def _sh(script: str, unbuffered: bool = False, stdout=subprocess.PIPE):
    """Run ``script`` with ``$getk`` set to the command; stderr as text."""
    env = dict(_env(unbuffered), getk=f"{sys.executable} -m getk.cli")
    return subprocess.run(["sh", "-c", script], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_reader_that_leaves_early_exits_1_without_traceback(unbuffered):
    # 130 kB of records: more than the pipe holds after head has read its line
    proc = _sh('{ $getk boxes vertices --size 2,3,2,3; echo "exit=$?" >&2; } | head -1',
               unbuffered)
    assert proc.stdout.startswith("vertex=") and proc.stdout.count("\n") == 1
    assert proc.stderr == "exit=1\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["flush", "print"])
def test_reader_gone_before_the_first_record_exits_1(unbuffered):
    # the pipe's read end is closed before the command starts: with stdout
    # block-buffered the final flush fails, unbuffered the first print does
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _sh('$getk purity --state w:3 --algebra omega1; echo "exit=$?" >&2',
                   unbuffered, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.stderr == "exit=1\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code, err", [
    ("purity --state w:3 --algebra omega1", 0, ""),
    ("purity --state w:4 --algebra omega1", 3,
     "error: dimension mismatch: state 16 vs space 8\n"),
], ids=["exit-0", "exit-3"])
def test_closed_stdout_keeps_the_exit_code(argv, code, err, unbuffered):
    proc = _sh(f'$getk {argv} >&-; echo "exit=$?" >&2', unbuffered)
    assert proc.stdout == ""
    assert proc.stderr == f"{err}exit={code}\n"
