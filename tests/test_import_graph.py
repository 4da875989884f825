import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
PACKAGE = Path(SRC) / "getk"


def _private_reads(path: Path) -> list:
    """Underscore names of other getk modules that one module reads, as module.name."""
    tree = ast.parse(path.read_text())
    getk = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", path.stem}
    aliases = {}  # local name -> getk module, from `from . import x` or `from getk import x`
    reads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and (node.module or "").split(".")[0] == "getk":
            module = node.module[len("getk."):]  # "" for the package itself
        else:
            continue
        for alias in node.names:
            if not module and alias.name in getk:
                aliases[alias.asname or alias.name] = alias.name
            elif module in getk and alias.name.startswith("_"):
                reads.append(f"{module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")):
            reads.append(f"{aliases[node.value.id]}.{node.attr}")
    return sorted(set(reads))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_reads_another_modules_private_names(path):
    assert _private_reads(path) == []


def _bit_length_owners(path: Path) -> list:
    """The innermost function around each ``.bit_length`` in one module, as module.name."""
    tree = ast.parse(path.read_text())
    owners = {id(node): "<module>" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "bit_length"}
    for func in ast.walk(tree):  # breadth first: an inner function overwrites its outer one
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if id(node) in owners:
                    owners[id(node)] = func.name
    return [f"{path.stem}.{name}" for name in owners.values()]


def test_the_size_rule_lives_in_checked_dim():
    # one size rule: every register dimension is formed by operators.checked_dim
    owners = [o for path in sorted(PACKAGE.glob("*.py")) for o in _bit_length_owners(path)]
    assert owners == ["operators.checked_dim"]


@pytest.mark.parametrize("module", ["getk", "getk.boxes"])
def test_import_leaves_numpy_out(module):
    # the box side is pure Fraction code, and the package exports nothing
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = f"import sys, {module}; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
PROBE = ("import json, os, sys, {module}\n"
         "tasks = '/proc/self/task'\n"
         "print(json.dumps({{'env': {{v: os.environ.get(v) for v in sys.argv[1:]}},\n"
         "                  'threads': len(os.listdir(tasks)) if os.path.isdir(tasks) else None}}))")


def _import_in_fresh_process(module, **preset):
    """Import ``module`` with the BLAS thread variables cleared, then ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE.format(module=module), *BLAS_VARS],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_command_pins_one_blas_thread():
    # the command owns its process: OpenBLAS starts no idle workers to spin
    probe = _import_in_fresh_process("getk.cli")
    assert probe["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                            "OMP_NUM_THREADS": None}
    if probe["threads"] is None:
        pytest.skip("no /proc/self/task to count threads")
    assert probe["threads"] == 1


@pytest.mark.parametrize("var", BLAS_VARS)
def test_user_thread_setting_is_kept(var):
    probe = _import_in_fresh_process("getk.cli", **{var: "2"})
    assert probe["env"] == {v: "2" if v == var else None for v in BLAS_VARS}


def test_library_leaves_the_environment_alone():
    probe = _import_in_fresh_process("getk.purity")
    assert probe["env"] == dict.fromkeys(BLAS_VARS)


# one state of matching dimension per catalog algebra
CATALOG_STATES = [
    ("omega1", "w:3"), ("omega2-literal", "ghz:3"), ("omega2-paper-values", "bisep:13"),
    ("omega3", "w:3"), ("omega4", "bisep:23"), ("omega-prime-loc", "bell:phi+"),
    ("u2", "bell:psi+"), ("so4-fermi", "fock:m2:11"), ("local:3x2", "ghz:3"),
    ("su2-spin:3/2", "spin:3/2,1/2"),
]
RANDOM_PROBE = """\
import contextlib, io, json, sys
from getk import cli
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded.append([argv, code, "numpy.random" in sys.modules])
print(json.dumps(loaded))
"""


def test_purity_commands_leave_numpy_random_unloaded():
    # both rescaling references draw from the stdlib generator numpy has already loaded
    runs = [[command, "--state", state, "--algebra", algebra, *rescale]
            for algebra, state in CATALOG_STATES
            for command in ("purity", "classify")
            for rescale in ([], ["--rescale", "auto"])]
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", RANDOM_PROBE, json.dumps(runs)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == [[argv, 0, False] for argv in runs]


def test_reproduce_leaves_numpy_random_unloaded():
    # the seeded checks of the golden suite draw from the same stdlib generator
    runs = [["reproduce", "--table", "paper"]]
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", RANDOM_PROBE, json.dumps(runs)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == [[argv, 0, False] for argv in runs]
